package serve

import (
	"math/bits"
)

// eventQueue is the simulator's pending-event set. The hierarchical
// timer wheel below is the one production implementation; the tests
// keep a container/heap binary heap as the ordering oracle. Both pop
// events in strictly identical (time, schedule-seq) order, so a replay
// is bit-identical under either.
type eventQueue interface {
	push(event)
	pop() event
	empty() bool
}

// newEventQueue builds each simulation's event queue. The full-replay
// differential test swaps in the heap oracle.
var newEventQueue = func() eventQueue { return newTimerWheel() }

const (
	wheelBits   = 6                                // slots per level = 2^6
	wheelSlots  = 1 << wheelBits                   // 64
	wheelMask   = wheelSlots - 1                   // slot index mask
	wheelLevels = (64 + wheelBits - 1) / wheelBits // 11 levels cover a full uint64 clock
)

// timerWheel is an indexed hierarchical timer wheel over the virtual
// clock: wheelLevels levels of wheelSlots slots, each level one 6-bit
// digit of the 64-bit timestamp. An event lives at the highest level
// whose digit differs from the wheel's current time `cur`; per-level
// uint64 occupancy bitmaps make "find the earliest non-empty slot" one
// TrailingZeros64, so push and pop are O(1) amortized regardless of how
// many events are in flight — the heap's O(log n) sift at 10^4+ pending
// events is what this replaces.
//
// Ordering proof sketch (why pops are bit-identical to the heap's
// (t, seq) order):
//   - Two events with equal t share every digit, hence the same slot at
//     every level they ever occupy; slots are FIFO slices, cascades
//     preserve slot order, and a direct push always carries a larger
//     seq than anything already resident. Equal-t pops are therefore in
//     push (= seq) order.
//   - Within a level every occupied digit is >= cur's digit at that
//     level (t >= cur and the higher digits match cur), so the lowest
//     set occupancy bit is the earliest slot; and any event at level
//     l is strictly earlier than any event at level m > l. Lowest
//     non-empty level + lowest set bit is therefore the global minimum.
type timerWheel struct {
	cur  uint64 // lower bound on every pending event's time
	n    int
	occ  [wheelLevels]uint64
	slot [wheelLevels][wheelSlots][]event

	// ready holds the currently-draining level-0 slot: events whose
	// t == cur exactly, in seq order. Pushes at t == cur append here.
	ready     []event
	readyHead int

	// late catches pushes with t < cur. The simulator never schedules
	// into the past, but the heap would serve such an event first and
	// the wheel must not silently diverge, so they are kept sorted and
	// drained before anything else.
	late []event
}

func newTimerWheel() *timerWheel { return &timerWheel{} }

func (w *timerWheel) empty() bool { return w.n == 0 }

func (w *timerWheel) push(e event) {
	w.n++
	if e.t < w.cur {
		i := len(w.late)
		for i > 0 && (w.late[i-1].t > e.t || (w.late[i-1].t == e.t && w.late[i-1].seq > e.seq)) {
			i--
		}
		w.late = append(w.late, event{})
		copy(w.late[i+1:], w.late[i:])
		w.late[i] = e
		return
	}
	w.place(e)
}

// place files an event with t >= cur into its wheel position.
func (w *timerWheel) place(e event) {
	d := e.t ^ w.cur
	if d == 0 {
		w.ready = append(w.ready, e)
		return
	}
	lvl := (63 - bits.LeadingZeros64(d)) / wheelBits
	s := int(e.t>>(uint(lvl)*wheelBits)) & wheelMask
	w.slot[lvl][s] = append(w.slot[lvl][s], e)
	w.occ[lvl] |= 1 << uint(s)
}

func (w *timerWheel) pop() event {
	w.n--
	if len(w.late) > 0 {
		e := w.late[0]
		w.late = w.late[1:]
		return e
	}
	for {
		if w.readyHead < len(w.ready) {
			e := w.ready[w.readyHead]
			w.readyHead++
			if w.readyHead == len(w.ready) {
				w.ready = w.ready[:0]
				w.readyHead = 0
			}
			return e
		}
		lvl := 0
		for lvl < wheelLevels && w.occ[lvl] == 0 {
			lvl++
		}
		s := bits.TrailingZeros64(w.occ[lvl]) // panics via index if popped empty — caller bug
		evs := w.slot[lvl][s]
		w.occ[lvl] &^= 1 << uint(s)
		if lvl == 0 {
			// Advance to the slot's (single) timestamp and serve it FIFO.
			w.cur = w.cur&^wheelMask | uint64(s)
			w.slot[0][s] = w.ready[:0] // recycle the drained ready backing array
			w.ready, w.readyHead = evs, 0
			continue
		}
		// Cascade: advance cur's digit at this level to s, zero the
		// digits below, and re-file the slot's events — each lands at a
		// strictly lower level (its level-lvl digit now matches cur), so
		// this terminates. Shift counts >= 64 are defined as 0 in Go,
		// which makes the top level's mask come out all-ones for free.
		shift := uint(lvl) * wheelBits
		mask := uint64(1)<<(shift+wheelBits) - 1
		w.cur = w.cur&^mask | uint64(s)<<shift
		for _, e := range evs {
			w.place(e)
		}
		w.slot[lvl][s] = evs[:0] // events are re-filed; recycle the backing array
	}
}
