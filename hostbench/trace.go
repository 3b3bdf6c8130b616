package main

import (
	"sort"
	"time"

	"sgxbench/internal/obs"
)

// spans records host-clock spans around the benchmark's calls into the
// simulator's public functions. Spans are kept in memory in an
// obs.Tracer and written out (obs.WriteTrace, Perfetto-loadable) when
// the run ends; timestamps are host nanoseconds since the recorder was
// created. Each span carries its own id, its parent's id and the
// operation it belongs to (0 for set-up) as args.
//
// A nil *spans records nothing: timed runs pass nil, so they carry no
// instrument beyond a nil check per call.
type spans struct {
	tr     *obs.Tracer
	origin time.Time
	lastID uint64
	stack  []openSpan
	op     uint64 // operation id stamped on new spans (0: set-up)
}

type openSpan struct {
	name       string
	id, parent uint64
	start      time.Time
}

func newSpans(capacity int) *spans {
	return &spans{tr: obs.NewTracer(capacity), origin: time.Now()}
}

// begin opens a span nested in the innermost open one.
func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	var parent uint64
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1].id
	}
	s.lastID++
	s.stack = append(s.stack, openSpan{name: name, id: s.lastID, parent: parent, start: time.Now()})
}

// end closes the innermost open span and records it.
func (s *spans) end() {
	if s == nil {
		return
	}
	now := time.Now()
	o := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.tr.Record(obs.Span{
		Name: o.name, Cat: "hostbench", Ph: obs.PhComplete,
		T:    uint64(o.start.Sub(s.origin)),
		Dur:  uint64(now.Sub(o.start)),
		Args: []obs.Attr{{Key: "span", Val: o.id}, {Key: "parent", Val: o.parent}, {Key: "op", Val: s.op}},
	})
}

func spanArg(sp obs.Span, key string) uint64 {
	for _, a := range sp.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// selfTimes derives every span's self time: its duration minus the
// part of its interval that its child spans cover. Children that
// overlap each other are counted once; a child reaching outside its
// parent counts only inside it. The result is keyed by span id.
func selfTimes(sps []obs.Span) map[uint64]uint64 {
	type interval struct{ lo, hi uint64 }
	byID := make(map[uint64]obs.Span, len(sps))
	kids := map[uint64][]interval{}
	for _, sp := range sps {
		byID[spanArg(sp, "span")] = sp
	}
	for _, sp := range sps {
		if p, ok := byID[spanArg(sp, "parent")]; ok {
			lo, hi := max(sp.T, p.T), min(sp.T+sp.Dur, p.T+p.Dur)
			if lo < hi {
				id := spanArg(p, "span")
				kids[id] = append(kids[id], interval{lo, hi})
			}
		}
	}
	self := make(map[uint64]uint64, len(sps))
	for id, sp := range byID {
		iv := kids[id]
		sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
		var covered, reach uint64
		for _, c := range iv {
			lo := max(c.lo, reach)
			if c.hi > lo {
				covered += c.hi - lo
			}
			reach = max(reach, c.hi)
		}
		self[id] = sp.Dur - covered
	}
	return self
}

// spanTotal sums one span name's count, duration and self time.
type spanTotal struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarize totals the spans by name, over set-up spans (op 0) when
// setup is true and over operation spans otherwise.
func summarize(sps []obs.Span, setup bool) map[string]spanTotal {
	self := selfTimes(sps)
	out := map[string]spanTotal{}
	for _, sp := range sps {
		if (spanArg(sp, "op") == 0) != setup {
			continue
		}
		t := out[sp.Name]
		t.Count++
		t.Total += time.Duration(sp.Dur)
		t.Self += time.Duration(self[spanArg(sp, "span")])
		out[sp.Name] = t
	}
	return out
}
