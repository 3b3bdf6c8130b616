package obs

// Gauges is one deterministic snapshot of the serving simulator's
// instantaneous state, sampled on virtual-clock boundaries.
type Gauges struct {
	// QueueDepth is the total number of queued attempts over all
	// dispatch shards; MaxShardDepth the deepest single shard.
	QueueDepth    uint64 `json:"queue_depth"`
	MaxShardDepth uint64 `json:"max_shard_depth"`
	// BusyWorkers counts workers inside an enclave entry; DownWorkers
	// counts crashed workers awaiting rebuild.
	BusyWorkers uint64 `json:"busy_workers"`
	DownWorkers uint64 `json:"down_workers"`
	// InFlightBatches counts workers currently serving a batched entry.
	InFlightBatches uint64 `json:"in_flight_batches"`
	// PagesCommitted is the cumulative count of EPC pages committed at
	// run time (EDMM / minor faults) up to the sample boundary.
	PagesCommitted uint64 `json:"pages_committed"`
}

// Sample is one point of the metrics timeline.
type Sample struct {
	T uint64 `json:"t"`
	G Gauges `json:"gauges"`
	// Shards is the per-shard queue depth at T (one entry per dispatch
	// shard).
	Shards []uint64 `json:"shards,omitempty"`
}

// DefaultMetricsCap is the sample-ring capacity for capacity < 1, and
// DefaultMetricsInterval the sample period for interval < 1.
const (
	DefaultMetricsCap      = 1 << 12
	DefaultMetricsInterval = 1 << 16
)

// Metrics is a deterministic gauge timeline: the simulation calls Due
// before processing each event and Records a sample per crossed
// boundary. Sampling never schedules events — the simulator reads its
// own state at boundaries it was already passing — so an attached
// Metrics cannot perturb event order. Like the Tracer, the timeline is
// ring-buffered with an explicit dropped counter.
type Metrics struct {
	interval uint64
	next     uint64
	cap      int
	buf      []Sample
	head     int // ring write position once the buffer is full
	dropped  uint64
}

// NewMetrics returns a timeline sampling every interval virtual cycles,
// retaining up to capacity samples.
func NewMetrics(interval uint64, capacity int) *Metrics {
	if interval < 1 {
		interval = DefaultMetricsInterval
	}
	if capacity < 1 {
		capacity = DefaultMetricsCap
	}
	return &Metrics{interval: interval, next: interval, cap: capacity}
}

// Interval returns the sample period in virtual cycles.
func (m *Metrics) Interval() uint64 { return m.interval }

// Due reports whether the next sample boundary is at or before t.
func (m *Metrics) Due(t uint64) bool { return m.next <= t }

// Record stores a sample at the current boundary and advances to the
// next one. Call only while Due; between events the simulated state is
// constant, so recording the same gauges at each crossed boundary is an
// honest timeline.
func (m *Metrics) Record(g Gauges, shards []uint64) {
	s := Sample{T: m.next, G: g, Shards: shards}
	m.next += m.interval
	if len(m.buf) < m.cap {
		m.buf = append(m.buf, s)
		return
	}
	m.buf[m.head] = s
	m.head = (m.head + 1) % m.cap
	m.dropped++
}

// Len returns the number of retained samples.
func (m *Metrics) Len() int { return len(m.buf) }

// Dropped returns how many samples were evicted from the ring.
func (m *Metrics) Dropped() uint64 { return m.dropped }

// Samples returns the retained timeline in time order, oldest first.
func (m *Metrics) Samples() []Sample {
	if len(m.buf) < m.cap || m.head == 0 {
		return append([]Sample(nil), m.buf...)
	}
	out := make([]Sample, 0, len(m.buf))
	out = append(out, m.buf[m.head:]...)
	return append(out, m.buf[:m.head]...)
}
