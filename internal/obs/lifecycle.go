package obs

import (
	"sync"
)

// Stage enumerates the order-lifecycle stages an order moves through:
//
//	placed → admitted → assigned ⇄ released → picked_up → delivered
//	                 ↘ rejected (from admitted or released)
//
// "pooled" coincides with admitted (admission inserts into the pool) and
// batch formation coincides with assignment (batching and matching happen
// inside one atomic round), so neither gets its own stage; the per-stage
// pipeline histograms cover the intra-round split instead.
type Stage uint8

// Lifecycle stages.
const (
	StagePlaced Stage = iota
	StageAdmitted
	StageAssigned
	StageReleased
	StagePickedUp
	StageDelivered
	StageRejected
	numStages
)

var stageNames = [numStages]string{
	"placed", "admitted", "assigned", "released", "picked_up", "delivered", "rejected",
}

func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// canonical transitions: the (from, to) pairs that get latency histograms.
// Anything else increments the other-transitions counter only.
var canonicalTransitions = [][2]Stage{
	{StagePlaced, StageAdmitted},    // submit-queue wait (wall-adjacent; sim clock)
	{StageAdmitted, StageAssigned},  // pool wait until first match
	{StageAssigned, StageReleased},  // held before a reshuffle stripped it
	{StageReleased, StageAssigned},  // reshuffle turnaround
	{StageAssigned, StagePickedUp},  // en-route to pickup
	{StagePickedUp, StageDelivered}, // onboard
	{StageAdmitted, StageRejected},  // never matched before SLA breach
	{StageReleased, StageRejected},  // stripped, then SLA breached
}

// OrderEvent is one lifecycle transition, as exposed by the NDJSON ring
// (`GET /trace/orders` tail and experiments JSONL export). Times are in
// simulation seconds since midnight; GapSec is sim time since the order's
// previous stage.
type OrderEvent struct {
	T       float64 `json:"t"`
	Order   int64   `json:"order"`
	Vehicle int64   `json:"vehicle,omitempty"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to"`
	GapSec  float64 `json:"gap_sec"`
}

const tracerStripes = 64

type stageAt struct {
	stage Stage
	t     float64
}

type tracerStripe struct {
	mu   sync.Mutex
	last map[int64]stageAt
}

// OrderTracer follows every order through its lifecycle, recording a
// per-transition latency histogram (simulation seconds) and, when a ring
// size is given, a bounded NDJSON-able event ring. Transition is safe from
// parallel shard goroutines: order state lives in 64 lock-striped maps
// (orders hash to a stripe, so two movers never contend unless their orders
// collide), histograms are atomic, and the ring has its own mutex but is
// disabled by default. Terminal transitions (delivered/rejected) clear the
// order's entry; orders that silently vanish (end-of-day stranding) retain
// a map entry until the tracer is dropped — bounded by one day's orders.
type OrderTracer struct {
	hist    [numStages][numStages]*Histogram // nil = uncanonical pair
	other   *Counter
	stripes [tracerStripes]tracerStripe

	ringCap  int // immutable after construction; 0 = ring disabled
	ringMu   sync.Mutex
	ring     []OrderEvent // guarded by ringMu
	ringNext uint64       // total events ever appended; guarded by ringMu
}

// NewOrderTracer registers the transition histograms on reg and returns a
// tracer whose event ring holds ringSize events (0 disables the ring).
func NewOrderTracer(reg *Registry, ringSize int) *OrderTracer {
	t := &OrderTracer{}
	for _, tr := range canonicalTransitions {
		from, to := tr[0], tr[1]
		t.hist[from][to] = reg.Histogram(
			"foodmatch_order_transition_sim_seconds",
			"Order-lifecycle transition latency in simulation seconds, by (from, to) stage.",
			SimBuckets,
			Labels{"from": from.String(), "to": to.String()},
		)
	}
	t.other = reg.Counter("foodmatch_order_transitions_other_total",
		"Order-lifecycle transitions outside the canonical stage graph.", nil)
	if ringSize > 0 {
		t.ringCap = ringSize
		t.ring = make([]OrderEvent, 0, ringSize)
	}
	return t
}

// Transition records order reaching stage `to` at sim time `at` (vehicle 0
// when not applicable). Nil-safe.
func (t *OrderTracer) Transition(order, vehicle int64, to Stage, at float64) {
	if t == nil || to >= numStages {
		return
	}
	s := &t.stripes[uint64(order)%tracerStripes]
	s.mu.Lock()
	if s.last == nil {
		s.last = make(map[int64]stageAt)
	}
	prev, had := s.last[order]
	if to == StageDelivered || to == StageRejected {
		delete(s.last, order)
	} else {
		s.last[order] = stageAt{stage: to, t: at}
	}
	s.mu.Unlock()

	gap := 0.0
	from := ""
	if had {
		if gap = at - prev.t; gap < 0 {
			gap = 0
		}
		from = prev.stage.String()
		if h := t.hist[prev.stage][to]; h != nil {
			h.Observe(gap)
		} else {
			t.other.Inc()
		}
	}
	if t.ringCap > 0 {
		t.appendRing(OrderEvent{T: at, Order: order, Vehicle: vehicle, From: from, To: to.String(), GapSec: gap})
	}
}

func (t *OrderTracer) appendRing(e OrderEvent) {
	t.ringMu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.ringNext%uint64(cap(t.ring))] = e
	}
	t.ringNext++
	t.ringMu.Unlock()
}

// Tail returns up to n of the most recent ring events, oldest first.
// Nil-safe; returns nil when the ring is disabled.
func (t *OrderTracer) Tail(n int) []OrderEvent {
	if t == nil || t.ringCap == 0 || n <= 0 {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	size := len(t.ring)
	if n > size {
		n = size
	}
	out := make([]OrderEvent, 0, n)
	if size < t.ringCap {
		// ring not yet wrapped: chronological prefix
		out = append(out, t.ring[size-n:]...)
		return out
	}
	c := uint64(t.ringCap)
	start := t.ringNext - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, t.ring[(start+i)%c])
	}
	return out
}

// Pending counts orders currently tracked in a non-terminal stage.
func (t *OrderTracer) Pending() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += len(s.last)
		s.mu.Unlock()
	}
	return n
}
