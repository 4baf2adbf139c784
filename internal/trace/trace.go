// Package trace records the event stream of a delivery simulation — order
// placements, assignments, reassignments, rejections, pickups, dropoffs and
// per-window assignment rounds — and derives post-hoc analyses from it:
// per-order timelines, queue-depth series, vehicle utilisation and
// service-level (delivery within promise) statistics.
//
// The simulator emits events through the Sink interface; a Recorder stores
// them in memory and can stream them as JSON Lines for external tooling.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/model"
)

// Kind enumerates event types.
type Kind string

// Event kinds.
const (
	OrderPlaced Kind = "order_placed"
	// OrderAdmitted marks the order entering the dispatch pool. Its T is the
	// admission clock, so T(admitted) - T(placed) is the submit-queue plus
	// future-order wait; an offline replay admits within the window that
	// covers placement.
	OrderAdmitted  Kind = "order_admitted"
	OrderAssigned  Kind = "order_assigned"
	OrderReleased  Kind = "order_released" // reshuffled back to the pool
	OrderRejected  Kind = "order_rejected"
	OrderPickedUp  Kind = "order_picked_up"
	OrderDelivered Kind = "order_delivered"
	WindowClosed   Kind = "window_closed"
)

// Event is one simulation event. Fields are populated per kind; zero values
// mean "not applicable".
type Event struct {
	Kind    Kind            `json:"kind"`
	T       float64         `json:"t"` // simulation clock, seconds since midnight
	Order   model.OrderID   `json:"order,omitempty"`
	Vehicle model.VehicleID `json:"vehicle,omitempty"`
	// Window metadata (WindowClosed): |O(ℓ)|, |V(ℓ)|, the number of *orders*
	// the round attached to vehicles (not batches, so PoolSize − Assignments
	// is the backlog), and the slowest shard's Assign wall time. One
	// WindowClosed is emitted per window — empty ones included — after the
	// window's assignment events.
	PoolSize    int     `json:"pool,omitempty"`
	Vehicles    int     `json:"vehicles,omitempty"`
	Assignments int     `json:"assignments,omitempty"`
	AssignSec   float64 `json:"assign_sec,omitempty"`
}

// Sink consumes events. Implementations must be cheap; the simulator calls
// them on its hot path.
type Sink interface {
	Emit(Event)
}

// Discard is a Sink that drops everything.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(Event) {}

// Recorder stores events in memory in emission order. It is safe for
// concurrent use: the online engine's zone shards emit from their own
// goroutines, so appends are serialised by a mutex.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Snapshot returns a copy of the recorded events in emission order.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Filter returns the recorded events of the given kinds, in emission order.
func (r *Recorder) Filter(kinds ...Kind) []Event {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSONL streams the recorded events as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	events := r.Snapshot()
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	return nil
}

// ReadJSONL loads a JSON Lines event stream.
func ReadJSONL(rd io.Reader) (*Recorder, error) {
	dec := json.NewDecoder(rd)
	r := NewRecorder()
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return r, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding event %d: %w", len(r.events), err)
		}
		r.events = append(r.events, e)
	}
}

// Timeline is the reconstructed lifecycle of one order.
type Timeline struct {
	Order       model.OrderID
	PlacedAt    float64
	Assignments []Assignment
	PickedUpAt  float64 // 0 if never
	DeliveredAt float64 // 0 if never
	RejectedAt  float64 // 0 if never
}

// Assignment is one (re)assignment hop in an order's lifecycle.
type Assignment struct {
	T       float64
	Vehicle model.VehicleID
}

// FinalVehicle returns the vehicle that ultimately served the order, or 0.
func (tl *Timeline) FinalVehicle() model.VehicleID {
	if len(tl.Assignments) == 0 {
		return 0
	}
	return tl.Assignments[len(tl.Assignments)-1].Vehicle
}

// Reassignments counts vehicle switches.
func (tl *Timeline) Reassignments() int {
	n := 0
	for i := 1; i < len(tl.Assignments); i++ {
		if tl.Assignments[i].Vehicle != tl.Assignments[i-1].Vehicle {
			n++
		}
	}
	return n
}

// Timelines reconstructs per-order lifecycles, sorted by order id.
func (r *Recorder) Timelines() []*Timeline {
	byOrder := make(map[model.OrderID]*Timeline)
	get := func(id model.OrderID) *Timeline {
		tl, ok := byOrder[id]
		if !ok {
			tl = &Timeline{Order: id}
			byOrder[id] = tl
		}
		return tl
	}
	for _, e := range r.Snapshot() {
		switch e.Kind {
		case OrderPlaced:
			get(e.Order).PlacedAt = e.T
		case OrderAssigned:
			tl := get(e.Order)
			tl.Assignments = append(tl.Assignments, Assignment{T: e.T, Vehicle: e.Vehicle})
		case OrderPickedUp:
			get(e.Order).PickedUpAt = e.T
		case OrderDelivered:
			get(e.Order).DeliveredAt = e.T
		case OrderRejected:
			get(e.Order).RejectedAt = e.T
		}
	}
	out := make([]*Timeline, 0, len(byOrder))
	for _, tl := range byOrder {
		out = append(out, tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// QueuePoint is one sample of the unassigned-order queue depth.
type QueuePoint struct {
	T     float64
	Depth int
}

// QueueDepth derives the end-of-window unassigned queue series.
func (r *Recorder) QueueDepth() []QueuePoint {
	var out []QueuePoint
	for _, e := range r.Snapshot() {
		if e.Kind == WindowClosed {
			out = append(out, QueuePoint{T: e.T, Depth: e.PoolSize - e.Assignments})
		}
	}
	return out
}

// Summary aggregates service-level statistics from the stream.
type Summary struct {
	Orders         int
	Delivered      int
	Rejected       int
	Reassigned     int     // orders that switched vehicles at least once
	MeanPickupMin  float64 // placement -> pickup, delivered orders
	MeanDeliverMin float64
	// WithinPromise is the fraction of delivered orders whose delivery time
	// was within the promise (caller supplies the bound).
	WithinPromise float64
}

// Summarise computes the service summary; promiseSec is the delivery-time
// promise (the paper's 45 minutes).
func (r *Recorder) Summarise(promiseSec float64) Summary {
	var s Summary
	var pickupSum, deliverSum float64
	within := 0
	for _, tl := range r.Timelines() {
		s.Orders++
		if tl.Reassignments() > 0 {
			s.Reassigned++
		}
		if tl.RejectedAt > 0 {
			s.Rejected++
		}
		if tl.DeliveredAt > 0 {
			s.Delivered++
			d := tl.DeliveredAt - tl.PlacedAt
			deliverSum += d
			if tl.PickedUpAt > 0 {
				pickupSum += tl.PickedUpAt - tl.PlacedAt
			}
			if d <= promiseSec {
				within++
			}
		}
	}
	if s.Delivered > 0 {
		s.MeanPickupMin = pickupSum / float64(s.Delivered) / 60
		s.MeanDeliverMin = deliverSum / float64(s.Delivered) / 60
		s.WithinPromise = float64(within) / float64(s.Delivered)
	}
	return s
}
