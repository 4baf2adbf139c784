// Package sim is the movement model and the paper's evaluation metrics: the
// Mover drives each vehicle continuously along its route plan — edge by
// edge, each edge traversed at the β(e,t) of its entry time — handling
// restaurant waits (food not ready), pickups and dropoffs; Metrics
// aggregates what Section V reports; window.go holds the apply helpers of
// the assignment round. The round itself — online and offline — lives in
// internal/engine.
package sim

import (
	"math"

	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// Motion tracks one vehicle's progress along its route plan: the residual
// node path of the current leg and how far along the current edge the
// vehicle is.
type Motion struct {
	V *model.Vehicle
	// path holds the remaining nodes of the current leg; path[0] is the node
	// currently being driven towards.
	path []roadnet.NodeID
	// edgeRemaining/edgeTotal/edgeLenM describe progress on the edge
	// V.Node -> path[0]; edgeFrom/edgeEnterT record where and when the
	// vehicle entered it (for the Edge hook's traversal report).
	edgeRemaining float64
	edgeTotal     float64
	edgeLenM      float64
	edgeFrom      roadnet.NodeID
	edgeEnterT    float64
}

// NewMotion wraps a vehicle in a fresh (parked) movement state.
func NewMotion(v *model.Vehicle) *Motion { return &Motion{V: v} }

// NextNode returns the node the vehicle is currently heading towards
// (roadnet.Invalid when idle) — the `dest` of the angular-distance model.
func (mo *Motion) NextNode() roadnet.NodeID {
	if len(mo.path) > 0 {
		return mo.path[0]
	}
	if mo.V.Plan != nil && !mo.V.Plan.Empty() {
		return mo.V.Plan.Stops[0].Node
	}
	return roadnet.Invalid
}

// MidEdge reports whether the vehicle is partway along a road segment.
func (mo *Motion) MidEdge() bool { return mo.edgeRemaining > 0 && len(mo.path) > 0 }

// MoveHooks receives the side effects of vehicle movement. Nil funcs are
// skipped; the callbacks run on whatever goroutine calls Mover.Advance.
type MoveHooks struct {
	// Wait is called when a vehicle idles at a restaurant for sec seconds
	// starting at time t (food not ready).
	Wait func(v *model.Vehicle, sec, t float64)
	// Deliver is called when an order is dropped off at time t.
	Deliver func(o *model.Order, v *model.Vehicle, t float64)
	// Distance is called when a vehicle accrues meters driven while
	// carrying `load` onboard orders, ending at time t.
	Distance func(v *model.Vehicle, meters float64, load int, t float64)
	// Strand is called when an order's route became unreachable and the
	// order was abandoned.
	Strand func(o *model.Order)
	// Edge is called when a vehicle finishes traversing a road segment
	// from -> to, entered at tEnter and taking sec seconds of simulated
	// time. This is the movement plane's GPS analogue — a perfectly
	// map-matched trajectory segment — and is what feeds the online speed
	// learner of the dynamic road network.
	Edge func(v *model.Vehicle, from, to roadnet.NodeID, tEnter, sec float64)
}

// Mover advances vehicles through simulated time on a road network: it
// drives the current leg edge by edge (each edge traversed at the β(e,t) of
// its entry time), waits at restaurants when food is not ready, picks up and
// drops off.
//
// A Mover is stateless apart from its configuration; concurrent Advance
// calls on *distinct* Motions are safe as long as the hooks and trace sink
// are safe.
type Mover struct {
	G     *roadnet.Graph
	Trace trace.Sink
	Hooks MoveHooks
}

// NewMover builds a mover over g emitting to sink (nil = discard).
func NewMover(g *roadnet.Graph, sink trace.Sink) *Mover {
	if sink == nil {
		sink = trace.Discard
	}
	return &Mover{G: g, Trace: sink}
}

// Advance moves one vehicle through simulated time [t0, t1).
func (m *Mover) Advance(mo *Motion, t0, t1 float64) {
	v := mo.V
	t := t0
	for t < t1 {
		if v.Plan.Empty() {
			return // idle: vehicles park in place
		}
		stop := v.Plan.Stops[0]

		// At the stop node with no residual path: service the stop.
		if v.Node == stop.Node && len(mo.path) == 0 {
			var done bool
			t, done = m.serviceStop(mo, stop, t, t1)
			if !done {
				return // waiting for food past the window boundary
			}
			continue
		}

		// Need a path for the current leg?
		if len(mo.path) == 0 {
			p := roadnet.Path(m.G, v.Node, stop.Node, t)
			if p == nil {
				// The stop became unreachable (pathological graphs /
				// failure injection): abandon the stop.
				m.abandonStop(mo, stop)
				continue
			}
			mo.path = append(mo.path[:0], p.Nodes[1:]...)
			mo.edgeRemaining = 0
		}

		// Ensure the current edge is initialised.
		if mo.edgeRemaining <= 0 {
			if len(mo.path) == 0 {
				continue // already at stop node; loop back to service it
			}
			e, ok := edgeBetween(m.G, v.Node, mo.path[0])
			if !ok {
				// Path invalidated (cannot happen on immutable graphs, but
				// guard anyway): recompute next iteration.
				mo.path = nil
				continue
			}
			mo.edgeTotal = m.G.EdgeTime(e, t)
			mo.edgeRemaining = mo.edgeTotal
			mo.edgeLenM = float64(e.LenM)
			mo.edgeFrom = v.Node
			mo.edgeEnterT = t
			v.EdgeTo = mo.path[0]
		}

		// Drive as much of the edge as the window allows.
		dt := t1 - t
		if mo.edgeRemaining <= dt {
			t += mo.edgeRemaining
			m.accrueDistance(v, mo.edgeLenM*mo.edgeRemaining/mo.edgeTotal, t)
			v.Node = mo.path[0]
			mo.path = mo.path[1:]
			mo.edgeRemaining = 0
			v.EdgeTo = roadnet.Invalid
			v.EdgeProgress = 0
			if m.Hooks.Edge != nil {
				// Report the time spent *driving* the segment (edgeTotal),
				// not t-edgeEnterT: a reshuffle can freeze a vehicle
				// mid-edge with an empty plan, and the idle gap until its
				// next assignment is not traffic. The slot is attributed at
				// entry, matching the β(e, t) the edge was priced at.
				m.Hooks.Edge(v, mo.edgeFrom, v.Node, mo.edgeEnterT, mo.edgeTotal)
			}
		} else {
			m.accrueDistance(v, mo.edgeLenM*dt/mo.edgeTotal, t1)
			mo.edgeRemaining -= dt
			v.EdgeProgress = mo.edgeTotal - mo.edgeRemaining
			t = t1
		}
	}
}

// SetPlan replaces the vehicle's route plan. A vehicle mid-edge finishes
// that road segment before rerouting (it cannot teleport back to the
// segment's start); resetting its progress every window would systematically
// slow every reshuffled vehicle.
func (m *Mover) SetPlan(mo *Motion, plan *model.RoutePlan) {
	v := mo.V
	v.Plan = plan.Clone()
	if mo.MidEdge() {
		// Keep only the in-progress edge; the leg to the new first stop is
		// recomputed from its far end.
		mo.path = mo.path[:1]
		v.EdgeTo = mo.path[0]
	} else {
		mo.path = nil
		mo.edgeRemaining = 0
		mo.edgeTotal = 0
		mo.edgeLenM = 0
		v.EdgeTo = roadnet.Invalid
		v.EdgeProgress = 0
	}
}

// Relocate teleports an idle vehicle to a node (GPS ping snap). It refuses
// to move a vehicle that has a live plan — position then comes from
// movement, not pings — and resets any stale edge progress.
func (m *Mover) Relocate(mo *Motion, node roadnet.NodeID) bool {
	v := mo.V
	if !v.Plan.Empty() || len(mo.path) > 0 {
		return false
	}
	v.Node = node
	v.EdgeTo = roadnet.Invalid
	v.EdgeProgress = 0
	mo.edgeRemaining = 0
	mo.edgeTotal = 0
	mo.edgeLenM = 0
	return true
}

// serviceStop handles a pickup or dropoff at the current node. It returns
// the advanced clock and whether the stop completed (false: still waiting
// for food at the window boundary).
func (m *Mover) serviceStop(mo *Motion, stop model.Stop, t, t1 float64) (float64, bool) {
	v := mo.V
	o := stop.Order
	switch stop.Kind {
	case model.Pickup:
		if o.State != model.OrderAssigned || o.AssignedTo != v.ID {
			// The order was reshuffled away or rejected after this plan was
			// made; skip the stale stop.
			popStop(v)
			return t, true
		}
		ready := o.ReadyAt()
		if t < ready {
			wait := math.Min(ready, t1) - t
			v.WaitSec += wait
			if m.Hooks.Wait != nil {
				m.Hooks.Wait(v, wait, t)
			}
			if ready > t1 {
				return t1, false
			}
			t = ready
		}
		o.State = model.OrderPickedUp
		o.PickedUpAt = t
		removeOrder(&v.Pending, o.ID)
		v.Onboard = append(v.Onboard, o)
		popStop(v)
		m.Trace.Emit(trace.Event{Kind: trace.OrderPickedUp, T: t, Order: o.ID, Vehicle: v.ID})
		return t, true

	case model.Dropoff:
		if o.State != model.OrderPickedUp || o.AssignedTo != v.ID {
			popStop(v)
			return t, true
		}
		o.State = model.OrderDelivered
		o.DeliveredAt = t
		removeOrder(&v.Onboard, o.ID)
		popStop(v)
		if m.Hooks.Deliver != nil {
			m.Hooks.Deliver(o, v, t)
		}
		m.Trace.Emit(trace.Event{Kind: trace.OrderDelivered, T: t, Order: o.ID, Vehicle: v.ID})
		return t, true
	}
	popStop(v)
	return t, true
}

// abandonStop drops an unreachable stop, stranding its order when that was
// the order's only delivery hope.
func (m *Mover) abandonStop(mo *Motion, stop model.Stop) {
	v := mo.V
	o := stop.Order
	popStop(v)
	switch stop.Kind {
	case model.Pickup:
		removeOrder(&v.Pending, o.ID)
		// Also remove the matching dropoff from the plan.
		if v.Plan != nil {
			stops := v.Plan.Stops[:0]
			for _, st := range v.Plan.Stops {
				if st.Order.ID != o.ID {
					stops = append(stops, st)
				}
			}
			v.Plan.Stops = stops
		}
		o.State = model.OrderRejected
		o.AssignedTo = -1
		if m.Hooks.Strand != nil {
			m.Hooks.Strand(o)
		}
	case model.Dropoff:
		removeOrder(&v.Onboard, o.ID)
		o.State = model.OrderRejected
		if m.Hooks.Strand != nil {
			m.Hooks.Strand(o)
		}
	}
	mo.path = nil
	mo.edgeRemaining = 0
}

func popStop(v *model.Vehicle) {
	v.Plan.Stops = v.Plan.Stops[1:]
}

// accrueDistance books metres driven at the vehicle's current load.
func (m *Mover) accrueDistance(v *model.Vehicle, meters, t float64) {
	if meters <= 0 {
		return
	}
	load := len(v.Onboard)
	if load >= len(v.DistByLoad) {
		load = len(v.DistByLoad) - 1
	}
	v.DistM += meters
	v.DistByLoad[load] += meters
	if m.Hooks.Distance != nil {
		m.Hooks.Distance(v, meters, load, t)
	}
}

// edgeBetween finds the cheapest edge u -> w (parallel edges resolved by
// free-flow time).
func edgeBetween(g *roadnet.Graph, u, w roadnet.NodeID) (roadnet.Edge, bool) {
	var best roadnet.Edge
	found := false
	for _, e := range g.OutEdges(u) {
		if e.To == w && (!found || e.BaseSec < best.BaseSec) {
			best = e
			found = true
		}
	}
	return best, found
}

func removeOrder(list *[]*model.Order, id model.OrderID) {
	ls := *list
	for i, o := range ls {
		if o.ID == id {
			*list = append(ls[:i], ls[i+1:]...)
			return
		}
	}
}
