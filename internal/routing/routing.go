// Package routing computes quickest route plans (Definition 3) and the cost
// semantics built on them: expected delivery time (Definition 5), shortest
// delivery time (Definition 6), extra delivery time (Definition 7), the
// aggregate Cost(v, O) of Eq. 4 and the marginal cost of Eq. 3 / Eq. 7.
//
// Because MAXO is small (3 for Swiggy), the number of feasible stop
// sequences is tiny and the paper's "try all permutations" strategy is
// exact and cheap; we add branch-and-bound pruning on the partial cost for
// good measure.
package routing

import (
	"math"

	"repro/internal/model"
	"repro/internal/roadnet"
)

// SDT computes the shortest delivery time oᵖ + SP(oʳ,oᶜ,oᵗ) (Definition 6).
func SDT(rt roadnet.Router, o *model.Order) float64 {
	return o.Prep + rt.Travel(o.Restaurant, o.Customer, o.PlacedAt)
}

// Evaluate simulates a route plan stop by stop, starting at `start` at time
// `startTime`, and returns the total extra delivery time of every order
// dropped off by the plan (Eq. 4 over the plan's orders).
//
// Semantics, matching Definitions 5–7: travel between consecutive stops
// takes SP(·,·,departure time); arriving at a restaurant before the food is
// ready (o.ReadyAt) blocks the vehicle until it is — that idle span is
// exactly the driver waiting time of the WT metric; the delivery time of an
// order is its dropoff clock time minus its placement time, and XDT
// subtracts the precomputed SDT.
//
// The second return value is false when any leg is unreachable (+Inf).
func Evaluate(rt roadnet.Router, start roadnet.NodeID, startTime float64, plan *model.RoutePlan) (float64, bool) {
	cost, _, ok := evaluate(rt, start, startTime, plan.Stops)
	return cost, ok
}

// EvaluateDetailed is Evaluate plus the per-order delivery instants and the
// total waiting time incurred at restaurants, used by tests and by the
// batching layer's diagnostics.
func EvaluateDetailed(rt roadnet.Router, start roadnet.NodeID, startTime float64, plan *model.RoutePlan) (cost, waitSec float64, dropTimes map[model.OrderID]float64, ok bool) {
	dropTimes = make(map[model.OrderID]float64, len(plan.Stops)/2)
	t := startTime
	node := start
	for _, s := range plan.Stops {
		leg := rt.Travel(node, s.Node, t)
		if math.IsInf(leg, 1) {
			return 0, 0, nil, false
		}
		t += leg
		node = s.Node
		switch s.Kind {
		case model.Pickup:
			if ready := s.Order.ReadyAt(); t < ready {
				waitSec += ready - t
				t = ready
			}
		case model.Dropoff:
			dropTimes[s.Order.ID] = t
			cost += t - s.Order.PlacedAt - s.Order.SDT
		}
	}
	return cost, waitSec, dropTimes, true
}

func evaluate(rt roadnet.Router, start roadnet.NodeID, startTime float64, stops []model.Stop) (cost, endTime float64, ok bool) {
	t := startTime
	node := start
	for _, s := range stops {
		leg := rt.Travel(node, s.Node, t)
		if math.IsInf(leg, 1) {
			return 0, 0, false
		}
		t += leg
		node = s.Node
		switch s.Kind {
		case model.Pickup:
			if ready := s.Order.ReadyAt(); t < ready {
				t = ready
			}
		case model.Dropoff:
			cost += t - s.Order.PlacedAt - s.Order.SDT
		}
	}
	return cost, t, true
}

// Optimize finds the quickest (minimum ΣXDT) route plan for a vehicle at
// `start` at `startTime` that drops off every order in `onboard` (already
// picked up — dropoff-only stops) and picks up and drops off every order in
// `toPickup`. Returns the plan and its cost, or ok=false when no feasible
// plan exists (some leg unreachable).
//
// It is one Search over a per-call LegTable: each distinct (stop, stop,
// slot) leg is asked of the router at most once.
func Optimize(rt roadnet.Router, start roadnet.NodeID, startTime float64, onboard, toPickup []*model.Order) (*model.RoutePlan, float64, bool) {
	if len(onboard)+len(toPickup) == 0 {
		return &model.RoutePlan{}, 0, true
	}
	s, cost, ok := quickest(rt, start, startTime, onboard, toPickup)
	defer s.release()
	if !ok {
		return nil, 0, false
	}
	return s.Plan(), cost, true
}

// quickest runs Optimize's search on a pooled Search, which the caller
// releases once it has read the plan (or not).
func quickest(rt roadnet.Router, start roadnet.NodeID, startTime float64, onboard, toPickup []*model.Order) (*Search, float64, bool) {
	s := acquire()
	at := s.number(start, onboard, toPickup)
	s.own.reset(rt, startTime)
	cost, ok := s.solve(at, startTime)
	return s, cost, ok
}

// Cost computes Cost(v, O) (Eq. 4): the total XDT of the vehicle's order set
// under its quickest route plan, with the vehicle at `start` at `startTime`.
// Returns +Inf when infeasible.
func Cost(rt roadnet.Router, start roadnet.NodeID, startTime float64, onboard, toPickup []*model.Order) float64 {
	if len(onboard)+len(toPickup) == 0 {
		return 0
	}
	s, cost, ok := quickest(rt, start, startTime, onboard, toPickup)
	s.release()
	if !ok {
		return math.Inf(1)
	}
	return cost
}

// MarginalCost computes mCost(π, v) (Eq. 3 generalised to batches, Eq. 7):
// the increase in total XDT when the orders `add` join a vehicle currently
// at `start` carrying `onboard` (picked up) and `pending` (assigned, not
// picked up). The base cost covers onboard+pending; the extended cost adds
// the batch. Returns the new optimal plan alongside; ok=false when the
// extended set is infeasible. Both searches read one leg table.
func MarginalCost(rt roadnet.Router, start roadnet.NodeID, startTime float64, onboard, pending, add []*model.Order) (*model.RoutePlan, float64, bool) {
	s := acquire()
	defer s.release()
	at := s.number(start, onboard, pending, add)
	s.own.reset(rt, startTime)

	extended := s.orders
	s.orders = extended[:len(pending)]
	base, ok := s.solve(at, startTime)
	if !ok {
		// The vehicle's existing workload is already unreachable (should not
		// happen on strongly connected networks); treat extension as
		// infeasible.
		return nil, 0, false
	}
	s.orders = extended
	total, ok := s.solve(at, startTime)
	if !ok {
		return nil, 0, false
	}
	return s.Plan(), total - base, true
}

// EDT computes the expected delivery time of a single order assigned to a
// vehicle at `start` (Definition 5) under the plan returned by Optimize for
// just that order: max(firstMile, prep-remaining) + lastMile, expressed as
// the dropoff instant minus placement time.
func EDT(rt roadnet.Router, start roadnet.NodeID, startTime float64, o *model.Order) float64 {
	_, _, drops, ok := EvaluateDetailed(rt, start, startTime, &model.RoutePlan{Stops: []model.Stop{
		{Node: o.Restaurant, Order: o, Kind: model.Pickup},
		{Node: o.Customer, Order: o, Kind: model.Dropoff},
	}})
	if !ok {
		return math.Inf(1)
	}
	return drops[o.ID] - o.PlacedAt
}
