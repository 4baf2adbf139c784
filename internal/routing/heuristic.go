package routing

import (
	"math"

	"repro/internal/model"
	"repro/internal/roadnet"
)

// OptimizeHeuristic builds a route plan by cheapest insertion — orders are
// inserted one by one, each at the (pickup, dropoff) position pair that
// minimises the plan's ΣXDT — followed by a pairwise or-opt improvement
// pass that relocates single stops while preserving precedence. Quality is
// typically within a few percent of exact on MAXO≤4 instances (asserted
// under test) and the cost is polynomial, O(m³) plan evaluations.
func OptimizeHeuristic(rt roadnet.Router, start roadnet.NodeID, startTime float64, onboard, toPickup []*model.Order) (*model.RoutePlan, float64, bool) {
	stops := make([]model.Stop, 0, len(onboard)+2*len(toPickup))
	// Seed with onboard dropoffs in nearest-neighbour order.
	remaining := append([]*model.Order{}, onboard...)
	node := start
	t := startTime
	for len(remaining) > 0 {
		bi, bd := -1, math.Inf(1)
		for i, o := range remaining {
			if d := rt.Travel(node, o.Customer, t); d < bd {
				bd = d
				bi = i
			}
		}
		if bi < 0 || math.IsInf(bd, 1) {
			return nil, 0, false
		}
		o := remaining[bi]
		stops = append(stops, model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff})
		node = o.Customer
		t += bd
		remaining = append(remaining[:bi], remaining[bi+1:]...)
	}

	evalStops := func(ss []model.Stop) (float64, bool) {
		cost, _, ok := evaluate(rt, start, startTime, ss)
		return cost, ok
	}

	// Cheapest insertion of each new order's pickup+dropoff pair.
	for _, o := range toPickup {
		bestCost := math.Inf(1)
		var best []model.Stop
		for pi := 0; pi <= len(stops); pi++ {
			for di := pi; di <= len(stops); di++ {
				cand := make([]model.Stop, 0, len(stops)+2)
				cand = append(cand, stops[:pi]...)
				cand = append(cand, model.Stop{Node: o.Restaurant, Order: o, Kind: model.Pickup})
				cand = append(cand, stops[pi:di]...)
				cand = append(cand, model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff})
				cand = append(cand, stops[di:]...)
				if c, ok := evalStops(cand); ok && c < bestCost {
					bestCost = c
					best = cand
				}
			}
		}
		if best == nil {
			return nil, 0, false
		}
		stops = best
	}

	// Or-opt: relocate single stops to better positions until no move
	// improves. Precedence is preserved by bounding the target range.
	cost, ok := evalStops(stops)
	if !ok {
		return nil, 0, false
	}
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(stops); i++ {
			lo, hi := 0, len(stops)-1
			s := stops[i]
			// A pickup may not move past its dropoff; a dropoff not before
			// its pickup.
			for j, other := range stops {
				if other.Order.ID != s.Order.ID || j == i {
					continue
				}
				if s.Kind == model.Pickup {
					hi = min(hi, j-1)
				} else if other.Kind == model.Pickup {
					lo = max(lo, j+1)
				}
			}
			for pos := lo; pos <= hi; pos++ {
				if pos == i {
					continue
				}
				cand := relocate(stops, i, pos)
				if c, ok := evalStops(cand); ok && c < cost-1e-9 {
					stops = cand
					cost = c
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
	}
	return &model.RoutePlan{Stops: stops}, cost, true
}

// relocate moves stops[i] to index pos, shifting the rest.
func relocate(stops []model.Stop, i, pos int) []model.Stop {
	out := make([]model.Stop, 0, len(stops))
	s := stops[i]
	rest := append(append([]model.Stop{}, stops[:i]...), stops[i+1:]...)
	out = append(out, rest[:pos]...)
	out = append(out, s)
	out = append(out, rest[pos:]...)
	return out
}
