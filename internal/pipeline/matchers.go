package pipeline

import (
	"context"
	"math"

	"repro/internal/foodgraph"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/routing"
)

// IncumbentReshuffler applies the reshuffling weight adjustments of
// Section IV-D2 to the constructed graph, true edges only:
//
//  1. Priority tier: every order that already had a vehicle discounts its
//     batch's edges by a constant ≫ Ω. Serviceability is non-negotiable
//     (Section I); when batches outnumber vehicles the matching's leave-out
//     decision must fall on never-assigned orders, not strand one that had
//     a ride. Being a row constant, the discount never changes *which*
//     vehicle a covered batch gets.
//  2. Incumbent tie-break: an infinitesimal extra discount when the order
//     would stay on its previous vehicle, so equal-cost alternatives don't
//     churn assignments window after window.
type IncumbentReshuffler struct{}

// Name implements Reshuffler.
func (IncumbentReshuffler) Name() string { return "incumbent" }

// Adjust implements Reshuffler.
func (IncumbentReshuffler) Adjust(_ context.Context, in *Input, batches []*model.Batch, bp *foodgraph.Bipartite) {
	priority := 10 * in.Cfg.Omega
	for bi, b := range batches {
		for vj, vs := range in.Vehicles {
			if bp.Plan[bi][vj] == nil {
				continue
			}
			for _, o := range b.Orders {
				if prev, had := in.Incumbent[o.ID]; had {
					bp.Cost[bi][vj] -= priority
					if prev == vs.Vehicle.ID {
						bp.Cost[bi][vj] -= 0.001
					}
				}
			}
		}
	}
}

// KMMatcher is the paper's stage 4: minimum-weight perfect matching by
// Kuhn–Munkres over the constructed graph, emitting the graph's
// precomputed plans; Ω-weight matches mean "leave unassigned for the next
// window".
type KMMatcher struct {
	// PairObserver, when set, receives each matched (batch, vehicle) index
	// pair before its assignment is emitted (Fig. 4(a) instrumentation).
	PairObserver func(in *Input, batches []*model.Batch, bi, vj int)
}

// Name implements Matcher.
func (*KMMatcher) Name() string { return "kuhn-munkres" }

// Match implements Matcher.
func (m *KMMatcher) Match(_ context.Context, in *Input, batches []*model.Batch, bp *foodgraph.Bipartite) []Assignment {
	if bp == nil {
		return nil
	}
	mate := matching.Solve(bp.Cost)
	var out []Assignment
	for bi, vj := range mate {
		if vj < 0 || bp.Cost[bi][vj] >= in.Cfg.Omega || bp.Plan[bi][vj] == nil {
			continue
		}
		out = append(out, Assignment{
			Vehicle: in.Vehicles[vj].Vehicle,
			Orders:  batches[bi].Orders,
			Plan:    bp.Plan[bi][vj],
		})
		if m.PairObserver != nil {
			m.PairObserver(in, batches, bi, vj)
		}
	}
	return out
}

// ReyesMatcher completes the Reyes et al. [5] composition: Kuhn–Munkres
// over the Haversine cost graph, then — because that graph carries no
// executable plans — each matched batch is replanned on the true road
// network at emission. The *decision* stays distance-naive (exactly the
// deficiency Fig. 6(b) exposes); only execution is real.
type ReyesMatcher struct{}

// Name implements Matcher.
func (ReyesMatcher) Name() string { return "km+replan" }

// Match implements Matcher.
func (ReyesMatcher) Match(_ context.Context, in *Input, batches []*model.Batch, bp *foodgraph.Bipartite) []Assignment {
	if bp == nil {
		return nil
	}
	rt := in.Router
	mate := matching.Solve(bp.Cost)
	var out []Assignment
	for bi, vj := range mate {
		if vj < 0 {
			continue
		}
		vs := in.Vehicles[vj]
		// Execute on the real network: recompute the optimal plan with the
		// true shortest-path oracle.
		plan, _, ok := routing.MarginalCost(rt, vs.Node, in.Now, vs.Onboard, vs.Keep, batches[bi].Orders)
		if !ok {
			continue
		}
		out = append(out, Assignment{
			Vehicle: vs.Vehicle,
			Orders:  batches[bi].Orders,
			Plan:    plan,
		})
	}
	return out
}

// greedyWork tracks a vehicle's evolving workload during the greedy rounds.
type greedyWork struct {
	onboard []*model.Order
	pending []*model.Order
	items   int
	plan    *model.RoutePlan
	touched bool
}

// GreedyMatcher is the Section III baseline as a matcher stage: at each
// round it picks the unassigned batch–vehicle pair with the minimum
// marginal cost (Eq. 3) and assigns it, until no feasible pair remains. A
// vehicle may accumulate several batches across rounds (implicit batching,
// Example 5). It computes its own costs — compose it with a nil sparsifier
// (bp is ignored). Over singleton batches this is exactly the paper's
// Greedy; over clustered batches it greedily places whole batches.
type GreedyMatcher struct{}

// Name implements Matcher.
func (GreedyMatcher) Name() string { return "greedy" }

// Match implements Matcher.
func (GreedyMatcher) Match(ctx context.Context, in *Input, batches []*model.Batch, _ *foodgraph.Bipartite) []Assignment {
	cfg := in.Cfg
	rt := in.Router
	n := len(batches)
	m := len(in.Vehicles)
	if n == 0 || m == 0 {
		return nil
	}

	works := make([]*greedyWork, m)
	for j, vs := range in.Vehicles {
		w := &greedyWork{onboard: vs.Onboard, items: vs.BaseItems()}
		w.pending = append(w.pending, vs.Keep...)
		works[j] = w
	}

	// cost[i][j] is the cached mCost of batch i on vehicle j under the
	// vehicle's *current* workload; plans[i][j] the corresponding plan.
	// A column is recomputed after its vehicle wins an assignment.
	cost := make([][]float64, n)
	plans := make([][]*model.RoutePlan, n)
	assigned := make([]bool, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		plans[i] = make([]*model.RoutePlan, m)
	}

	compute := func(i, j int) {
		b := batches[i]
		vs := in.Vehicles[j]
		w := works[j]
		cost[i][j] = math.Inf(1)
		plans[i][j] = nil
		if len(w.onboard)+len(w.pending)+len(b.Orders) > cfg.MaxO {
			return
		}
		if w.items+b.Items() > cfg.MaxI {
			return
		}
		if fm := rt.Travel(vs.Node, b.FirstPickupNode(), in.Now); fm > cfg.MaxFirstMile {
			return
		}
		plan, mc, ok := routing.MarginalCost(rt, vs.Node, in.Now, w.onboard, w.pending, b.Orders)
		if !ok || mc >= cfg.Omega {
			return
		}
		cost[i][j] = mc
		plans[i][j] = plan
	}

	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			compute(i, j)
		}
	}

	for ctx.Err() == nil {
		// Find the global minimum pair.
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if cost[i][j] < best {
					best = cost[i][j]
					bi, bj = i, j
				}
			}
		}
		if bi < 0 {
			break
		}
		b := batches[bi]
		w := works[bj]
		assigned[bi] = true
		w.pending = append(w.pending, b.Orders...)
		w.items += b.Items()
		w.plan = plans[bi][bj]
		w.touched = true
		// The winning vehicle's workload changed: refresh its column.
		for i := 0; i < n; i++ {
			if !assigned[i] {
				compute(i, bj)
			}
		}
	}

	var out []Assignment
	for j, w := range works {
		if !w.touched {
			continue
		}
		newOrders := w.pending[len(in.Vehicles[j].Keep):]
		out = append(out, Assignment{
			Vehicle: in.Vehicles[j].Vehicle,
			Orders:  newOrders,
			Plan:    w.plan,
		})
	}
	return out
}

var (
	_ Reshuffler = IncumbentReshuffler{}
	_ Matcher    = (*KMMatcher)(nil)
	_ Matcher    = ReyesMatcher{}
	_ Matcher    = GreedyMatcher{}
)
