package pipeline

import (
	"context"
	"math"

	"repro/internal/foodgraph"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// BestFirstSparsifier is the paper's stage 2: FOODGRAPH construction via
// best-first search with angular distance (Section IV-C, Algorithm 2),
// honouring every Config ablation switch (BestFirst, Angular, Gamma, the
// k = KFactor·|O|/|V| degree bound). With BestFirst off it computes the full
// quadratic graph.
type BestFirstSparsifier struct{}

// Name implements GraphSparsifier.
func (BestFirstSparsifier) Name() string { return "best-first" }

// Sparsify implements GraphSparsifier.
func (BestFirstSparsifier) Sparsify(_ context.Context, in *Input, batches []*model.Batch) *foodgraph.Bipartite {
	cfg := in.Cfg
	k := foodgraph.KFor(cfg.KFactor, cfg.KMin, len(batches), len(in.Vehicles))
	return foodgraph.Build(in.G, in.Router, batches, in.Vehicles, foodgraph.Options{
		K:            k,
		Gamma:        cfg.Gamma,
		Angular:      cfg.Angular,
		BestFirst:    cfg.BestFirst,
		Omega:        cfg.Omega,
		MaxFirstMile: cfg.MaxFirstMile,
		MaxO:         cfg.MaxO,
		MaxI:         cfg.MaxI,
		Now:          in.Now,
		AgeNeutral:   cfg.AgeNeutralEdges,
	})
}

// HaversineSparsifier builds the batch×vehicle cost graph under the Reyes
// et al. [5] distance model: straight-line Haversine metres at an assumed
// constant speed, ignoring the road network (the first simplification the
// paper criticises in Section I-A). Costs are +Inf for infeasible pairs
// and NO plans are attached — it must be paired with a matcher that
// replans on the true network (ReyesMatcher). The plain KMMatcher drops
// every plan-less edge, so composing it with this sparsifier yields zero
// assignments each window.
type HaversineSparsifier struct {
	// SpeedMS is the assumed straight-line travel speed (m/s) used to turn
	// Haversine metres into seconds. Zero defaults to 8.33 m/s (30 km/h).
	SpeedMS float64
}

// Name implements GraphSparsifier.
func (HaversineSparsifier) Name() string { return "haversine" }

// Sparsify implements GraphSparsifier.
func (h HaversineSparsifier) Sparsify(_ context.Context, in *Input, batches []*model.Batch) *foodgraph.Bipartite {
	cfg := in.Cfg
	speed := h.SpeedMS
	if speed <= 0 {
		speed = 8.33
	}
	// Haversine pseudo-shortest-path: straight-line seconds between nodes.
	hsp := roadnet.SPFunc(func(from, to roadnet.NodeID, _ float64) float64 {
		return geo.Haversine(in.G.Point(from), in.G.Point(to)) / speed
	})

	nb, nv := len(batches), len(in.Vehicles)
	bp := &foodgraph.Bipartite{
		Cost: make([][]float64, nb),
		Plan: make([][]*model.RoutePlan, nb),
	}
	for i, b := range batches {
		bp.Cost[i] = make([]float64, nv)
		bp.Plan[i] = make([]*model.RoutePlan, nv)
		grp := b.Orders
		for j, vs := range in.Vehicles {
			bp.Cost[i][j] = math.Inf(1)
			if vs.BaseOrders()+len(grp) > cfg.MaxO {
				continue
			}
			if vs.BaseItems()+b.Items() > cfg.MaxI {
				continue
			}
			if hsp(vs.Node, grp[0].Restaurant, in.Now) > cfg.MaxFirstMile {
				continue
			}
			// Marginal cost in the Haversine world. SDTs cached on orders
			// are network-based; the decision rule only needs relative
			// costs, and constant offsets cancel inside the matching.
			_, mc, ok := routing.MarginalCost(hsp, vs.Node, in.Now, vs.Onboard, vs.Keep, grp)
			if !ok || mc >= cfg.Omega {
				continue
			}
			bp.Cost[i][j] = mc
			bp.TrueEdges++
		}
	}
	return bp
}

var (
	_ GraphSparsifier = BestFirstSparsifier{}
	_ GraphSparsifier = HaversineSparsifier{}
)
