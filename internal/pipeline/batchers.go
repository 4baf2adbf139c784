package pipeline

import (
	"context"
	"sort"

	"repro/internal/batching"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// SingletonBatches wraps each order in its own batch (used when batching is
// disabled). Orders whose own delivery leg is unreachable get an infeasible
// batch which no vehicle will accept.
func SingletonBatches(orders []*model.Order) []*model.Batch {
	batches := make([]*model.Batch, 0, len(orders))
	for _, o := range orders {
		plan := &model.RoutePlan{Stops: []model.Stop{
			{Node: o.Restaurant, Order: o, Kind: model.Pickup},
			{Node: o.Customer, Order: o, Kind: model.Dropoff},
		}}
		batches = append(batches, &model.Batch{Orders: []*model.Order{o}, Plan: plan})
	}
	return batches
}

// ClusterBatcher is the paper's stage 1: batching by iterative clustering of
// the order graph (Section IV-B, Algorithm 1), honouring the Config ablation
// switch — with cfg.Batching off it degrades to singleton batches, which is
// what turns the pipeline into the vanilla KM baseline.
type ClusterBatcher struct{}

// Name implements Batcher.
func (ClusterBatcher) Name() string { return "cluster" }

// Batch implements Batcher.
func (ClusterBatcher) Batch(_ context.Context, in *Input) []*model.Batch {
	cfg := in.Cfg
	if !cfg.Batching {
		return SingletonBatches(in.Orders)
	}
	res := batching.Run(in.Router, in.Orders, batching.Options{
		Eta:        cfg.Eta,
		AgeNeutral: cfg.AgeNeutralEdges,
		MaxO:       cfg.MaxO,
		MaxI:       cfg.MaxI,
		Radius:     cfg.BatchRadius,
		Now:        in.Now,
	})
	return res.Batches
}

// SingletonBatcher always produces one batch per order — no grouping at all.
type SingletonBatcher struct{}

// Name implements Batcher.
func (SingletonBatcher) Name() string { return "singleton" }

// Batch implements Batcher.
func (SingletonBatcher) Batch(_ context.Context, in *Input) []*model.Batch {
	return SingletonBatches(in.Orders)
}

// SameRestaurantBatcher groups orders exactly the way Reyes et al. [5] do:
// only orders from the same restaurant may share a batch, greedily filled in
// placement order up to the MAXO/MAXI capacity limits (the restriction the
// paper criticises in Section I-A).
type SameRestaurantBatcher struct{}

// Name implements Batcher.
func (SameRestaurantBatcher) Name() string { return "same-restaurant" }

// Batch implements Batcher.
func (SameRestaurantBatcher) Batch(_ context.Context, in *Input) []*model.Batch {
	cfg := in.Cfg
	byRest := make(map[roadnet.NodeID][]*model.Order)
	var restaurants []roadnet.NodeID
	for _, o := range in.Orders {
		if len(byRest[o.Restaurant]) == 0 {
			restaurants = append(restaurants, o.Restaurant)
		}
		byRest[o.Restaurant] = append(byRest[o.Restaurant], o)
	}
	sort.Slice(restaurants, func(a, b int) bool { return restaurants[a] < restaurants[b] })
	var batches []*model.Batch
	flush := func(cur []*model.Order) {
		if len(cur) == 0 {
			return
		}
		// All pickups share one restaurant; the straw plan (pickups then
		// dropoffs in order) is only used for FirstPickupNode — Reyes
		// replans on the true network at emission.
		plan := &model.RoutePlan{}
		for _, o := range cur {
			plan.Stops = append(plan.Stops, model.Stop{Node: o.Restaurant, Order: o, Kind: model.Pickup})
		}
		for _, o := range cur {
			plan.Stops = append(plan.Stops, model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff})
		}
		batches = append(batches, &model.Batch{Orders: cur, Plan: plan})
	}
	for _, r := range restaurants {
		orders := byRest[r]
		sort.Slice(orders, func(a, b int) bool { return orders[a].PlacedAt < orders[b].PlacedAt })
		var cur []*model.Order
		items := 0
		for _, o := range orders {
			if len(cur) >= cfg.MaxO || (len(cur) > 0 && items+o.Items > cfg.MaxI) {
				flush(cur)
				cur, items = nil, 0
			}
			cur = append(cur, o)
			items += o.Items
		}
		flush(cur)
	}
	return batches
}

// GreedyBatcher is a cheap alternative to ClusterBatcher: seed a batch with
// the earliest unbatched order, then repeatedly fold in the nearest
// unbatched order (network travel between first pickups) while the capacity
// limits and a join radius allow. No Eq. 5 merge-cost machinery — a single
// nearest-neighbour sweep, O(n²) distance lookups worst case — so batch
// quality is lower but the stage is fast and simple. Useful composed with
// KMMatcher when batching latency dominates a window.
type GreedyBatcher struct {
	// RadiusSec caps restaurant-to-restaurant travel for joining a batch;
	// 0 defaults to the config's BatchRadius.
	RadiusSec float64
}

// Name implements Batcher.
func (GreedyBatcher) Name() string { return "greedy" }

// Batch implements Batcher.
func (b GreedyBatcher) Batch(ctx context.Context, in *Input) []*model.Batch {
	cfg := in.Cfg
	rt := in.Router
	radius := b.RadiusSec
	if radius <= 0 {
		radius = cfg.BatchRadius
	}
	remaining := make([]*model.Order, len(in.Orders))
	copy(remaining, in.Orders)
	sort.SliceStable(remaining, func(i, j int) bool {
		return remaining[i].PlacedAt < remaining[j].PlacedAt
	})

	var batches []*model.Batch
	used := make([]bool, len(remaining))
	for seedIdx := range remaining {
		if used[seedIdx] {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		seed := remaining[seedIdx]
		used[seedIdx] = true
		group := []*model.Order{seed}
		items := seed.Items
		plan, cost, ok := routing.Optimize(rt, seed.Restaurant, in.Now, nil, group)
		if !ok {
			// Unreachable even alone: an infeasible singleton no vehicle
			// will accept.
			batches = append(batches, SingletonBatches(group)...)
			continue
		}
		for len(group) < cfg.MaxO {
			// Nearest unbatched order by network travel between restaurants.
			best, bestD := -1, radius
			for i := seedIdx + 1; i < len(remaining); i++ {
				o := remaining[i]
				if used[i] || items+o.Items > cfg.MaxI {
					continue
				}
				if d := rt.Travel(seed.Restaurant, o.Restaurant, in.Now); d <= bestD {
					best, bestD = i, d
				}
			}
			if best < 0 {
				break
			}
			// Accept the join only if a feasible combined plan exists,
			// keeping that plan so it is not recomputed at emission.
			cand := append(append([]*model.Order{}, group...), remaining[best])
			candPlan, candCost, candOK := routing.Optimize(rt, seed.Restaurant, in.Now, nil, cand)
			if !candOK {
				break
			}
			used[best] = true
			group = cand
			items += remaining[best].Items
			plan, cost = candPlan, candCost
		}
		batches = append(batches, &model.Batch{Orders: group, Plan: plan, Cost: cost})
	}
	return batches
}

var (
	_ Batcher = ClusterBatcher{}
	_ Batcher = SingletonBatcher{}
	_ Batcher = SameRestaurantBatcher{}
	_ Batcher = GreedyBatcher{}
)
