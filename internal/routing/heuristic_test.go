package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
)

func heuristicTestGraph() (*roadnet.Graph, roadnet.Router) {
	b := roadnet.NewBuilder()
	const n = 8
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddNode(geo.Point{Lat: float64(r) * 0.002, Lon: float64(c) * 0.002})
		}
	}
	id := func(r, c int) roadnet.NodeID { return roadnet.NodeID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				b.AddEdge(id(r, c), id(r, c+1), 200, 60, 0)
				b.AddEdge(id(r, c+1), id(r, c), 200, 60, 0)
			}
			if r+1 < n {
				b.AddEdge(id(r, c), id(r+1, c), 200, 60, 0)
				b.AddEdge(id(r+1, c), id(r, c), 200, 60, 0)
			}
		}
	}
	g := b.MustBuild()
	return g, roadnet.NewBoundedRouter(g, math.Inf(1))
}

func randomOrders(rng *rand.Rand, sp roadnet.Router, n int, picked bool) []*model.Order {
	var out []*model.Order
	for i := 0; i < n; i++ {
		o := &model.Order{
			ID:         model.OrderID(i + 1),
			Restaurant: roadnet.NodeID(rng.Intn(64)),
			Customer:   roadnet.NodeID(rng.Intn(64)),
			PlacedAt:   float64(rng.Intn(120)),
			Items:      1,
			Prep:       float64(rng.Intn(400)),
		}
		o.SDT = SDT(sp, o)
		if picked {
			o.State = model.OrderPickedUp
		}
		out = append(out, o)
	}
	return out
}

func TestHeuristicValidAndNearExactSmall(t *testing.T) {
	_, sp := heuristicTestGraph()
	rng := rand.New(rand.NewSource(19))
	worst := 1.0
	for trial := 0; trial < 50; trial++ {
		orders := randomOrders(rng, sp, 1+rng.Intn(3), false)
		start := roadnet.NodeID(rng.Intn(64))
		hp, hc, ok := OptimizeHeuristic(sp, start, 0, nil, orders)
		if !ok {
			t.Fatalf("trial %d: heuristic infeasible", trial)
		}
		if err := hp.Validate(); err != nil {
			t.Fatalf("trial %d: invalid heuristic plan: %v", trial, err)
		}
		_, ec, ok := Optimize(sp, start, 0, nil, orders)
		if !ok {
			t.Fatal("exact infeasible")
		}
		if hc < ec-1e-6 {
			t.Fatalf("trial %d: heuristic %v beat exact %v — exact is broken", trial, hc, ec)
		}
		// Compare via plan *makespans* proxy: allow 25% or 120 s slack.
		if hc > ec+math.Max(0.25*math.Abs(ec), 120) {
			worst = math.Max(worst, (hc+1)/(ec+1))
			t.Logf("trial %d: heuristic %v vs exact %v", trial, hc, ec)
		}
	}
	if worst > 2 {
		t.Fatalf("heuristic strayed %.2fx from exact", worst)
	}
}

func TestHeuristicLargeBatchValid(t *testing.T) {
	_, sp := heuristicTestGraph()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		onboard := randomOrders(rng, sp, rng.Intn(3), true)
		// Re-id to avoid collisions with pickups.
		for i, o := range onboard {
			o.ID = model.OrderID(100 + i)
		}
		orders := randomOrders(rng, sp, 5+rng.Intn(4), false) // sizes the exact planner is impractical for
		start := roadnet.NodeID(rng.Intn(64))
		plan, cost, ok := OptimizeHeuristic(sp, start, 0, onboard, orders)
		if !ok {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("trial %d: invalid plan: %v", trial, err)
		}
		if len(plan.Stops) != len(onboard)+2*len(orders) {
			t.Fatalf("trial %d: stop count %d", trial, len(plan.Stops))
		}
		// The reported cost must equal re-evaluation of the plan.
		rc, ok := Evaluate(sp, start, 0, plan)
		if !ok || math.Abs(rc-cost) > 1e-6 {
			t.Fatalf("trial %d: reported cost %v, re-evaluated %v", trial, cost, rc)
		}
	}
}

func TestHeuristicUnreachable(t *testing.T) {
	b := roadnet.NewBuilder()
	u := b.AddNode(geo.Point{})
	v := b.AddNode(geo.Point{Lat: 1})
	b.AddEdge(u, v, 10, 10, 0)
	g := b.MustBuild()
	sp := roadnet.NewBoundedRouter(g, math.Inf(1))
	o := &model.Order{ID: 1, Restaurant: v, Customer: u, PlacedAt: 0, Items: 1}
	if _, _, ok := OptimizeHeuristic(sp, u, 0, nil, []*model.Order{o}); ok {
		t.Fatal("unreachable instance accepted")
	}
	ob := &model.Order{ID: 2, Restaurant: u, Customer: u, PlacedAt: 0, Items: 1, State: model.OrderPickedUp}
	ob.Customer = v
	ob2 := &model.Order{ID: 3, Restaurant: v, Customer: u, PlacedAt: 0, Items: 1, State: model.OrderPickedUp}
	if _, _, ok := OptimizeHeuristic(sp, v, 0, []*model.Order{ob, ob2}, nil); ok {
		t.Fatal("unreachable onboard dropoff accepted")
	}
}
