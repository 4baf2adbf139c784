package pipeline

import (
	"context"
	"math"
	"testing"

	"repro/internal/foodgraph"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// gridCity builds an n×n grid, w seconds per hop.
func gridCity(n int, w float64) (*roadnet.Graph, roadnet.Router) {
	b := roadnet.NewBuilder()
	origin := geo.Point{Lat: 12.9, Lon: 77.5}
	id := func(r, c int) roadnet.NodeID { return roadnet.NodeID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddNode(geo.Offset(origin, float64(r)*250, float64(c)*250))
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				b.AddEdge(id(r, c), id(r, c+1), 250, w, 0)
				b.AddEdge(id(r, c+1), id(r, c), 250, w, 0)
			}
			if r+1 < n {
				b.AddEdge(id(r, c), id(r+1, c), 250, w, 0)
				b.AddEdge(id(r+1, c), id(r, c), 250, w, 0)
			}
		}
	}
	g := b.MustBuild()
	return g, roadnet.NewBoundedRouter(g, math.Inf(1))
}

func mkOrder(rt roadnet.Router, id model.OrderID, r, c roadnet.NodeID, prep float64) *model.Order {
	o := &model.Order{ID: id, Restaurant: r, Customer: c, PlacedAt: 0, Items: 1, Prep: prep, AssignedTo: -1}
	o.SDT = routing.SDT(rt, o)
	return o
}

func vehicleAt(id model.VehicleID, node roadnet.NodeID) *foodgraph.VehicleState {
	return &foodgraph.VehicleState{
		Vehicle: model.NewVehicle(id, node, 3),
		Node:    node,
		Dest:    roadnet.Invalid,
	}
}

func window(g *roadnet.Graph, rt roadnet.Router, orders []*model.Order, vehicles []*foodgraph.VehicleState) *Input {
	return &Input{G: g, Router: rt, Now: 0, Orders: orders, Vehicles: vehicles, Cfg: model.DefaultConfig()}
}

// checkAssignments validates the structural sanity of a pipeline's output.
func checkAssignments(t *testing.T, asg []Assignment) {
	t.Helper()
	seenOrder := make(map[model.OrderID]bool)
	seenVehicle := make(map[model.VehicleID]bool)
	for _, a := range asg {
		if seenVehicle[a.Vehicle.ID] {
			t.Fatalf("vehicle %d assigned twice in one window", a.Vehicle.ID)
		}
		seenVehicle[a.Vehicle.ID] = true
		if len(a.Orders) == 0 {
			t.Fatal("assignment with no orders")
		}
		for _, o := range a.Orders {
			if seenOrder[o.ID] {
				t.Fatalf("order %d assigned twice", o.ID)
			}
			seenOrder[o.ID] = true
		}
		if a.Plan.Empty() {
			t.Fatal("assignment with empty plan")
		}
		if err := a.Plan.Validate(); err != nil {
			t.Fatalf("invalid plan: %v", err)
		}
	}
}

func someOrders(rt roadnet.Router, n int) []*model.Order {
	var orders []*model.Order
	for i := 0; i < n; i++ {
		orders = append(orders, mkOrder(rt, model.OrderID(i+1),
			roadnet.NodeID(i*9%64), roadnet.NodeID((i*13+5)%64), 300))
	}
	return orders
}

// TestMixAndMatchCompositions runs several stage mixes over one window and
// checks each yields structurally valid assignments — the point of the
// composable API.
func TestMixAndMatchCompositions(t *testing.T) {
	g, rt := gridCity(8, 30)
	vehicles := []*foodgraph.VehicleState{vehicleAt(1, 0), vehicleAt(2, 63), vehicleAt(3, 32), vehicleAt(4, 7)}
	mixes := map[string]*Pipeline{
		"default-foodmatch": New(),
		"greedybatch+km": New(
			WithBatcher(GreedyBatcher{}),
			WithMatcher(&KMMatcher{}),
		),
		"cluster+greedymatch": New(
			WithSparsifier(nil),
			WithReshuffler(nil),
			WithMatcher(GreedyMatcher{}),
		),
		"singleton+km": New(
			WithBatcher(SingletonBatcher{}),
		),
		"samerest+haversine+replan": New(
			WithBatcher(SameRestaurantBatcher{}),
			WithSparsifier(HaversineSparsifier{}),
			WithReshuffler(nil),
			WithMatcher(ReyesMatcher{}),
		),
	}
	for name, p := range mixes {
		t.Run(name, func(t *testing.T) {
			in := window(g, rt, someOrders(rt, 6), vehicles)
			asg := p.Assign(context.Background(), in)
			if len(asg) == 0 {
				t.Fatal("no assignments")
			}
			checkAssignments(t, asg)
			st := p.LastStats()
			if st.Orders != 6 || st.Vehicles != 4 {
				t.Fatalf("stats sizes wrong: %+v", st)
			}
			if st.Batches == 0 {
				t.Fatalf("stats missed batch stage: %+v", st)
			}
			if st.Assigned == 0 {
				t.Fatalf("stats missed assignments: %+v", st)
			}
			if st.MatchSec < 0 || st.BatchSec < 0 {
				t.Fatalf("negative stage time: %+v", st)
			}
		})
	}
}

// TestPipelineContextCancellation: a cancelled context aborts before any
// stage runs.
func TestPipelineContextCancellation(t *testing.T) {
	g, rt := gridCity(8, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New()
	in := window(g, rt, someOrders(rt, 4), []*foodgraph.VehicleState{vehicleAt(1, 0)})
	if asg := p.Assign(ctx, in); asg != nil {
		t.Fatalf("cancelled context still assigned: %+v", asg)
	}
	if st := p.LastStats(); st.Batches != 0 {
		t.Fatalf("cancelled context ran stages: %+v", st)
	}
}

// TestPipelineReportsComposition pins Reshuffles/SingleOrderMode semantics:
// they derive from the composed stages, not hard-coded policy names.
func TestPipelineReportsComposition(t *testing.T) {
	cfg := model.DefaultConfig()
	full := New()
	if !full.Reshuffles() {
		t.Error("default composition must reshuffle")
	}
	if full.SingleOrderMode(cfg) {
		t.Error("batching on => capacity-based availability")
	}
	cfg2 := model.DefaultConfig()
	cfg2.Batching = false
	if !full.SingleOrderMode(cfg2) {
		t.Error("batching off => single-order mode (vanilla KM)")
	}
	bare := New(WithReshuffler(nil), WithSingleOrderWhen(nil))
	if bare.Reshuffles() {
		t.Error("nil reshuffler must not reshuffle")
	}
	// A reshuffler without a sparsifier can never adjust the graph: the
	// pipeline must not ask the window loop to strip pending orders it
	// cannot re-prioritise.
	if New(WithSparsifier(nil), WithMatcher(GreedyMatcher{})).Reshuffles() {
		t.Error("nil sparsifier must disable reshuffling even with a reshuffler installed")
	}
	if bare.SingleOrderMode(cfg2) {
		t.Error("nil predicate must never enter single-order mode")
	}
	if got := New(WithLabel("X")).Name(); got != "X" {
		t.Errorf("label = %q", got)
	}
}

// TestSameRestaurantBatcherGroups pins the Reyes batching restriction.
func TestSameRestaurantBatcherGroups(t *testing.T) {
	g, rt := gridCity(8, 30)
	orders := []*model.Order{
		mkOrder(rt, 1, 10, 50, 300),
		mkOrder(rt, 2, 10, 51, 300),
		mkOrder(rt, 3, 11, 52, 300),
	}
	in := window(g, rt, orders, nil)
	batches := SameRestaurantBatcher{}.Batch(context.Background(), in)
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (same-restaurant pair + singleton)", len(batches))
	}
	for _, b := range batches {
		rest := b.Orders[0].Restaurant
		for _, o := range b.Orders {
			if o.Restaurant != rest {
				t.Fatal("cross-restaurant batch")
			}
		}
		if b.FirstPickupNode() != rest {
			t.Fatal("straw plan must start at the shared restaurant")
		}
	}
}

// TestGreedyBatcherRespectsCapacity: joins stop at MAXO/MAXI and the join
// radius.
func TestGreedyBatcherRespectsCapacity(t *testing.T) {
	g, rt := gridCity(8, 30)
	var orders []*model.Order
	for i := 0; i < 7; i++ {
		orders = append(orders, mkOrder(rt, model.OrderID(i+1), 10, roadnet.NodeID(50+i), 600))
	}
	in := window(g, rt, orders, nil)
	batches := GreedyBatcher{}.Batch(context.Background(), in)
	covered := 0
	for _, b := range batches {
		if len(b.Orders) > in.Cfg.MaxO {
			t.Fatalf("batch of %d exceeds MAXO %d", len(b.Orders), in.Cfg.MaxO)
		}
		if b.Items() > in.Cfg.MaxI {
			t.Fatalf("batch items %d exceed MAXI %d", b.Items(), in.Cfg.MaxI)
		}
		covered += len(b.Orders)
	}
	if covered != len(orders) {
		t.Fatalf("batcher covered %d of %d orders", covered, len(orders))
	}
}

// TestStatsAccumulate checks the engine-side aggregation helper.
func TestStatsAccumulate(t *testing.T) {
	a := Stats{Orders: 2, Batches: 1, BatchSec: 0.5, MatchSec: 1, Assigned: 1, TrueEdges: 3}
	a.Accumulate(Stats{Orders: 3, Batches: 2, BatchSec: 0.25, SparsifySec: 2, Assigned: 2, TrueEdges: 4})
	if a.Orders != 5 || a.Batches != 3 || a.Assigned != 3 || a.TrueEdges != 7 {
		t.Fatalf("sizes wrong: %+v", a)
	}
	if a.BatchSec != 0.75 || a.SparsifySec != 2 || a.MatchSec != 1 {
		t.Fatalf("times wrong: %+v", a)
	}
	if got := a.TotalSec(); got != 3.75 {
		t.Fatalf("TotalSec = %v", got)
	}
}
