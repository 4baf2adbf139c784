package policy

import (
	"context"
	"math"
	"testing"

	"repro/internal/foodgraph"
	"repro/internal/geo"
	"repro/internal/matching"
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

func mkOrder(sp roadnet.Router, id model.OrderID, r, c roadnet.NodeID, prep float64) *model.Order {
	o := &model.Order{ID: id, Restaurant: r, Customer: c, PlacedAt: 0, Items: 1, Prep: prep, AssignedTo: -1}
	o.SDT = routing.SDT(sp, o)
	return o
}

func vehicleAt(id model.VehicleID, node roadnet.NodeID) *foodgraph.VehicleState {
	return &foodgraph.VehicleState{
		Vehicle: model.NewVehicle(id, node, 3),
		Node:    node,
		Dest:    roadnet.Invalid,
	}
}

func windowInput(g *roadnet.Graph, sp roadnet.Router, orders []*model.Order, vehicles []*foodgraph.VehicleState) *WindowInput {
	return &WindowInput{G: g, Router: sp, Now: 0, Orders: orders, Vehicles: vehicles, Cfg: model.DefaultConfig()}
}

// checkAssignments validates the structural sanity of a policy's output.
func checkAssignments(t *testing.T, in *WindowInput, asg []Assignment) {
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
		// The plan must cover every newly assigned order.
		covered := make(map[model.OrderID]bool)
		for _, s := range a.Plan.Stops {
			covered[s.Order.ID] = true
		}
		for _, o := range a.Orders {
			if !covered[o.ID] {
				t.Fatalf("plan does not cover assigned order %d", o.ID)
			}
		}
	}
}

func TestFoodMatchAssignsAll(t *testing.T) {
	g, sp := gridCity(8, 30)
	orders := []*model.Order{
		mkOrder(sp, 1, 10, 50, 300),
		mkOrder(sp, 2, 11, 51, 300),
		mkOrder(sp, 3, 40, 20, 300),
	}
	vehicles := []*foodgraph.VehicleState{vehicleAt(1, 0), vehicleAt(2, 63), vehicleAt(3, 32)}
	in := windowInput(g, sp, orders, vehicles)
	asg := NewFoodMatch().Assign(context.Background(), in)
	checkAssignments(t, in, asg)
	total := 0
	for _, a := range asg {
		total += len(a.Orders)
	}
	if total != 3 {
		t.Fatalf("assigned %d of 3 orders", total)
	}
}

func TestFoodMatchEmptyInputs(t *testing.T) {
	g, sp := gridCity(4, 30)
	p := NewFoodMatch()
	if asg := p.Assign(context.Background(), windowInput(g, sp, nil, []*foodgraph.VehicleState{vehicleAt(1, 0)})); asg != nil {
		t.Fatal("no orders must yield no assignments")
	}
	o := mkOrder(sp, 1, 1, 2, 60)
	if asg := p.Assign(context.Background(), windowInput(g, sp, []*model.Order{o}, nil)); asg != nil {
		t.Fatal("no vehicles must yield no assignments")
	}
}

func TestFoodMatchBeatsGreedyOnCraftedInstance(t *testing.T) {
	// Classic greedy trap: two orders, two vehicles. Greedy gives the
	// shared best vehicle to the wrong order.
	g, sp := gridCity(10, 60)
	// Order A: restaurant at node 5, instant prep — cares a lot about
	// first mile. Order B: restaurant at node 9, long prep — tolerant.
	oa := mkOrder(sp, 1, 5, 25, 0)
	ob := mkOrder(sp, 2, 9, 29, 900)
	// Vehicle 1 at node 4 (next to both-ish), vehicle 2 at node 0 (far).
	v1 := vehicleAt(1, 4)
	v2 := vehicleAt(2, 0)
	in := windowInput(g, sp, []*model.Order{oa, ob}, []*foodgraph.VehicleState{v1, v2})

	costOf := func(asg []Assignment) float64 {
		total := 0.0
		for _, a := range asg {
			c, ok := routing.Evaluate(sp, a.Vehicle.Node, 0, a.Plan)
			if !ok {
				t.Fatal("infeasible plan")
			}
			total += c
		}
		return total
	}
	gw := costOf(NewGreedy().Assign(context.Background(), in))
	fm := costOf(NewFoodMatch().Assign(context.Background(), in))
	if fm > gw+1e-9 {
		t.Fatalf("FoodMatch total XDT %v exceeds Greedy %v", fm, gw)
	}
}

func TestGreedyImplicitBatching(t *testing.T) {
	// One vehicle, two cheap same-area orders: greedy stacks both on it
	// across iterations (Example 5 behaviour).
	g, sp := gridCity(8, 30)
	o1 := mkOrder(sp, 1, 10, 11, 600)
	o2 := mkOrder(sp, 2, 10, 12, 600)
	v := vehicleAt(1, 2)
	in := windowInput(g, sp, []*model.Order{o1, o2}, []*foodgraph.VehicleState{v})
	asg := NewGreedy().Assign(context.Background(), in)
	checkAssignments(t, in, asg)
	if len(asg) != 1 || len(asg[0].Orders) != 2 {
		t.Fatalf("greedy should stack both orders on the single vehicle: %+v", asg)
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	g, sp := gridCity(8, 30)
	var orders []*model.Order
	for i := 0; i < 6; i++ {
		orders = append(orders, mkOrder(sp, model.OrderID(i+1), 10, roadnet.NodeID(11+i), 600))
	}
	v := vehicleAt(1, 2)
	in := windowInput(g, sp, orders, []*foodgraph.VehicleState{v})
	asg := NewGreedy().Assign(context.Background(), in)
	checkAssignments(t, in, asg)
	if len(asg) == 1 && len(asg[0].Orders) > in.Cfg.MaxO {
		t.Fatalf("greedy exceeded MAXO: %d orders", len(asg[0].Orders))
	}
}

func TestGreedyHonoursFirstMileCap(t *testing.T) {
	g, sp := gridCity(10, 1000)
	o := mkOrder(sp, 1, 99, 88, 60) // far corner
	v := vehicleAt(1, 0)
	in := windowInput(g, sp, []*model.Order{o}, []*foodgraph.VehicleState{v})
	in.Cfg.MaxFirstMile = 2700
	if asg := NewGreedy().Assign(context.Background(), in); len(asg) != 0 {
		t.Fatal("greedy assigned beyond the 45-minute first mile")
	}
}

func TestReyesSameRestaurantBatchingOnly(t *testing.T) {
	g, sp := gridCity(8, 30)
	// Two adjacent-but-different restaurants: Reyes must NOT batch them.
	o1 := mkOrder(sp, 1, 10, 50, 300)
	o2 := mkOrder(sp, 2, 11, 51, 300)
	// Two same-restaurant orders: Reyes batches them.
	o3 := mkOrder(sp, 3, 20, 52, 300)
	o4 := mkOrder(sp, 4, 20, 53, 300)
	vehicles := []*foodgraph.VehicleState{vehicleAt(1, 0), vehicleAt(2, 63), vehicleAt(3, 32)}
	in := windowInput(g, sp, []*model.Order{o1, o2, o3, o4}, vehicles)
	asg := NewReyes().Assign(context.Background(), in)
	checkAssignments(t, in, asg)
	byVehicle := make(map[model.VehicleID][]model.OrderID)
	for _, a := range asg {
		for _, o := range a.Orders {
			byVehicle[a.Vehicle.ID] = append(byVehicle[a.Vehicle.ID], o.ID)
		}
	}
	for vid, ids := range byVehicle {
		if len(ids) < 2 {
			continue
		}
		// Any multi-order assignment must be single-restaurant.
		rest := make(map[roadnet.NodeID]bool)
		for _, id := range ids {
			for _, o := range in.Orders {
				if o.ID == id {
					rest[o.Restaurant] = true
				}
			}
		}
		if len(rest) > 1 {
			t.Fatalf("vehicle %d batched orders from %d restaurants", vid, len(rest))
		}
	}
}

func TestRankObserver(t *testing.T) {
	g, sp := gridCity(8, 30)
	var ranks []float64
	p := &FoodMatch{RankObserver: func(r float64) { ranks = append(ranks, r) }}
	var orders []*model.Order
	for i := 0; i < 6; i++ {
		orders = append(orders, mkOrder(sp, model.OrderID(i+1),
			roadnet.NodeID(i*9%64), roadnet.NodeID((i*13+5)%64), 300))
	}
	vehicles := []*foodgraph.VehicleState{vehicleAt(1, 0), vehicleAt(2, 63), vehicleAt(3, 32), vehicleAt(4, 7)}
	in := windowInput(g, sp, orders, vehicles)
	asg := p.Assign(context.Background(), in)
	if len(asg) == 0 {
		t.Fatal("no assignments")
	}
	if len(ranks) != len(asg) {
		t.Fatalf("observer fired %d times for %d assignments", len(ranks), len(asg))
	}
	for _, r := range ranks {
		if r < 0 || r > 100 {
			t.Fatalf("rank %v outside [0,100]", r)
		}
	}
}

func TestVanillaKMNoBatchingNoBFS(t *testing.T) {
	g, sp := gridCity(8, 30)
	cfg := ConfigureVanillaKM(model.DefaultConfig())
	o1 := mkOrder(sp, 1, 10, 50, 300)
	o2 := mkOrder(sp, 2, 10, 51, 300)
	in := windowInput(g, sp, []*model.Order{o1, o2}, []*foodgraph.VehicleState{vehicleAt(1, 0)})
	in.Cfg = cfg
	asg := NewVanillaKM().Assign(context.Background(), in)
	checkAssignments(t, in, asg)
	// One vehicle, no batching: exactly one order assigned.
	if len(asg) != 1 || len(asg[0].Orders) != 1 {
		t.Fatalf("vanilla KM should assign exactly one singleton, got %+v", asg)
	}
}

func TestPolicyNames(t *testing.T) {
	if NewFoodMatch().Name() != "FoodMatch" {
		t.Error("FoodMatch name")
	}
	if NewVanillaKM().Name() != "KM" {
		t.Error("KM label")
	}
	if NewGreedy().Name() != "Greedy" {
		t.Error("Greedy name")
	}
	if NewReyes().Name() != "Reyes" {
		t.Error("Reyes name")
	}
	if !NewFoodMatch().Reshuffles() || NewGreedy().Reshuffles() || NewReyes().Reshuffles() {
		t.Error("reshuffle flags wrong")
	}
}

// TestGreedyMatchesPaperExampleCosts rebuilds the Fig. 1 instance and
// checks Greedy's characteristic first move: the zero-marginal-cost pair
// (o2, v2) is taken first.
func TestGreedyMatchesPaperExampleCosts(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode(geo.Point{Lat: float64(i) * 0.01})
	}
	und := func(u, v roadnet.NodeID, w float64) {
		b.AddEdge(u, v, w*500, w, 0)
		b.AddEdge(v, u, w*500, w, 0)
	}
	und(0, 1, 8)
	und(0, 4, 5)
	und(1, 2, 5)
	und(1, 3, 6)
	und(2, 6, 8)
	und(3, 4, 3)
	und(3, 5, 4)
	und(4, 5, 7)
	und(5, 8, 7)
	und(6, 8, 5)
	und(6, 7, 12)
	und(7, 8, 3)
	und(7, 9, 3)
	und(8, 9, 2)
	g := b.MustBuild()
	sp := roadnet.NewBoundedRouter(g, math.Inf(1))

	o2 := mkOrder(sp, 2, 5, 8, 5) // restaurant u6, customer u9, prep 5
	v2 := vehicleAt(2, 3)         // at u4
	_, mc, ok := routing.MarginalCost(sp, v2.Node, 0, nil, nil, []*model.Order{o2})
	if !ok || mc != 0 {
		t.Fatalf("mCost(o2,v2) = %v, want 0 (Example 5)", mc)
	}
}

// TestMatchingBeatsGreedyGlobally reproduces the paper's Section III/IV
// claim on the Fig. 2 cost structure: KM total 5 < greedy total 6.
func TestMatchingBeatsGreedyGlobally(t *testing.T) {
	cost := [][]float64{
		{3, 1, 7},
		{17, 0, 1},
		{3, 5, 7},
	}
	mate := matching.Solve(cost)
	km := matching.TotalCost(cost, mate)

	// Greedy on the same matrix: repeatedly take the global min pair.
	usedR := make([]bool, 3)
	usedC := make([]bool, 3)
	greedy := 0.0
	for it := 0; it < 3; it++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if !usedR[i] && !usedC[j] && cost[i][j] < best {
					best = cost[i][j]
					bi, bj = i, j
				}
			}
		}
		usedR[bi], usedC[bj] = true, true
		greedy += best
	}
	if km >= greedy {
		t.Fatalf("KM %v should beat greedy %v on the crafted matrix", km, greedy)
	}
}
