package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
)

// paperGraph reproduces Fig. 1 (0-indexed nodes u1..u10 -> 0..9, weights in
// "minutes" treated as seconds for convenience).
func paperGraph(t testing.TB) (*roadnet.Graph, roadnet.Router) {
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
	return g, roadnet.NewBoundedRouter(g, math.Inf(1))
}

// order1 is o1 of the paper: restaurant u2 (1), customer u7 (6), prep 5.
func order1(sp roadnet.Router) *model.Order {
	o := &model.Order{ID: 1, Restaurant: 1, Customer: 6, PlacedAt: 0, Items: 1, Prep: 5}
	o.SDT = SDT(sp, o)
	return o
}

// order2 is o2: restaurant u6 (5), customer u9 (8), prep 5.
func order2(sp roadnet.Router) *model.Order {
	o := &model.Order{ID: 2, Restaurant: 5, Customer: 8, PlacedAt: 0, Items: 1, Prep: 5}
	o.SDT = SDT(sp, o)
	return o
}

// order3 is o3: restaurant u3 (2), customer u8 (7), prep 10.
func order3(sp roadnet.Router) *model.Order {
	o := &model.Order{ID: 3, Restaurant: 2, Customer: 7, PlacedAt: 0, Items: 1, Prep: 10}
	o.SDT = SDT(sp, o)
	return o
}

func TestSDTPaperExample(t *testing.T) {
	_, sp := paperGraph(t)
	o1 := order1(sp)
	// SDT(o1) = prep 5 + SP(u2,u7) = 5 + 13 = 18.
	if o1.SDT != 18 {
		t.Fatalf("SDT(o1) = %v, want 18", o1.SDT)
	}
	o2 := order2(sp)
	// SDT(o2) = 5 + SP(u6,u9)=7 → 12.
	if o2.SDT != 12 {
		t.Fatalf("SDT(o2) = %v, want 12", o2.SDT)
	}
}

func TestEDTExample2(t *testing.T) {
	_, sp := paperGraph(t)
	// Example 2: v1 at u1 assigned o1. EDT = max{8,5} + 13 = 21.
	o1 := order1(sp)
	if got := EDT(sp, 0, 0, o1); got != 21 {
		t.Fatalf("EDT(o1,v1) = %v, want 21", got)
	}
	// v2 at u4 assigned o2: quickest plan u4->u6->u9, EDT = max{4,5}+7 = 12.
	o2 := order2(sp)
	if got := EDT(sp, 3, 0, o2); got != 12 {
		t.Fatalf("EDT(o2,v2) = %v, want 12", got)
	}
}

func TestXDTExample3(t *testing.T) {
	_, sp := paperGraph(t)
	o1, o2 := order1(sp), order2(sp)
	// Example 3: XDT(o1,v1)=3, XDT(o2,v2)=0.
	if got := Cost(sp, 0, 0, nil, []*model.Order{o1}); got != 3 {
		t.Fatalf("Cost(v1,{o1}) = %v, want 3", got)
	}
	if got := Cost(sp, 3, 0, nil, []*model.Order{o2}); got != 0 {
		t.Fatalf("Cost(v2,{o2}) = %v, want 0", got)
	}
}

func TestMarginalCostExample4(t *testing.T) {
	_, sp := paperGraph(t)
	o1 := order1(sp)
	// Example 4: mCost(o1, v1) = 3 with empty vehicle.
	_, mc, ok := MarginalCost(sp, 0, 0, nil, nil, []*model.Order{o1})
	if !ok || mc != 3 {
		t.Fatalf("mCost(o1,v1) = %v (ok=%v), want 3", mc, ok)
	}
}

func TestGreedyExample5Batching(t *testing.T) {
	_, sp := paperGraph(t)
	o1, o3 := order1(sp), order3(sp)
	// Example 5: after assigning o1 to v1 (cost 3), adding o3 to v1 costs
	// another 3 units.
	plan1, _, ok := MarginalCost(sp, 0, 0, nil, nil, []*model.Order{o1})
	if !ok {
		t.Fatal("infeasible o1->v1")
	}
	if err := plan1.Validate(); err != nil {
		t.Fatalf("plan1 invalid: %v", err)
	}
	_, mc3, ok := MarginalCost(sp, 0, 0, nil, []*model.Order{o1}, []*model.Order{o3})
	if !ok {
		t.Fatal("infeasible o3 addition")
	}
	if mc3 != 3 {
		t.Fatalf("mCost(o3, v1 carrying o1) = %v, want 3", mc3)
	}
}

func TestOptimizeEmpty(t *testing.T) {
	_, sp := paperGraph(t)
	plan, cost, ok := Optimize(sp, 0, 0, nil, nil)
	if !ok || cost != 0 || !plan.Empty() {
		t.Fatalf("empty optimize = (%v, %v, %v)", plan, cost, ok)
	}
}

func TestOptimizePlanIsValid(t *testing.T) {
	_, sp := paperGraph(t)
	o1, o2, o3 := order1(sp), order2(sp), order3(sp)
	plan, _, ok := Optimize(sp, 0, 0, nil, []*model.Order{o1, o2, o3})
	if !ok {
		t.Fatal("3-order plan infeasible on connected graph")
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("optimal plan invalid: %v", err)
	}
	if len(plan.Stops) != 6 {
		t.Fatalf("3 orders need 6 stops, got %d", len(plan.Stops))
	}
}

func TestOptimizeWithOnboard(t *testing.T) {
	_, sp := paperGraph(t)
	o1, o2 := order1(sp), order2(sp)
	o1.State = model.OrderPickedUp
	plan, _, ok := Optimize(sp, 0, 0, []*model.Order{o1}, []*model.Order{o2})
	if !ok {
		t.Fatal("infeasible")
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan with onboard order invalid: %v", err)
	}
	if len(plan.Stops) != 3 {
		t.Fatalf("onboard+new should have 3 stops, got %d", len(plan.Stops))
	}
	// o1 must not be picked up again.
	for _, s := range plan.Stops {
		if s.Order.ID == 1 && s.Kind == model.Pickup {
			t.Fatal("onboard order re-picked")
		}
	}
}

// bruteForce enumerates all valid stop sequences without pruning.
func bruteForce(sp roadnet.Router, start roadnet.NodeID, startTime float64, onboard, toPickup []*model.Order) float64 {
	var stops []model.Stop
	for _, o := range onboard {
		stops = append(stops, model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff})
	}
	for _, o := range toPickup {
		stops = append(stops,
			model.Stop{Node: o.Restaurant, Order: o, Kind: model.Pickup},
			model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff})
	}
	best := math.Inf(1)
	used := make([]bool, len(stops))
	seq := make([]model.Stop, 0, len(stops))
	pickedIdx := func(o *model.Order) int {
		for i, s := range stops {
			if s.Order.ID == o.ID && s.Kind == model.Pickup {
				return i
			}
		}
		return -1
	}
	var rec func()
	rec = func() {
		if len(seq) == len(stops) {
			cost, _, ok := func() (float64, float64, bool) {
				t := startTime
				node := start
				c := 0.0
				for _, s := range seq {
					leg := sp.Travel(node, s.Node, t)
					if math.IsInf(leg, 1) {
						return 0, 0, false
					}
					t += leg
					node = s.Node
					if s.Kind == model.Pickup {
						if r := s.Order.ReadyAt(); t < r {
							t = r
						}
					} else {
						c += t - s.Order.PlacedAt - s.Order.SDT
					}
				}
				return c, t, true
			}()
			if ok && cost < best {
				best = cost
			}
			return
		}
		for i, s := range stops {
			if used[i] {
				continue
			}
			if s.Kind == model.Dropoff {
				if pi := pickedIdx(s.Order); pi >= 0 && !used[pi] {
					continue
				}
			}
			used[i] = true
			seq = append(seq, s)
			rec()
			seq = seq[:len(seq)-1]
			used[i] = false
		}
	}
	rec()
	return best
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	g, sp := paperGraph(t)
	rng := rand.New(rand.NewSource(21))
	n := g.NumNodes()
	for trial := 0; trial < 120; trial++ {
		numOrders := 1 + rng.Intn(3)
		numOnboard := rng.Intn(2)
		var onboard, toPickup []*model.Order
		id := model.OrderID(1)
		for i := 0; i < numOnboard; i++ {
			o := &model.Order{
				ID: id, Restaurant: roadnet.NodeID(rng.Intn(n)), Customer: roadnet.NodeID(rng.Intn(n)),
				PlacedAt: float64(rng.Intn(100)), Items: 1, Prep: float64(rng.Intn(20)),
				State: model.OrderPickedUp,
			}
			o.SDT = SDT(sp, o)
			onboard = append(onboard, o)
			id++
		}
		for i := 0; i < numOrders; i++ {
			o := &model.Order{
				ID: id, Restaurant: roadnet.NodeID(rng.Intn(n)), Customer: roadnet.NodeID(rng.Intn(n)),
				PlacedAt: float64(rng.Intn(100)), Items: 1, Prep: float64(rng.Intn(20)),
			}
			o.SDT = SDT(sp, o)
			toPickup = append(toPickup, o)
			id++
		}
		start := roadnet.NodeID(rng.Intn(n))
		startTime := float64(rng.Intn(200))
		_, got, ok := Optimize(sp, start, startTime, onboard, toPickup)
		want := bruteForce(sp, start, startTime, onboard, toPickup)
		if !ok {
			t.Fatalf("trial %d: optimize infeasible, brute force = %v", trial, want)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: optimize = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestMarginalCostNonNegative(t *testing.T) {
	// Adding an order can never decrease total XDT (superset plans include
	// at least the same stops).
	_, sp := paperGraph(t)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 80; trial++ {
		mk := func(id model.OrderID) *model.Order {
			o := &model.Order{
				ID: id, Restaurant: roadnet.NodeID(rng.Intn(10)), Customer: roadnet.NodeID(rng.Intn(10)),
				PlacedAt: 0, Items: 1, Prep: float64(rng.Intn(15)),
			}
			o.SDT = SDT(sp, o)
			return o
		}
		o1, o2 := mk(1), mk(2)
		_, mc, ok := MarginalCost(sp, roadnet.NodeID(rng.Intn(10)), 0, nil, []*model.Order{o1}, []*model.Order{o2})
		if !ok {
			t.Fatalf("trial %d infeasible", trial)
		}
		if mc < -1e-9 {
			t.Fatalf("trial %d: negative marginal cost %v", trial, mc)
		}
	}
}

func TestEvaluateDetailedWaiting(t *testing.T) {
	_, sp := paperGraph(t)
	// v at u1 (0) picking up at u2 (1): travel 8, prep 20 → waits 12.
	o := &model.Order{ID: 1, Restaurant: 1, Customer: 6, PlacedAt: 0, Items: 1, Prep: 20}
	o.SDT = SDT(sp, o)
	plan := &model.RoutePlan{Stops: []model.Stop{
		{Node: 1, Order: o, Kind: model.Pickup},
		{Node: 6, Order: o, Kind: model.Dropoff},
	}}
	cost, wait, drops, ok := EvaluateDetailed(sp, 0, 0, plan)
	if !ok {
		t.Fatal("infeasible")
	}
	if wait != 12 {
		t.Fatalf("wait = %v, want 12", wait)
	}
	if drops[1] != 33 { // ready at 20, drive 13
		t.Fatalf("dropoff at %v, want 33", drops[1])
	}
	if cost != 33-o.SDT {
		t.Fatalf("cost = %v, want %v", cost, 33-o.SDT)
	}
}

func TestEvaluateUnreachable(t *testing.T) {
	b := roadnet.NewBuilder()
	u := b.AddNode(geo.Point{})
	v := b.AddNode(geo.Point{Lat: 1})
	b.AddEdge(u, v, 10, 10, 0)
	g := b.MustBuild()
	sp := roadnet.NewBoundedRouter(g, math.Inf(1))
	o := &model.Order{ID: 1, Restaurant: v, Customer: u, PlacedAt: 0, Items: 1}
	plan := &model.RoutePlan{Stops: []model.Stop{
		{Node: v, Order: o, Kind: model.Pickup},
		{Node: u, Order: o, Kind: model.Dropoff},
	}}
	if _, ok := Evaluate(sp, u, 0, plan); ok {
		t.Fatal("unreachable leg accepted")
	}
	if _, _, ok := Optimize(sp, u, 0, nil, []*model.Order{o}); ok {
		t.Fatal("unreachable optimize accepted")
	}
	if got := Cost(sp, u, 0, nil, []*model.Order{o}); !math.IsInf(got, 1) {
		t.Fatalf("Cost = %v, want +Inf", got)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	_, sp := paperGraph(t)
	o1, o2, o3 := order1(sp), order2(sp), order3(sp)
	p1, c1, _ := Optimize(sp, 0, 0, nil, []*model.Order{o1, o2, o3})
	p2, c2, _ := Optimize(sp, 0, 0, nil, []*model.Order{o1, o2, o3})
	if c1 != c2 || len(p1.Stops) != len(p2.Stops) {
		t.Fatal("Optimize is non-deterministic")
	}
	for i := range p1.Stops {
		if p1.Stops[i] != p2.Stops[i] {
			t.Fatal("Optimize stop sequences differ between runs")
		}
	}
}
