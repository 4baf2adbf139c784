package routing

import (
	"math"
	"math/rand"
	"sync"
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

// slotGraph is a ring of n-1 nodes with chords whose two congestion zones
// carry multipliers that differ slot by slot, plus a dead-end node n-1 that
// can be entered but not left, so some legs are unreachable. hop scales every
// edge time: a few seconds keeps a plan inside one slot, ~20 min makes it
// span three.
func slotGraph(n int, hop float64) (*roadnet.Graph, roadnet.Router) {
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lat: float64(i) * 0.01, Lon: float64(i%3) * 0.01})
	}
	var m1, m2 [roadnet.SlotsPerDay]float64
	for s := range m1 {
		m1[s] = 1 + 0.37*float64(s%5)
		m2[s] = 2.5 - 0.21*float64(s%7)
	}
	z1, z2 := b.AddZone(m1), b.AddZone(m2)
	ring := n - 1
	for i := 0; i < ring; i++ {
		u, v := roadnet.NodeID(i), roadnet.NodeID((i+1)%ring)
		w := hop * float64(1+i%4)
		b.AddEdge(u, v, w*10, w, z1)
		b.AddEdge(v, u, w*10, w*1.3, z2)
		if i%3 == 0 {
			c := roadnet.NodeID((i + ring/2) % ring)
			b.AddEdge(u, c, w*30, w*2.1, z2)
		}
	}
	b.AddEdge(0, roadnet.NodeID(ring), hop*10, hop, z1)
	g := b.MustBuild()
	return g, roadnet.NewBoundedRouter(g, math.Inf(1))
}

// randomProblem draws one Optimize-shaped problem of at most maxN orders
// (onboard included); nodes repeat often on purpose, so restaurants are
// shared and zero-length legs occur.
func randomProblem(rng *rand.Rand, sp roadnet.Router, nodes, maxN int, startTime float64) (start roadnet.NodeID, onboard, toPickup []*model.Order) {
	numOnboard := rng.Intn(2)
	numOrders := 1 + rng.Intn(maxN-numOnboard)
	mk := func(id int) *model.Order {
		o := &model.Order{
			ID: model.OrderID(id), Restaurant: roadnet.NodeID(rng.Intn(nodes)), Customer: roadnet.NodeID(rng.Intn(nodes)),
			PlacedAt: startTime - float64(rng.Intn(100)), Items: 1, Prep: float64(rng.Intn(140)),
		}
		o.SDT = SDT(sp, o)
		return o
	}
	for i := 0; i < numOnboard; i++ {
		o := mk(i + 1)
		o.State = model.OrderPickedUp
		onboard = append(onboard, o)
	}
	for i := 0; i < numOrders; i++ {
		toPickup = append(toPickup, mk(numOnboard+i+1))
	}
	return roadnet.NodeID(rng.Intn(nodes)), onboard, toPickup
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	_, paper := paperGraph(t)
	_, short := slotGraph(12, 3)
	_, long := slotGraph(12, 900)
	worlds := []struct {
		name      string
		sp        roadnet.Router
		nodes     int
		startTime func(*rand.Rand) float64
	}{
		{"one zone", paper, 10, func(r *rand.Rand) float64 { return float64(r.Intn(200)) }},
		{"slot edge", short, 12, func(r *rand.Rand) float64 { return 3590 + float64(r.Intn(21)) }},
		{"three slots", long, 12, func(r *rand.Rand) float64 { return 7000 + float64(r.Intn(400)) }},
		{"midnight", short, 12, func(r *rand.Rand) float64 { return 86340 + float64(r.Intn(61)) }},
	}
	for _, w := range worlds {
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 120; trial++ {
			startTime := w.startTime(rng)
			start, onboard, toPickup := randomProblem(rng, w.sp, w.nodes, 3, startTime)
			plan, got, ok := Optimize(w.sp, start, startTime, onboard, toPickup)
			want := bruteForce(w.sp, start, startTime, onboard, toPickup)
			if !ok {
				if !math.IsInf(want, 1) {
					t.Fatalf("%s trial %d: optimize infeasible, brute force = %v", w.name, trial, want)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s trial %d: optimize = %v, brute force = %v", w.name, trial, got, want)
			}
			if replay, ok := Evaluate(w.sp, start, startTime, plan); !ok || math.Abs(replay-got) > 1e-9*(1+math.Abs(got)) {
				t.Fatalf("%s trial %d: plan replays to %v (ok=%v), optimize said %v", w.name, trial, replay, ok, got)
			}
		}
	}
}

// optimizeReference is the closure DFS that Optimize was before Search and
// LegTable replaced it, kept verbatim as the differential oracle: it asks the
// router at every expansion.
func optimizeReference(rt roadnet.Router, start roadnet.NodeID, startTime float64, onboard, toPickup []*model.Order) (*model.RoutePlan, float64, bool) {
	n := len(onboard) + len(toPickup)
	if n == 0 {
		return &model.RoutePlan{}, 0, true
	}

	// Minimising ΣXDT = Σ(dropTime − PlacedAt − SDT) is the same as
	// minimising Σ dropTime, because the placement and SDT terms are
	// constants of the order set. Branch-and-bound on the partial
	// Σ dropTime is admissible: dropoff instants are positive and every
	// remaining dropoff happens after the current clock, so
	// partial + remaining·now lower-bounds any completion.
	type searchState struct {
		node    roadnet.NodeID
		t       float64
		dropSum float64
	}
	best := math.Inf(1) // best complete Σ dropTime
	var bestSeq []model.Stop
	seq := make([]model.Stop, 0, 2*n)

	droppedOnboard := make([]bool, len(onboard))
	picked := make([]bool, len(toPickup))
	dropped := make([]bool, len(toPickup))
	remaining := n // dropoffs still owed

	var dfs func(st searchState)
	dfs = func(st searchState) {
		if st.dropSum+float64(remaining)*st.t >= best {
			return
		}
		if remaining == 0 {
			best = st.dropSum
			bestSeq = append(bestSeq[:0], seq...)
			return
		}
		tryStop := func(s model.Stop, undo func()) {
			leg := rt.Travel(st.node, s.Node, st.t)
			if math.IsInf(leg, 1) {
				undo()
				return
			}
			nt := st.t + leg
			nd := st.dropSum
			if s.Kind == model.Pickup {
				if ready := s.Order.ReadyAt(); nt < ready {
					nt = ready
				}
			} else {
				nd += nt
			}
			seq = append(seq, s)
			dfs(searchState{node: s.Node, t: nt, dropSum: nd})
			seq = seq[:len(seq)-1]
			undo()
		}
		for i, o := range onboard {
			if droppedOnboard[i] {
				continue
			}
			droppedOnboard[i] = true
			remaining--
			tryStop(model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff}, func() {
				droppedOnboard[i] = false
				remaining++
			})
		}
		for i, o := range toPickup {
			if dropped[i] {
				continue
			}
			if !picked[i] {
				picked[i] = true
				tryStop(model.Stop{Node: o.Restaurant, Order: o, Kind: model.Pickup}, func() {
					picked[i] = false
				})
			} else {
				dropped[i] = true
				remaining--
				tryStop(model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff}, func() {
					dropped[i] = false
					remaining++
				})
			}
		}
	}
	dfs(searchState{node: start, t: startTime})

	if math.IsInf(best, 1) {
		return nil, 0, false
	}
	constTerm := 0.0
	for _, o := range onboard {
		constTerm += o.PlacedAt + o.SDT
	}
	for _, o := range toPickup {
		constTerm += o.PlacedAt + o.SDT
	}
	return &model.RoutePlan{Stops: bestSeq}, best - constTerm, true
}

func samePlan(a, b *model.RoutePlan) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Stops) != len(b.Stops) {
		return false
	}
	for i := range a.Stops {
		if a.Stops[i] != b.Stops[i] {
			return false
		}
	}
	return true
}

// TestSearchMatchesReference holds Optimize, Cost and MarginalCost to the
// closure DFS bit for bit — same stop sequence, math.Float64bits-equal cost —
// on worlds with shared restaurants, unreachable legs and plans that cross
// one, two and the midnight slot boundary.
func TestSearchMatchesReference(t *testing.T) {
	_, short := slotGraph(12, 3)
	_, long := slotGraph(12, 900)
	worlds := []struct {
		name string
		sp   roadnet.Router
		t0   float64
		span int
	}{
		{"mid slot", short, 19 * 3600, 1800},
		{"slot edge", short, 3590, 21},
		{"three slots", long, 7000, 400},
		{"midnight", short, 86340, 61},
	}
	bits := math.Float64bits
	for _, w := range worlds {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 300; trial++ {
			startTime := w.t0 + float64(rng.Intn(w.span))
			start, onboard, toPickup := randomProblem(rng, w.sp, 12, 4, startTime)

			wantPlan, want, wantOK := optimizeReference(w.sp, start, startTime, onboard, toPickup)
			plan, got, ok := Optimize(w.sp, start, startTime, onboard, toPickup)
			if ok != wantOK || bits(got) != bits(want) || !samePlan(plan, wantPlan) {
				t.Fatalf("%s trial %d: Optimize = (%v, %v, %v), reference (%v, %v, %v)",
					w.name, trial, plan, got, ok, wantPlan, want, wantOK)
			}
			wantCost := math.Inf(1)
			if wantOK {
				wantCost = want
			}
			if c := Cost(w.sp, start, startTime, onboard, toPickup); bits(c) != bits(wantCost) {
				t.Fatalf("%s trial %d: Cost = %v, reference %v", w.name, trial, c, wantCost)
			}

			// mCost of the last order joining the rest.
			pending, add := toPickup[:len(toPickup)-1], toPickup[len(toPickup)-1:]
			_, base, baseOK := optimizeReference(w.sp, start, startTime, onboard, pending)
			mPlan, mc, mOK := MarginalCost(w.sp, start, startTime, onboard, pending, add)
			if mOK != (baseOK && wantOK) {
				t.Fatalf("%s trial %d: MarginalCost ok=%v, reference base ok=%v extended ok=%v", w.name, trial, mOK, baseOK, wantOK)
			}
			if mOK && (bits(mc) != bits(want-base) || !samePlan(mPlan, wantPlan)) {
				t.Fatalf("%s trial %d: MarginalCost = (%v, %v), reference (%v, %v)", w.name, trial, mPlan, mc, wantPlan, want-base)
			}
		}
	}
}

// TestOptimizeConcurrent calls Optimize from 8 goroutines over one shared
// DijkstraRouter: pooled Searches must never be shared between calls in
// flight, so every answer equals the serial one. Run under -race.
func TestOptimizeConcurrent(t *testing.T) {
	g, _ := slotGraph(12, 40)
	rt := roadnet.NewDijkstraRouter(g)
	type problem struct {
		start             roadnet.NodeID
		t                 float64
		onboard, toPickup []*model.Order
		plan              *model.RoutePlan
		cost              float64
		ok                bool
	}
	rng := rand.New(rand.NewSource(9))
	problems := make([]problem, 64)
	for i := range problems {
		p := &problems[i]
		p.t = 3000 + float64(rng.Intn(1200))
		p.start, p.onboard, p.toPickup = randomProblem(rng, rt, 12, 4, p.t)
		p.plan, p.cost, p.ok = Optimize(rt, p.start, p.t, p.onboard, p.toPickup)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4*len(problems); k++ {
				p := &problems[(k*7+w)%len(problems)]
				plan, cost, ok := Optimize(rt, p.start, p.t, p.onboard, p.toPickup)
				if ok != p.ok || cost != p.cost || !samePlan(plan, p.plan) {
					t.Errorf("goroutine %d problem %d: (%v, %v, %v), serial (%v, %v, %v)", w, k, plan, cost, ok, p.plan, p.cost, p.ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
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
