package foodgraph

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// gridGraph builds an n×n bidirectional grid with weight w seconds per hop
// and geographically meaningful coordinates.
func gridGraph(n int, w float64) (*roadnet.Graph, roadnet.Router) {
	b := roadnet.NewBuilder()
	origin := geo.Point{Lat: 12.9, Lon: 77.5}
	id := func(r, c int) roadnet.NodeID { return roadnet.NodeID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddNode(geo.Offset(origin, float64(r)*200, float64(c)*200))
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				b.AddEdge(id(r, c), id(r, c+1), 200, w, 0)
				b.AddEdge(id(r, c+1), id(r, c), 200, w, 0)
			}
			if r+1 < n {
				b.AddEdge(id(r, c), id(r+1, c), 200, w, 0)
				b.AddEdge(id(r+1, c), id(r, c), 200, w, 0)
			}
		}
	}
	g := b.MustBuild()
	return g, roadnet.NewBoundedRouter(g, math.Inf(1))
}

func mkOrder(sp roadnet.Router, id model.OrderID, r, c roadnet.NodeID) *model.Order {
	o := &model.Order{ID: id, Restaurant: r, Customer: c, PlacedAt: 0, Items: 1, Prep: 0}
	o.SDT = routing.SDT(sp, o)
	return o
}

func mkBatch(sp roadnet.Router, orders ...*model.Order) *model.Batch {
	plan, cost, ok := routing.Optimize(sp, orders[0].Restaurant, 0, nil, orders)
	if !ok {
		panic("infeasible test batch")
	}
	return &model.Batch{Orders: orders, Plan: plan, Cost: cost}
}

func idleVehicle(id model.VehicleID, node roadnet.NodeID) *VehicleState {
	return &VehicleState{
		Vehicle: model.NewVehicle(id, node, 3),
		Node:    node,
		Dest:    roadnet.Invalid,
	}
}

func defaultOpts(k int, bestFirst bool) Options {
	return Options{
		K: k, Gamma: 0.5, Angular: true, BestFirst: bestFirst,
		Omega: 7200, MaxFirstMile: 2700, MaxO: 3, MaxI: 10, Now: 0,
	}
}

func TestBuildEmpty(t *testing.T) {
	g, sp := gridGraph(4, 30)
	bp := Build(g, sp, nil, nil, defaultOpts(5, true))
	if len(bp.Cost) != 0 {
		t.Fatalf("empty build produced %d rows", len(bp.Cost))
	}
	bp = Build(g, sp, []*model.Batch{}, []*VehicleState{idleVehicle(1, 0)}, defaultOpts(5, true))
	if len(bp.Cost) != 0 {
		t.Fatal("no batches should give no rows")
	}
}

func TestFullGraphCostsMatchMarginalCost(t *testing.T) {
	g, sp := gridGraph(5, 30)
	o1 := mkOrder(sp, 1, 6, 18)
	o2 := mkOrder(sp, 2, 12, 24)
	b1, b2 := mkBatch(sp, o1), mkBatch(sp, o2)
	v1 := idleVehicle(1, 0)
	v2 := idleVehicle(2, 20)
	bp := Build(g, sp, []*model.Batch{b1, b2}, []*VehicleState{v1, v2}, defaultOpts(2, false))
	for i, b := range []*model.Batch{b1, b2} {
		for j, vs := range []*VehicleState{v1, v2} {
			_, want, ok := routing.MarginalCost(sp, vs.Node, 0, nil, nil, b.Orders)
			if !ok {
				t.Fatal("infeasible pair on connected grid")
			}
			if got := bp.Cost[i][j]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("Cost[%d][%d] = %v, want %v", i, j, got, want)
			}
			if bp.Plan[i][j] == nil {
				t.Fatalf("Plan[%d][%d] missing", i, j)
			}
			if err := bp.Plan[i][j].Validate(); err != nil {
				t.Fatalf("Plan[%d][%d] invalid: %v", i, j, err)
			}
		}
	}
	if bp.TrueEdges != 4 {
		t.Fatalf("TrueEdges = %d, want 4", bp.TrueEdges)
	}
}

// TestEdgeCostsMatchMarginalCostLoadedVehicles pins Eq. 7 on vehicles that
// already carry work: Build prices Cost(v, onboard ∪ keep) once per vehicle
// and reuses it on every edge, which must be bit for bit the mCost (and the
// plan) routing.MarginalCost computes edge by edge.
func TestEdgeCostsMatchMarginalCostLoadedVehicles(t *testing.T) {
	g, sp := gridGraph(6, 30)
	rng := rand.New(rand.NewSource(8))
	node := func() roadnet.NodeID { return roadnet.NodeID(rng.Intn(36)) }
	var batches []*model.Batch
	for i := 0; i < 10; i++ {
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1), node(), node())))
	}
	var vehicles []*VehicleState
	for j := 0; j < 6; j++ {
		vs := idleVehicle(model.VehicleID(j+1), node())
		if j%3 != 0 {
			o := mkOrder(sp, model.OrderID(100+j), node(), node())
			o.State = model.OrderPickedUp
			vs.Onboard = []*model.Order{o}
			vs.Dest = o.Customer
		}
		if j%2 == 1 {
			vs.Keep = []*model.Order{mkOrder(sp, model.OrderID(200+j), node(), node())}
		}
		vehicles = append(vehicles, vs)
	}
	for _, bestFirst := range []bool{false, true} {
		bp := Build(g, sp, batches, vehicles, defaultOpts(4, bestFirst))
		if bp.TrueEdges == 0 {
			t.Fatal("no true edges to compare")
		}
		for i, b := range batches {
			for j, vs := range vehicles {
				if bp.Plan[i][j] == nil {
					continue
				}
				plan, want, ok := routing.MarginalCost(sp, vs.Node, 0, vs.Onboard, vs.Keep, b.Orders)
				if !ok || math.Float64bits(bp.Cost[i][j]) != math.Float64bits(want) {
					t.Fatalf("bestFirst=%v Cost[%d][%d] = %v, MarginalCost = %v (ok=%v)", bestFirst, i, j, bp.Cost[i][j], want, ok)
				}
				for k := range plan.Stops {
					if plan.Stops[k] != bp.Plan[i][j].Stops[k] {
						t.Fatalf("bestFirst=%v Plan[%d][%d] = %v, MarginalCost plan %v", bestFirst, i, j, bp.Plan[i][j].Stops, plan.Stops)
					}
				}
			}
		}
	}
}

func TestBestFirstDegreeBound(t *testing.T) {
	g, sp := gridGraph(6, 30)
	var batches []*model.Batch
	for i := 0; i < 12; i++ {
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1),
			roadnet.NodeID(i*3%36), roadnet.NodeID((i*5+7)%36))))
	}
	v := idleVehicle(1, 0)
	k := 4
	bp := Build(g, sp, batches, []*VehicleState{v}, defaultOpts(k, true))
	degree := 0
	for i := range batches {
		if bp.Cost[i][0] < 7200 {
			degree++
		}
	}
	if degree > k {
		t.Fatalf("vehicle degree %d exceeds k=%d", degree, k)
	}
	if degree == 0 {
		t.Fatal("best-first search found no edges at all")
	}
}

func TestLemma1TopKWithPureBeta(t *testing.T) {
	// Lemma 1: with γ=1 (pure travel time) the k true edges of a vehicle
	// are exactly the k closest batch start nodes by network distance.
	g, sp := gridGraph(6, 30)
	rng := rand.New(rand.NewSource(9))
	var batches []*model.Batch
	for i := 0; i < 15; i++ {
		r := roadnet.NodeID(rng.Intn(36))
		c := roadnet.NodeID(rng.Intn(36))
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1), r, c)))
	}
	v := idleVehicle(1, 14)
	opt := defaultOpts(5, true)
	opt.Gamma = 1
	opt.Angular = false
	bp := Build(g, sp, batches, []*VehicleState{v}, opt)

	// Distances from the vehicle to each batch start.
	type bd struct {
		idx int
		d   float64
	}
	var ds []bd
	for i, b := range batches {
		ds = append(ds, bd{i, sp.Travel(v.Node, b.FirstPickupNode(), 0)})
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
	kthDist := ds[opt.K-1].d
	for i := range batches {
		isTrue := bp.Cost[i][0] < opt.Omega
		d := sp.Travel(v.Node, batches[i].FirstPickupNode(), 0)
		if isTrue && d > kthDist+1e-9 {
			t.Fatalf("batch %d (dist %v) got a true edge but is beyond the k-th distance %v", i, d, kthDist)
		}
	}
}

func TestCapacityConstraintsForceOmega(t *testing.T) {
	g, sp := gridGraph(4, 30)
	o := mkOrder(sp, 1, 5, 10)
	b := mkBatch(sp, o)
	vs := idleVehicle(1, 0)
	// Fill the vehicle to MAXO.
	for i := 0; i < 3; i++ {
		oo := mkOrder(sp, model.OrderID(100+i), 1, 2)
		oo.State = model.OrderPickedUp
		vs.Onboard = append(vs.Onboard, oo)
	}
	bp := Build(g, sp, []*model.Batch{b}, []*VehicleState{vs}, defaultOpts(1, false))
	if bp.Cost[0][0] != 7200 {
		t.Fatalf("full vehicle cost = %v, want Ω", bp.Cost[0][0])
	}

	// MAXI: 10 items already on board.
	vs2 := idleVehicle(2, 0)
	heavy := mkOrder(sp, 200, 1, 2)
	heavy.Items = 10
	heavy.State = model.OrderPickedUp
	vs2.Onboard = []*model.Order{heavy}
	bp2 := Build(g, sp, []*model.Batch{b}, []*VehicleState{vs2}, defaultOpts(1, false))
	if bp2.Cost[0][0] != 7200 {
		t.Fatalf("item-full vehicle cost = %v, want Ω", bp2.Cost[0][0])
	}
}

func TestMaxFirstMileForcesOmega(t *testing.T) {
	g, sp := gridGraph(6, 1000) // 1000 s per hop
	o := mkOrder(sp, 1, 35, 30) // far corner
	b := mkBatch(sp, o)
	vs := idleVehicle(1, 0)
	opt := defaultOpts(1, false)
	opt.MaxFirstMile = 2700 // the corner is 10 hops = 10000 s away
	bp := Build(g, sp, []*model.Batch{b}, []*VehicleState{vs}, opt)
	if bp.Cost[0][0] != opt.Omega {
		t.Fatalf("beyond-45-min batch cost = %v, want Ω", bp.Cost[0][0])
	}
}

func TestAngularBiasPrefersHeadingDirection(t *testing.T) {
	// Vehicle at grid centre heading east; two equidistant batches, one east
	// one west. With strong angular weighting (γ small) and k=1, the east
	// batch gets the true edge.
	g, sp := gridGraph(7, 30)
	centre := roadnet.NodeID(3*7 + 3)
	east := roadnet.NodeID(3*7 + 6)
	west := roadnet.NodeID(3 * 7)
	be := mkBatch(sp, mkOrder(sp, 1, east, east-1))
	bw := mkBatch(sp, mkOrder(sp, 2, west, west+1))
	vs := idleVehicle(1, centre)
	vs.Dest = centre + 1 // next node east
	opt := defaultOpts(1, true)
	opt.Gamma = 0.1
	bp := Build(g, sp, []*model.Batch{be, bw}, []*VehicleState{vs}, opt)
	if bp.Cost[0][0] >= opt.Omega {
		t.Fatalf("east batch should receive the single true edge; east=%v west=%v",
			bp.Cost[0][0], bp.Cost[1][0])
	}
	if bp.Cost[1][0] < opt.Omega {
		t.Fatal("west batch should have been pruned at k=1")
	}
}

func TestKFor(t *testing.T) {
	cases := []struct {
		kf       float64
		kmin     int
		nb, nv   int
		expected int
	}{
		{200, 5, 100, 100, 200 * 100 / 100}, // clamped to nb below
		{200, 5, 10, 1000, 5},               // floor via kmin
		{200, 5, 0, 10, 0},
		{200, 5, 10, 0, 0},
		{2, 1, 30, 10, 6},
	}
	for i, c := range cases {
		got := KFor(c.kf, c.kmin, c.nb, c.nv)
		want := c.expected
		if want > c.nb {
			want = c.nb
		}
		if got != want {
			t.Errorf("case %d: KFor = %d, want %d", i, got, want)
		}
	}
}

func TestBestFirstAndFullAgreeOnTrueEdges(t *testing.T) {
	// Edges that best-first does compute must carry the same weight as the
	// full construction.
	g, sp := gridGraph(5, 30)
	rng := rand.New(rand.NewSource(31))
	var batches []*model.Batch
	for i := 0; i < 8; i++ {
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1),
			roadnet.NodeID(rng.Intn(25)), roadnet.NodeID(rng.Intn(25)))))
	}
	vehicles := []*VehicleState{idleVehicle(1, 0), idleVehicle(2, 24), idleVehicle(3, 12)}
	full := Build(g, sp, batches, vehicles, defaultOpts(8, false))
	bf := Build(g, sp, batches, vehicles, defaultOpts(4, true))
	for i := range batches {
		for j := range vehicles {
			if bf.Cost[i][j] < 7200 && math.Abs(bf.Cost[i][j]-full.Cost[i][j]) > 1e-9 {
				t.Fatalf("edge (%d,%d): best-first %v != full %v", i, j, bf.Cost[i][j], full.Cost[i][j])
			}
		}
	}
}

func TestAgeNeutralSubtractsSunkAge(t *testing.T) {
	g, sp := gridGraph(5, 30)
	o := mkOrder(sp, 1, 6, 18)
	o.PlacedAt = -900 // 15 minutes old
	o.Prep = 300
	o.SDT = routing.SDT(sp, o)
	b := mkBatch(sp, o)
	vs := idleVehicle(1, 0)

	opt := defaultOpts(1, false)
	opt.Now = 0
	raw := Build(g, sp, []*model.Batch{b}, []*VehicleState{vs}, opt)

	opt.AgeNeutral = true
	neutral := Build(g, sp, []*model.Batch{b}, []*VehicleState{vs}, opt)

	// The neutral edge must be exactly the raw edge minus the full waiting
	// age (now - PlacedAt = 900 s); see foodgraph.Options.AgeNeutral for
	// why the full age (not just the post-prep slack) is subtracted.
	if diff := raw.Cost[0][0] - neutral.Cost[0][0]; math.Abs(diff-900) > 1e-9 {
		t.Fatalf("age-neutral subtracted %v, want 900", diff)
	}
}

func TestAgeNeutralIsRowConstant(t *testing.T) {
	// Subtracting the age must not change which vehicle is cheapest.
	g, sp := gridGraph(5, 30)
	o := mkOrder(sp, 1, 12, 18)
	o.PlacedAt = -1200
	o.SDT = routing.SDT(sp, o)
	b := mkBatch(sp, o)
	v1, v2 := idleVehicle(1, 0), idleVehicle(2, 24)
	opt := defaultOpts(2, false)
	raw := Build(g, sp, []*model.Batch{b}, []*VehicleState{v1, v2}, opt)
	opt.AgeNeutral = true
	neu := Build(g, sp, []*model.Batch{b}, []*VehicleState{v1, v2}, opt)
	rawPref := raw.Cost[0][0] < raw.Cost[0][1]
	neuPref := neu.Cost[0][0] < neu.Cost[0][1]
	if rawPref != neuPref {
		t.Fatal("age-neutral changed the preferred vehicle")
	}
}

func TestBestFirstBypassWhenKCoversAllBatches(t *testing.T) {
	// With k >= #batches, best-first and full construction must produce
	// identical graphs (the bypass fast path).
	g, sp := gridGraph(5, 30)
	var batches []*model.Batch
	for i := 0; i < 4; i++ {
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1),
			roadnet.NodeID(i*6), roadnet.NodeID(24-i*6))))
	}
	vs := []*VehicleState{idleVehicle(1, 0), idleVehicle(2, 12)}
	bf := Build(g, sp, batches, vs, defaultOpts(10, true))
	full := Build(g, sp, batches, vs, defaultOpts(10, false))
	for i := range batches {
		for j := range vs {
			if bf.Cost[i][j] != full.Cost[i][j] {
				t.Fatalf("bypass mismatch at (%d,%d): %v vs %v", i, j, bf.Cost[i][j], full.Cost[i][j])
			}
		}
	}
}
