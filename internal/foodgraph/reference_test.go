package foodgraph

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
)

// randomGraph builds an n×n bidirectional grid whose every directed edge
// carries its own random travel time, so no two paths tie: the nearest-start
// order of an idle vehicle is unique and the row walk must reproduce the
// search edge for edge.
func randomGraph(n int, rng *rand.Rand) (*roadnet.Graph, roadnet.Router) {
	b := roadnet.NewBuilder()
	origin := geo.Point{Lat: 12.9, Lon: 77.5}
	id := func(r, c int) roadnet.NodeID { return roadnet.NodeID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddNode(geo.Offset(origin, float64(r)*200, float64(c)*200))
		}
	}
	edge := func(u, v roadnet.NodeID) { b.AddEdge(u, v, 200, 20+60*rng.Float64(), 0) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				edge(id(r, c), id(r, c+1))
				edge(id(r, c+1), id(r, c))
			}
			if r+1 < n {
				edge(id(r, c), id(r+1, c))
				edge(id(r+1, c), id(r, c))
			}
		}
	}
	g := b.MustBuild()
	return g, roadnet.NewBoundedRouter(g, math.Inf(1))
}

// oracleInstance draws nb single-order batches (starts may coincide) and a
// fleet mixing every vehicle shape Build distinguishes: empty, carrying
// Keep, carrying Onboard, and full to MaxO. moving gives every vehicle a
// heading (Dest = its first obligation's node, else a neighbouring node);
// otherwise Dest is Invalid throughout, so every vehicle is idle.
func oracleInstance(g *roadnet.Graph, sp roadnet.Router, rng *rand.Rand, nb int, moving bool) ([]*model.Batch, []*VehicleState) {
	n := g.NumNodes()
	node := func() roadnet.NodeID { return roadnet.NodeID(rng.Intn(n)) }
	var batches []*model.Batch
	for i := 0; i < nb; i++ {
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1), node(), node())))
	}
	var vehicles []*VehicleState
	id := model.OrderID(1000)
	order := func() *model.Order { id++; return mkOrder(sp, id, node(), node()) }
	for j := 0; j < 12; j++ {
		vs := idleVehicle(model.VehicleID(j+1), node())
		switch j % 4 {
		case 1:
			vs.Keep = []*model.Order{order()}
		case 2:
			o := order()
			o.State = model.OrderPickedUp
			vs.Onboard = []*model.Order{o}
		case 3: // at MaxO: no batch fits
			for k := 0; k < 3; k++ {
				o := order()
				o.State = model.OrderPickedUp
				vs.Onboard = append(vs.Onboard, o)
			}
		}
		if moving {
			switch {
			case len(vs.Onboard) > 0:
				vs.Dest = vs.Onboard[0].Customer
			case len(vs.Keep) > 0:
				vs.Dest = vs.Keep[0].Restaurant
			default:
				vs.Dest = g.OutEdges(vs.Node)[0].To
			}
		}
		vehicles = append(vehicles, vs)
	}
	return batches, vehicles
}

// buildReference is Build with every vehicle taking bestFirstReference: no
// first-mile row walk, no adist memo.
func buildReference(g *roadnet.Graph, rt roadnet.Router, batches []*model.Batch, vehicles []*VehicleState, opt Options) *Bipartite {
	nb, nv := len(batches), len(vehicles)
	bp := &Bipartite{Cost: make([][]float64, nb), Plan: make([][]*model.RoutePlan, nb)}
	for i := range bp.Cost {
		bp.Cost[i] = make([]float64, nv)
		for j := range bp.Cost[i] {
			bp.Cost[i][j] = opt.Omega
		}
		bp.Plan[i] = make([]*model.RoutePlan, nv)
	}
	sc := &buildScratch{startIdx: make(map[roadnet.NodeID][]int)}
	for range vehicles {
		sc.base = append(sc.base, math.NaN())
	}
	for i, b := range batches {
		u := b.FirstPickupNode()
		sc.startIdx[u] = append(sc.startIdx[u], i)
	}
	for j, vs := range vehicles {
		bestFirstReference(g, rt, batches, sc, vs, j, bp, opt)
	}
	return bp
}

// bestFirstReference is Algorithm 2 for one vehicle as Build ran it before
// idle vehicles walked their first-mile row: a best-first search for every
// vehicle, heading or not, with Eq. 8's angular term recomputed on every
// relaxed edge and each start's first mile asked of the router point by
// point. Kept verbatim as the oracle the row walk and the adist memo are
// held to.
func bestFirstReference(g *roadnet.Graph, rt roadnet.Router, batches []*model.Batch, sc *buildScratch, vs *VehicleState, j int, bp *Bipartite, opt Options) {
	startIdx := sc.startIdx
	source := vs.Node
	locPt := g.Point(source)
	angular, heading := false, 0.0
	if opt.Angular && vs.Dest != roadnet.Invalid && vs.Dest != source {
		if destPt := g.Point(vs.Dest); destPt != locPt {
			angular, heading = true, geo.Bearing(locPt, destPt)
		}
	}
	maxBeta := g.MaxBeta(opt.Now)

	alphaWeight := func(e roadnet.Edge) float64 {
		beta := g.EdgeTime(e, opt.Now) / maxBeta
		if !angular {
			return opt.Gamma * beta
		}
		ad := 0.0
		if u := g.Point(e.To); u != locPt {
			ad = (1 - math.Cos(heading-geo.Bearing(locPt, u))) / 2
		}
		return (1-opt.Gamma)*ad + opt.Gamma*beta
	}

	n := g.NumNodes()
	if len(sc.visited) < n {
		sc.visited = make([]uint32, n)
	}
	sc.vepoch++
	visited, ep := sc.visited, sc.vepoch
	pq := &sc.pq
	pq.reset()
	pq.push(source, 0)
	degree := 0
	startsLeft := len(startIdx)
	for !pq.empty() && degree < opt.K && startsLeft > 0 {
		u, du := pq.pop()
		if visited[u] == ep {
			continue
		}
		visited[u] = ep
		if bis := startIdx[u]; len(bis) > 0 {
			startsLeft--
			for _, bi := range bis {
				if setEdge(rt, sc, batches[bi], vs, bi, j, bp, opt, math.NaN()) {
					degree++
				}
			}
		}
		for _, e := range g.OutEdges(u) {
			if visited[e.To] != ep {
				pq.push(e.To, du+alphaWeight(e))
			}
		}
	}
}

// sameBipartite requires got and want to be the same graph bit for bit:
// Float64bits-equal costs, the same non-nil plans with the same stops, and
// equal TrueEdges.
func sameBipartite(t *testing.T, label string, got, want *Bipartite) {
	t.Helper()
	if got.TrueEdges != want.TrueEdges {
		t.Fatalf("%s: TrueEdges %d, reference %d", label, got.TrueEdges, want.TrueEdges)
	}
	for i := range want.Cost {
		for j := range want.Cost[i] {
			if math.Float64bits(got.Cost[i][j]) != math.Float64bits(want.Cost[i][j]) {
				t.Fatalf("%s: Cost[%d][%d] = %v, reference %v", label, i, j, got.Cost[i][j], want.Cost[i][j])
			}
			gp, wp := got.Plan[i][j], want.Plan[i][j]
			if (gp == nil) != (wp == nil) {
				t.Fatalf("%s: Plan[%d][%d] nil=%v, reference nil=%v", label, i, j, gp == nil, wp == nil)
			}
			if gp == nil {
				continue
			}
			if len(gp.Stops) != len(wp.Stops) {
				t.Fatalf("%s: Plan[%d][%d] = %v, reference %v", label, i, j, gp.Stops, wp.Stops)
			}
			for k := range gp.Stops {
				if gp.Stops[k] != wp.Stops[k] {
					t.Fatalf("%s: Plan[%d][%d] = %v, reference %v", label, i, j, gp.Stops, wp.Stops)
				}
			}
		}
	}
}

// TestNearestEdgesMatchesGraphSearch holds the idle path — one first-mile
// row walked nearest start first — to the best-first search it replaces, on
// graphs without ties: every vehicle shape, degree bounds from 1 to nb−1,
// Angular on (idle vehicles have no heading) and off, and a first-mile
// bound that leaves some starts out of reach.
func TestNearestEdgesMatchesGraphSearch(t *testing.T) {
	const nb = 20
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, sp := randomGraph(8, rng)
		batches, vehicles := oracleInstance(g, sp, rng, nb, false)
		for _, k := range []int{1, 3, 8, nb - 1} {
			for _, angular := range []bool{true, false} {
				for _, maxFM := range []float64{2700, 250} {
					opt := defaultOpts(k, true)
					opt.Angular, opt.MaxFirstMile = angular, maxFM
					got := Build(g, sp, batches, vehicles, opt)
					want := buildReference(g, sp, batches, vehicles, opt)
					if want.TrueEdges == 0 {
						t.Fatalf("seed %d k=%d: reference found no edges", seed, k)
					}
					sameBipartite(t, "idle", got, want)
				}
			}
		}
	}
}

// TestMovingSearchMatchesReference holds the moving path — adist computed
// once per node and reused on every edge into it — to the search that
// recomputed it per relaxed edge: bit-identical graphs across γ and k.
func TestMovingSearchMatchesReference(t *testing.T) {
	const nb = 20
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, sp := randomGraph(8, rng)
		batches, vehicles := oracleInstance(g, sp, rng, nb, true)
		for _, k := range []int{1, 3, 8, nb - 1} {
			for _, gamma := range []float64{0.1, 0.5, 0.9} {
				opt := defaultOpts(k, true)
				opt.Gamma = gamma
				got := Build(g, sp, batches, vehicles, opt)
				want := buildReference(g, sp, batches, vehicles, opt)
				if want.TrueEdges == 0 {
					t.Fatalf("seed %d k=%d: reference found no edges", seed, k)
				}
				sameBipartite(t, "moving", got, want)
			}
		}
	}
}

// TestNearestEdgesLemma1OnTies checks the idle path where the search's
// order was heap-arbitrary — a uniform grid, on which many starts tie — by
// Lemma 1 instead of edge equality: the starts a vehicle holds true edges to
// are a nearest-first prefix of the feasible ones, and the prefix stops only
// at degree k.
func TestNearestEdgesLemma1OnTies(t *testing.T) {
	g, sp := gridGraph(8, 30)
	rng := rand.New(rand.NewSource(5))
	batches, vehicles := oracleInstance(g, sp, rng, 24, false)
	full := Build(g, sp, batches, vehicles, defaultOpts(len(batches), false))
	for _, k := range []int{1, 3, 8} {
		bf := Build(g, sp, batches, vehicles, defaultOpts(k, true))
		for j, vs := range vehicles {
			dist := func(i int) float64 { return sp.Travel(vs.Node, batches[i].FirstPickupNode(), 0) }
			var feasible []int
			for i := range batches {
				if full.Plan[i][j] != nil {
					feasible = append(feasible, i)
				}
			}
			sort.Slice(feasible, func(a, b int) bool { return dist(feasible[a]) < dist(feasible[b]) })
			degree, reach := 0, math.Inf(-1)
			for i := range batches {
				if bf.Plan[i][j] != nil {
					degree++
					reach = math.Max(reach, dist(i))
				}
			}
			if want := min(k, len(feasible)); degree < want {
				t.Fatalf("k=%d vehicle %d: degree %d, want at least %d", k, j, degree, want)
			}
			for _, i := range feasible {
				if dist(i) < reach && bf.Plan[i][j] == nil {
					t.Fatalf("k=%d vehicle %d: batch %d (%v s) skipped for one %v s away", k, j, i, dist(i), reach)
				}
			}
		}
	}
}

// TestNearestEdgesSkipRouterWhenNothingFits: an idle vehicle no batch fits
// (Definition 4) gets no edge, and — as under the search, which never priced
// a first mile it could not use — asks the router nothing: every Dijkstra
// query settles at least its source, so zero settles means zero calls.
func TestNearestEdgesSkipRouterWhenNothingFits(t *testing.T) {
	g, sp := gridGraph(6, 30)
	rng := rand.New(rand.NewSource(2))
	batches, vehicles := oracleInstance(g, sp, rng, 10, false)
	full := vehicles[3] // j%4 == 3: three orders onboard, MaxO = 3
	rt := roadnet.NewDijkstraRouter(g)
	bp := Build(g, rt, batches, []*VehicleState{full}, defaultOpts(3, true))
	if bp.TrueEdges != 0 || rt.Settles() != 0 {
		t.Fatalf("full vehicle: %d true edges, %d router settles; want 0, 0", bp.TrueEdges, rt.Settles())
	}
	Build(g, rt, batches, vehicles[:1], defaultOpts(3, true))
	if rt.Settles() == 0 {
		t.Fatal("empty vehicle settled nothing: the meter is not metering")
	}
}
