package roadnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// paperGraph builds the road network of Fig. 1 in the paper (10 nodes,
// undirected edges realised as directed pairs, weights in minutes).
func paperGraph(t testing.TB) *Graph {
	b := NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode(geo.Point{Lat: float64(i) * 0.01, Lon: 0})
	}
	und := func(u, v NodeID, w float64) {
		b.AddEdge(u, v, w*500, w, 0)
		b.AddEdge(v, u, w*500, w, 0)
	}
	// Edges transcribed from Fig. 1 (0-indexed: u1 -> 0, ..., u10 -> 9).
	und(0, 1, 8)  // u1-u2
	und(0, 4, 5)  // u1-u5
	und(1, 2, 5)  // u2-u3
	und(1, 3, 6)  // u2-u4
	und(2, 6, 8)  // u3-u7
	und(3, 4, 3)  // u4-u5
	und(3, 5, 4)  // u4-u6
	und(4, 5, 7)  // u5-u6
	und(5, 8, 7)  // u6-u9
	und(6, 8, 5)  // u7-u9
	und(6, 7, 12) // u7-u8
	und(7, 8, 3)  // u8-u9
	und(7, 9, 3)  // u8-u10
	und(8, 9, 2)  // u9-u10
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

// randomGraph builds a random strongly connected graph by overlaying a
// directed cycle with random extra edges.
func randomGraph(rng *rand.Rand, n, extra int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lat: rng.Float64(), Lon: rng.Float64()})
	}
	for i := 0; i < n; i++ {
		w := 1 + rng.Float64()*10
		b.AddEdge(NodeID(i), NodeID((i+1)%n), w*10, w, 0)
	}
	for i := 0; i < extra; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := 1 + rng.Float64()*10
		b.AddEdge(u, v, w*10, w, 0)
	}
	return b.MustBuild()
}

func TestSlot(t *testing.T) {
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {3599, 0}, {3600, 1}, {12 * 3600, 12},
		{86399, 23}, {86400, 0}, {90000, 1}, {-1, 23},
	}
	for _, c := range cases {
		if got := Slot(c.t); got != c.want {
			t.Errorf("Slot(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	u := b.AddNode(geo.Point{})
	b.AddEdge(u, 5, 10, 10, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for dangling edge target")
	}

	b2 := NewBuilder()
	u2 := b2.AddNode(geo.Point{})
	v2 := b2.AddNode(geo.Point{})
	b2.AddEdge(u2, v2, 10, 10, 7)
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for unknown zone")
	}

	b3 := NewBuilder()
	u3 := b3.AddNode(geo.Point{})
	v3 := b3.AddNode(geo.Point{})
	b3.AddEdge(u3, v3, 10, 0, 0)
	if _, err := b3.Build(); err == nil {
		t.Fatal("expected error for zero traversal time")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().MustBuild()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph has nodes/edges")
	}
	if !StronglyConnected(g) {
		t.Fatal("empty graph should count as strongly connected")
	}
	if g.MaxBeta(0) <= 0 {
		t.Fatal("MaxBeta must stay positive on empty graph")
	}
}

func TestShortestPathPaperExamples(t *testing.T) {
	g := paperGraph(t)
	// Example 1: quickest route u1 -> u2 is 8, u2 -> u7 via u3 is 13.
	if d := ShortestPath(g, 0, 1, 0); d != 8 {
		t.Fatalf("SP(u1,u2) = %v, want 8", d)
	}
	if d := ShortestPath(g, 1, 6, 0); d != 13 {
		t.Fatalf("SP(u2,u7) = %v, want 13", d)
	}
	// Example 2: v2 at u4 to restaurant u6 is 4, u6 -> u9 is 7.
	if d := ShortestPath(g, 3, 5, 0); d != 4 {
		t.Fatalf("SP(u4,u6) = %v, want 4", d)
	}
	if d := ShortestPath(g, 5, 8, 0); d != 7 {
		t.Fatalf("SP(u6,u9) = %v, want 7", d)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := paperGraph(t)
	if d := ShortestPath(g, 4, 4, 0); d != 0 {
		t.Fatalf("SP(u,u) = %v, want 0", d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	b := NewBuilder()
	u := b.AddNode(geo.Point{})
	v := b.AddNode(geo.Point{Lat: 1})
	w := b.AddNode(geo.Point{Lat: 2})
	b.AddEdge(u, v, 10, 10, 0)
	g := b.MustBuild()
	if d := ShortestPath(g, u, w, 0); !math.IsInf(d, 1) {
		t.Fatalf("SP to unreachable = %v, want +Inf", d)
	}
	if p := Path(g, u, w, 0); p != nil {
		t.Fatalf("Path to unreachable = %+v, want nil", p)
	}
}

func TestPathMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 200)
	for trial := 0; trial < 50; trial++ {
		from := NodeID(rng.Intn(60))
		to := NodeID(rng.Intn(60))
		d := ShortestPath(g, from, to, 0)
		p := Path(g, from, to, 0)
		if p == nil {
			t.Fatalf("path nil for connected graph %d->%d", from, to)
		}
		if math.Abs(p.TravelTime()-d) > 1e-9 {
			t.Fatalf("path time %v != distance %v", p.TravelTime(), d)
		}
		if p.Nodes[0] != from || p.Nodes[len(p.Nodes)-1] != to {
			t.Fatalf("path endpoints wrong: %v", p.Nodes)
		}
	}
}

func TestPathDepartureTimePropagates(t *testing.T) {
	// Two-edge path crossing a slot boundary must use the entry-time slot of
	// each edge.
	b := NewBuilder()
	var congested [SlotsPerDay]float64
	for i := range congested {
		congested[i] = 1
	}
	congested[1] = 2 // slot 1 doubles traversal time
	z := b.AddZone(congested)
	a := b.AddNode(geo.Point{})
	c := b.AddNode(geo.Point{Lat: 0.01})
	d := b.AddNode(geo.Point{Lat: 0.02})
	b.AddEdge(a, c, 100, 1800, z) // 30 min free flow
	b.AddEdge(c, d, 100, 1800, z)
	g := b.MustBuild()

	// Depart at 00:45: first edge in slot 0 (30 min), arrive 01:15, second
	// edge entered in slot 1 → 60 min. Total 90 min.
	p := Path(g, a, d, 2700)
	if p == nil {
		t.Fatal("nil path")
	}
	if got := p.TravelTime(); math.Abs(got-5400) > 1e-6 {
		t.Fatalf("time-dependent travel = %v s, want 5400", got)
	}
}

func TestSSSPMatchesPairwiseDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 80, 300)
	e := NewSSSP(g)
	for trial := 0; trial < 20; trial++ {
		src := NodeID(rng.Intn(80))
		view := e.FromSource(src, 0, math.Inf(1))
		e2 := NewSSSP(g)
		for to := 0; to < 80; to++ {
			want := e2.Distance(src, NodeID(to), 0)
			got := view.Get(NodeID(to))
			if math.Abs(got-want) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("SSSP(%d->%d) = %v, pairwise = %v", src, to, got, want)
			}
		}
	}
}

func TestSSSPBoundTruncates(t *testing.T) {
	g := paperGraph(t)
	e := NewSSSP(g)
	view := e.FromSource(0, 0, 6) // only u1(0), u5(5) are within 6 minutes... plus u2 at 8? no.
	if d := view.Get(0); d != 0 {
		t.Fatalf("source dist = %v", d)
	}
	if d := view.Get(4); d != 5 {
		t.Fatalf("u5 dist = %v, want 5", d)
	}
	if d := view.Get(6); !math.IsInf(d, 1) {
		t.Fatalf("u7 should be beyond bound, got %v", d)
	}
}

func TestSSSPEpochReuse(t *testing.T) {
	g := paperGraph(t)
	e := NewSSSP(g)
	for i := 0; i < 100; i++ {
		from := NodeID(i % g.NumNodes())
		to := NodeID((i * 3) % g.NumNodes())
		d1 := e.Distance(from, to, 0)
		d2 := ShortestPath(g, from, to, 0)
		if d1 != d2 {
			t.Fatalf("epoch-reused engine diverged: %v vs %v", d1, d2)
		}
	}
}

func TestDistCacheCorrectAndMemoised(t *testing.T) {
	g := paperGraph(t)
	c := NewBoundedRouter(g, math.Inf(1))
	d1 := c.Travel(0, 6, 0)
	if want := ShortestPath(g, 0, 6, 0); d1 != want {
		t.Fatalf("cache dist = %v, want %v", d1, want)
	}
	_ = c.Travel(0, 8, 0) // same source+slot: must hit
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	_ = c.Travel(0, 8, 7200) // different slot (slot 2): new expansion
	_, misses = c.Stats()
	if misses != 2 {
		t.Fatalf("misses=%d, want 2 after new slot", misses)
	}
	c.Reset()
	_ = c.Travel(0, 8, 0)
	_, misses = c.Stats()
	if misses != 3 {
		t.Fatalf("misses=%d, want 3 after reset", misses)
	}
}

func TestDistCacheBound(t *testing.T) {
	g := paperGraph(t)
	c := NewBoundedRouter(g, 6)
	if d := c.Travel(0, 6, 0); !math.IsInf(d, 1) {
		t.Fatalf("beyond-bound dist = %v, want +Inf", d)
	}
	if d := c.Travel(0, 4, 0); d != 5 {
		t.Fatalf("within-bound dist = %v, want 5", d)
	}
}

func TestStronglyConnected(t *testing.T) {
	g := paperGraph(t)
	if !StronglyConnected(g) {
		t.Fatal("paper graph (undirected) should be strongly connected")
	}
	b := NewBuilder()
	u := b.AddNode(geo.Point{})
	v := b.AddNode(geo.Point{Lat: 1})
	b.AddEdge(u, v, 10, 10, 0)
	if StronglyConnected(b.MustBuild()) {
		t.Fatal("one-way pair should not be strongly connected")
	}
}

func TestInEdgesMirrorOutEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 120)
	// Every out-edge (u,v) must appear as an in-edge at v with source u.
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.OutEdges(NodeID(u)) {
			found := false
			for _, re := range g.InEdges(e.To) {
				if re.To == NodeID(u) && re.BaseSec == e.BaseSec && re.LenM == e.LenM {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from reverse adjacency", u, e.To)
			}
		}
	}
}

func TestMaxBetaIsMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 60)
	for slot := 0; slot < SlotsPerDay; slot++ {
		mx := 0.0
		for u := 0; u < g.NumNodes(); u++ {
			for _, e := range g.OutEdges(NodeID(u)) {
				if bt := g.EdgeTimeSlot(e, slot); bt > mx {
					mx = bt
				}
			}
		}
		if g.MaxBeta(float64(slot)*3600) != mx {
			t.Fatalf("MaxBeta slot %d = %v, want %v", slot, g.MaxBeta(float64(slot)*3600), mx)
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 50, 150)
	e := NewSSSP(g)
	f := func(a, b, c uint8) bool {
		u := NodeID(int(a) % 50)
		v := NodeID(int(b) % 50)
		w := NodeID(int(c) % 50)
		duw := e.Distance(u, w, 0)
		duv := e.Distance(u, v, 0)
		dvw := e.Distance(v, w, 0)
		return duw <= duv+dvw+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestNode(t *testing.T) {
	g := paperGraph(t)
	// Node coordinates are (0.01*i, 0); a point near (0.031, 0) snaps to node 3.
	got := g.NearestNode(geo.Point{Lat: 0.031, Lon: 0})
	if got != 3 {
		t.Fatalf("NearestNode = %d, want 3", got)
	}
}
