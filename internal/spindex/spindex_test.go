package spindex

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func randomGraph(rng *rand.Rand, n, extra int, timeDep bool) *roadnet.Graph {
	b := roadnet.NewBuilder()
	var zone uint32
	if timeDep {
		var mult [roadnet.SlotsPerDay]float64
		for i := range mult {
			mult[i] = 1 + 0.5*math.Sin(float64(i))
			if mult[i] < 0.6 {
				mult[i] = 0.6
			}
		}
		zone = b.AddZone(mult)
	}
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lat: rng.Float64(), Lon: rng.Float64()})
	}
	for i := 0; i < n; i++ {
		w := 1 + rng.Float64()*10
		b.AddEdge(roadnet.NodeID(i), roadnet.NodeID((i+1)%n), w*10, w, zone)
	}
	for i := 0; i < extra; i++ {
		u := roadnet.NodeID(rng.Intn(n))
		v := roadnet.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := 1 + rng.Float64()*10
		b.AddEdge(u, v, w*10, w, zone)
	}
	return b.MustBuild()
}

func TestIndexMatchesDijkstraAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 70, 250, false)
	ix := New(g)
	e := roadnet.NewSSSP(g)
	for u := 0; u < g.NumNodes(); u++ {
		view := e.FromSource(roadnet.NodeID(u), 0, math.Inf(1))
		for v := 0; v < g.NumNodes(); v++ {
			want := view.Get(roadnet.NodeID(v))
			got := ix.Travel(roadnet.NodeID(u), roadnet.NodeID(v), 0)
			if math.Abs(got-want) > 1e-3 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("PLL(%d,%d) = %v, Dijkstra = %v", u, v, got, want)
			}
		}
	}
}

func TestIndexSelfDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 20, 40, false)
	ix := New(g)
	for u := 0; u < g.NumNodes(); u++ {
		if d := ix.Travel(roadnet.NodeID(u), roadnet.NodeID(u), 0); d != 0 {
			t.Fatalf("self distance = %v", d)
		}
	}
}

func TestIndexUnreachable(t *testing.T) {
	b := roadnet.NewBuilder()
	u := b.AddNode(geo.Point{})
	v := b.AddNode(geo.Point{Lat: 1})
	w := b.AddNode(geo.Point{Lat: 2})
	b.AddEdge(u, v, 10, 5, 0)
	b.AddEdge(v, u, 10, 5, 0)
	g := b.MustBuild()
	ix := New(g)
	if d := ix.Travel(u, w, 0); !math.IsInf(d, 1) {
		t.Fatalf("unreachable distance = %v, want +Inf", d)
	}
	if d := ix.Travel(w, u, 0); !math.IsInf(d, 1) {
		t.Fatalf("unreachable (reverse) distance = %v, want +Inf", d)
	}
}

func TestIndexDirectedAsymmetry(t *testing.T) {
	// u -> v cheap, v -> u expensive via ring; the index must preserve the
	// asymmetry of directed shortest paths.
	b := roadnet.NewBuilder()
	var ids []roadnet.NodeID
	for i := 0; i < 5; i++ {
		ids = append(ids, b.AddNode(geo.Point{Lat: float64(i)}))
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(ids[i], ids[(i+1)%5], 10, 10, 0)
	}
	g := b.MustBuild()
	ix := New(g)
	if d := ix.Travel(ids[0], ids[1], 0); d != 10 {
		t.Fatalf("forward dist = %v, want 10", d)
	}
	if d := ix.Travel(ids[1], ids[0], 0); d != 40 {
		t.Fatalf("around-the-ring dist = %v, want 40", d)
	}
}

func TestIndexTimeSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 40, 120, true)
	ix := New(g)
	e := roadnet.NewSSSP(g)
	for _, hour := range []int{0, 8, 13, 20} {
		tt := float64(hour) * 3600
		for trial := 0; trial < 60; trial++ {
			u := roadnet.NodeID(rng.Intn(40))
			v := roadnet.NodeID(rng.Intn(40))
			want := e.Distance(u, v, tt)
			got := ix.Travel(u, v, tt)
			if math.Abs(got-want) > 1e-3 {
				t.Fatalf("slot %d: PLL(%d,%d)=%v, want %v", hour, u, v, got, want)
			}
		}
	}
}

func TestIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 30, 60, false)
	ix := New(g)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				u := roadnet.NodeID(r.Intn(30))
				v := roadnet.NodeID(r.Intn(30))
				_ = ix.Travel(u, v, float64(r.Intn(24))*3600)
			}
			done <- true
		}(int64(w))
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestLabelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 50, 150, false)
	ix := New(g)
	avg, max := ix.LabelStats(0)
	if avg <= 0 || max <= 0 {
		t.Fatalf("label stats avg=%v max=%d", avg, max)
	}
	if avg > float64(2*g.NumNodes()) {
		t.Fatalf("average label size %v exceeds trivial bound", avg)
	}
}

func BenchmarkPLLQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 500, 1500, false)
	ix := New(g)
	ix.BuildSlot(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := roadnet.NodeID(i % 500)
		v := roadnet.NodeID((i * 7) % 500)
		_ = ix.Travel(u, v, 0)
	}
}

func BenchmarkDijkstraQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 500, 1500, false)
	e := roadnet.NewSSSP(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := roadnet.NodeID(i % 500)
		v := roadnet.NodeID((i * 7) % 500)
		_ = e.Distance(u, v, 0)
	}
}
