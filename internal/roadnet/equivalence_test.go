package roadnet_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/spindex"
	"repro/internal/workload"
)

// intGraph builds a random strongly connected graph whose every (edge, slot)
// weight is a small integer: BaseSec in 1..64 and slot multipliers in
// {1,2,3}, so all shortest-path sums are exact in float64 AND in float32
// (well under 2^24). On such weights every backend — label-setting,
// hierarchy, hub labels — must produce bitwise-identical distances, because
// no representation or association difference can perturb exact integer
// arithmetic.
func intGraph(rng *rand.Rand, n, extra int) *roadnet.Graph {
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lat: rng.Float64(), Lon: rng.Float64()})
	}
	var mult [roadnet.SlotsPerDay]float64
	for s := range mult {
		mult[s] = float64(1 + (s % 3))
	}
	z := b.AddZone(mult)
	zoneOf := func(i int) uint32 {
		if i%2 == 0 {
			return z
		}
		return 0
	}
	for i := 0; i < n; i++ {
		w := float64(1 + rng.Intn(64))
		b.AddEdge(roadnet.NodeID(i), roadnet.NodeID((i+1)%n), w*10, w, zoneOf(i))
	}
	for i := 0; i < extra; i++ {
		u := roadnet.NodeID(rng.Intn(n))
		v := roadnet.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := float64(1 + rng.Intn(64))
		b.AddEdge(u, v, w*10, w, zoneOf(i))
	}
	return b.MustBuild()
}

// allBackends instantiates every shortest-path backend over g. The Dijkstra
// router is the reference oracle.
func allBackends(g *roadnet.Graph) []struct {
	name string
	rt   roadnet.Router
} {
	return []struct {
		name string
		rt   roadnet.Router
	}{
		{"dijkstra", roadnet.NewDijkstraRouter(g)},
		{"bounded", roadnet.NewBoundedRouter(g, math.Inf(1))},
		{"hublabel", spindex.New(g)},
		{"cch", roadnet.NewCCHFactory().NewRouter(g)},
	}
}

// TestBackendsBitwiseEqualOnIntegerWeights draws random (source, target-set,
// slot) queries on integer-weight graphs and requires every backend's Travel
// AND TravelMany to return bitwise-identical distances to the Dijkstra
// oracle — the strongest cross-backend contract float arithmetic admits.
func TestBackendsBitwiseEqualOnIntegerWeights(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const n = 70
			g := intGraph(rng, n, 220)
			backends := allBackends(g)
			oracle := backends[0].rt
			for trial := 0; trial < 120; trial++ {
				from := roadnet.NodeID(rng.Intn(n))
				at := float64(rng.Intn(roadnet.SlotsPerDay)) * 3600
				targets := make([]roadnet.NodeID, 1+rng.Intn(8))
				for i := range targets {
					targets[i] = roadnet.NodeID(rng.Intn(n))
				}
				want := roadnet.TravelMany(oracle, from, targets, at)
				for _, be := range backends {
					many := roadnet.TravelMany(be.rt, from, targets, at)
					for i, to := range targets {
						if one := be.rt.Travel(from, to, at); one != want[i] {
							t.Fatalf("%s.Travel(%d->%d, slot %v) = %v, dijkstra = %v",
								be.name, from, to, at/3600, one, want[i])
						}
						if many[i] != want[i] {
							t.Fatalf("%s.TravelMany[%d] (%d->%d, slot %v) = %v, dijkstra = %v",
								be.name, i, from, to, at/3600, many[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestBackendsAgreeOnCityGraphs runs the same property over the real CityA /
// CityB preset graphs. Real weights are arbitrary floats, so hierarchy and
// hub-label backends may differ from label-setting in the last ulps (they
// associate the min-plus sums differently; hub labels additionally store
// float32 label distances) — those two get a tolerance, while the
// SSSP-family backends and every backend's own TravelMany stay bitwise.
func TestBackendsAgreeOnCityGraphs(t *testing.T) {
	tol := map[string]float64{
		"dijkstra": 0,
		"bounded":  0,
		"cch":      1e-9,
		"hublabel": 1e-4, // float32 labels
	}
	for _, cityName := range []string{"CityA", "CityB"} {
		t.Run(cityName, func(t *testing.T) {
			city := workload.MustPreset(cityName, workload.DefaultScale, 1)
			g := city.G
			n := g.NumNodes()
			rng := rand.New(rand.NewSource(42))
			backends := allBackends(g)
			oracle := backends[0].rt
			for trial := 0; trial < 60; trial++ {
				from := roadnet.NodeID(rng.Intn(n))
				at := float64(rng.Intn(roadnet.SlotsPerDay)) * 3600
				targets := make([]roadnet.NodeID, 1+rng.Intn(10))
				for i := range targets {
					targets[i] = roadnet.NodeID(rng.Intn(n))
				}
				want := roadnet.TravelMany(oracle, from, targets, at)
				for _, be := range backends {
					many := roadnet.TravelMany(be.rt, from, targets, at)
					for i, to := range targets {
						one := be.rt.Travel(from, to, at)
						if one != many[i] {
							t.Fatalf("%s: TravelMany[%d] = %v but Travel = %v (%d->%d)",
								be.name, i, many[i], one, from, to)
						}
						w := want[i]
						if math.IsInf(w, 1) && math.IsInf(one, 1) {
							continue
						}
						if diff := math.Abs(one - w); diff > tol[be.name]*(1+w) {
							t.Fatalf("%s.Travel(%d->%d, slot %v) = %v, dijkstra = %v (diff %v)",
								be.name, from, to, at/3600, one, w, diff)
						}
					}
				}
			}
		})
	}
}

// TestTravelConstantWithinSlot pins the Router contract routing.LegTable
// memoises on: over one weight epoch an answer depends on t only through
// Slot(t). Every backend, and a SwapRouter in front of one, must return
// bitwise the same distance at both ends of a slot (one step inside the hour
// and one ulp before the next), one day later, and through TravelMany; and
// the slot must matter — some pair must change when the hour does.
func TestTravelConstantWithinSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 50
	g := intGraph(rng, n, 150)
	backends := append(allBackends(g), struct {
		name string
		rt   roadnet.Router
	}{"swap", roadnet.NewSwapRouter(g, func(g *roadnet.Graph) roadnet.Router { return roadnet.NewBoundedRouter(g, math.Inf(1)) })})
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			differs := false
			for trial := 0; trial < 200; trial++ {
				from, to := roadnet.NodeID(rng.Intn(n)), roadnet.NodeID(rng.Intn(n))
				slot := rng.Intn(roadnet.SlotsPerDay)
				lo := float64(slot) * 3600
				hi := math.Nextafter(lo+3600, 0)
				want := be.rt.Travel(from, to, lo)
				for _, at := range []float64{lo + 1e-9, lo + 1800, hi, lo + roadnet.SecondsPerDay} {
					if got := be.rt.Travel(from, to, at); got != want {
						t.Fatalf("Travel(%d->%d) = %v at %v but %v at %v: not constant within slot %d", from, to, got, at, want, lo, slot)
					}
				}
				if many := roadnet.TravelMany(be.rt, from, []roadnet.NodeID{to}, hi); many[0] != want {
					t.Fatalf("TravelMany(%d->%d, %v) = %v, Travel says %v", from, to, hi, many[0], want)
				}
				if be.rt.Travel(from, to, lo+3600) != want {
					differs = true
				}
			}
			if !differs {
				t.Fatal("no pair changed across a slot boundary: the fixture does not exercise time dependence")
			}
		})
	}
}
