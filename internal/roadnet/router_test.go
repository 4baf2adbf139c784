package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestRouterBackendsAgree checks that every Router backend returns the same
// distances on random graphs: per-query Dijkstra, the unbounded bounded
// router, and the raw SPFunc adapter. The adapter is the only bridge from
// closures to stages, so a closure over each backend must also answer
// Travel and package TravelMany bitwise like the router it closes over.
func TestRouterBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 60, 120)
	dij := NewDijkstraRouter(g)
	bounded := NewBoundedRouter(g, math.Inf(1))
	raw := SPFunc(func(from, to NodeID, tt float64) float64 { return ShortestPath(g, from, to, tt) })

	for q := 0; q < 200; q++ {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		tt := float64(rng.Intn(24)) * 3600
		want := raw.Travel(from, to, tt)
		targets := []NodeID{to, from, NodeID(rng.Intn(g.NumNodes()))}
		for name, r := range map[string]Router{"dijkstra": dij, "bounded": bounded} {
			got := r.Travel(from, to, tt)
			if math.Abs(got-want) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("%s(%d->%d @%v) = %v, want %v", name, from, to, tt, got, want)
			}
			wrapped := SPFunc(r.Travel)
			if w := wrapped.Travel(from, to, tt); math.Float64bits(w) != math.Float64bits(got) {
				t.Fatalf("SPFunc(%s)(%d->%d @%v) = %v, router says %v", name, from, to, tt, w, got)
			}
			many, wmany := TravelMany(r, from, targets, tt), TravelMany(wrapped, from, targets, tt)
			for i := range targets {
				if math.Float64bits(wmany[i]) != math.Float64bits(many[i]) {
					t.Fatalf("TravelMany(SPFunc(%s), %d->%d @%v) = %v, router says %v", name, from, targets[i], tt, wmany[i], many[i])
				}
			}
		}
	}
}

// TestBoundedRouterTruncates pins the bounded backend's contract: targets
// beyond the expansion bound report +Inf (callers translate that into Ω).
func TestBoundedRouterTruncates(t *testing.T) {
	g := paperGraph(t)
	full := NewDijkstraRouter(g)
	d := full.Travel(0, 9, 0)
	if math.IsInf(d, 1) {
		t.Fatal("paper graph disconnected")
	}
	tight := NewBoundedRouter(g, d/2)
	if got := tight.Travel(0, 9, 0); !math.IsInf(got, 1) {
		t.Fatalf("bounded router beyond bound = %v, want +Inf", got)
	}
}

// TestConcurrentRouters hammers the concurrency-safe backend from many
// goroutines (run with -race).
func TestConcurrentRouters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 40, 80)
	r := NewDijkstraRouter(g)
	t.Run("dijkstra", func(t *testing.T) {
		ref := NewDijkstraRouter(g)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				lr := rand.New(rand.NewSource(seed))
				for q := 0; q < 50; q++ {
					from := NodeID(lr.Intn(g.NumNodes()))
					to := NodeID(lr.Intn(g.NumNodes()))
					want := ref.Travel(from, to, 0)
					if got := r.Travel(from, to, 0); got != want {
						t.Errorf("%d->%d = %v, want %v", from, to, got, want)
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
	})
}
