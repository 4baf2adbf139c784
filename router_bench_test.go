package foodmatch

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/foodgraph"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
)

// benchCity lazily memoises the CityB bench substrate so plain test runs
// pay nothing and a generation failure fails the requesting benchmark, not
// the whole binary.
var (
	benchCityOnce sync.Once
	benchCityVal  *City
	benchCityErr  error
)

func benchCity(b *testing.B) *City {
	b.Helper()
	benchCityOnce.Do(func() {
		benchCityVal, benchCityErr = LoadCity("CityB", 0.02, 1)
	})
	if benchCityErr != nil {
		b.Fatal(benchCityErr)
	}
	return benchCityVal
}

// BenchmarkRouter measures point-to-point query latency per Router backend
// on the CityB road network at the bench scale (dinner-slot weights, a
// fixed random query mix). The bounded backend amortises one single-source
// expansion per source; hub labels pay a label merge per query.
func BenchmarkRouter(b *testing.B) {
	g := benchCity(b).G
	const t0 = 19 * 3600.0
	rng := rand.New(rand.NewSource(42))
	type pair struct{ from, to NodeID }
	pairs := make([]pair, 256)
	for i := range pairs {
		pairs[i] = pair{NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))}
	}

	hub := NewHubLabels(g)
	hub.BuildSlot(19) // pay the label build outside the timed loop

	backends := []struct {
		name string
		r    Router
	}{
		{"dijkstra", NewDijkstraRouter(g)},
		{"bounded-sssp", NewBoundedRouter(g, 2*DefaultConfig().MaxFirstMile)},
		{"hub-labels", hub},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				be.r.Travel(p.from, p.to, t0)
			}
		})
	}
}

// benchWindow builds one representative dinner-peak assignment window:
// every order placed in [19:00, 19:00+∆) against the full fleet parked at
// its start nodes.
func benchWindow(b *testing.B) *pipeline.Input {
	b.Helper()
	city := benchCity(b)
	cfg := ExperimentConfig("CityB", 0.02)
	now := 19*3600 + cfg.Delta
	orders := OrderStreamWindow(city, 1, 19*3600, now)
	if len(orders) == 0 {
		b.Fatal("empty bench window")
	}
	router := roadnet.NewBoundedRouter(city.G, 2*cfg.MaxFirstMile)
	for _, o := range orders {
		o.SDT = o.Prep + router.Travel(o.Restaurant, o.Customer, o.PlacedAt)
	}
	var vss []*foodgraph.VehicleState
	for _, v := range city.Fleet(1.0, cfg.MaxO, 1) {
		vss = append(vss, &foodgraph.VehicleState{Vehicle: v, Node: v.Node, Dest: roadnet.Invalid})
	}
	return &pipeline.Input{
		G: city.G, Router: router, Now: now,
		Orders: orders, Vehicles: vss, Cfg: cfg,
	}
}

// BenchmarkPipelineStages isolates each stage of the default FOODMATCH
// composition on one dinner-peak window, so a stage-level perf regression
// shows up directly in -bench output (the CI smoke step runs this at
// -benchtime=1x).
func BenchmarkPipelineStages(b *testing.B) {
	ctx := context.Background()
	in := benchWindow(b)

	batcher := pipeline.ClusterBatcher{}
	batches := batcher.Batch(ctx, in)
	sparsifier := pipeline.BestFirstSparsifier{}
	bp := sparsifier.Sparsify(ctx, in, batches)
	matcher := &pipeline.KMMatcher{}

	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batcher.Batch(ctx, in)
		}
	})
	b.Run("sparsify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsifier.Sparsify(ctx, in, batches)
		}
	})
	b.Run("match", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matcher.Match(ctx, in, batches, bp)
		}
	})
	b.Run("full-assign", func(b *testing.B) {
		p := NewPipeline()
		for i := 0; i < b.N; i++ {
			p.Assign(ctx, in)
		}
		if s := p.LastStats(); s.Batches == 0 {
			b.Fatalf("pipeline did no work: %+v", s)
		}
	})
}
