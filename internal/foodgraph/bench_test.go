package foodgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
	"repro/internal/workload"
)

// The paper's scalability argument (Section IV-C): constructing the full
// bipartite FOODGRAPH costs Θ(n·m) marginal-cost evaluations, while the
// best-first construction pays k·m plus search overhead. These benchmarks
// measure exactly that crossover as the instance grows.

func benchInstance(nBatches, nVehicles int) (*roadnet.Graph, roadnet.Router, []*model.Batch, []*VehicleState) {
	g, sp := gridGraph(20, 30) // 400 nodes
	rng := rand.New(rand.NewSource(13))
	var batches []*model.Batch
	for i := 0; i < nBatches; i++ {
		batches = append(batches, mkBatch(sp, mkOrder(sp, model.OrderID(i+1),
			roadnet.NodeID(rng.Intn(400)), roadnet.NodeID(rng.Intn(400)))))
	}
	var vehicles []*VehicleState
	for j := 0; j < nVehicles; j++ {
		vehicles = append(vehicles, idleVehicle(model.VehicleID(j+1), roadnet.NodeID(rng.Intn(400))))
	}
	return g, sp, batches, vehicles
}

// benchmarkBuild times Build on benchInstance. Its vehicles are idle, which
// the best-first construction serves from their first-mile rows; moving
// gives each a heading (Dest = a neighbouring node), so best-first runs the
// α search of Algorithm 2.
func benchmarkBuild(b *testing.B, nBatches, nVehicles, k int, bestFirst, moving bool) {
	g, sp, batches, vehicles := benchInstance(nBatches, nVehicles)
	if moving {
		for _, vs := range vehicles {
			vs.Dest = g.OutEdges(vs.Node)[0].To
		}
	}
	opt := defaultOpts(k, bestFirst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, sp, batches, vehicles, opt)
	}
}

// countingRouter wraps the exact Dijkstra backend and meters the node
// settles spent inside first-mile TravelMany calls only — the marginal-cost
// point queries both arms issue identically are excluded, so the reported
// settles/op isolates exactly what batching changes. The perpair arm
// answers TravelMany by looping single-pair Travel (the fallback every
// non-ManyRouter backend gets); the batched arm runs one shared search per
// source with target-set early termination.
type countingRouter struct {
	inner   *roadnet.DijkstraRouter
	batched bool
	settles int64
}

func (c *countingRouter) Travel(u, v roadnet.NodeID, t float64) float64 {
	return c.inner.Travel(u, v, t)
}

func (c *countingRouter) TravelMany(from roadnet.NodeID, targets []roadnet.NodeID, t float64) []float64 {
	s0 := c.inner.Settles()
	var out []float64
	if c.batched {
		out = c.inner.TravelMany(from, targets, t)
	} else {
		out = make([]float64, len(targets))
		for i, to := range targets {
			out[i] = c.inner.Travel(from, to, t)
		}
	}
	c.settles += c.inner.Settles() - s0
	return out
}

// BenchmarkFoodGraphBuild constructs the full FoodGraph for the CityB
// dinner-peak order slice against the whole fleet, comparing per-pair
// first-mile routing to the batched many-to-many path.
func BenchmarkFoodGraphBuild(b *testing.B) {
	city := workload.MustPreset("CityB", workload.DefaultScale, 1)
	start, end := 18.0*3600, 18.5*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	if len(orders) == 0 {
		b.Fatal("no orders in the dinner slice")
	}
	rt := roadnet.NewDijkstraRouter(city.G)
	var batches []*model.Batch
	for _, o := range orders {
		o.SDT = o.PlacedAt + routing.SDT(rt, o)
		plan, cost, ok := routing.Optimize(rt, o.Restaurant, o.PlacedAt, nil, []*model.Order{o})
		if !ok {
			continue
		}
		batches = append(batches, &model.Batch{Orders: []*model.Order{o}, Plan: plan, Cost: cost})
	}
	rng := rand.New(rand.NewSource(7))
	n := city.G.NumNodes()
	var vehicles []*VehicleState
	for _, v := range city.Fleet(1.0, 3, 1) {
		vehicles = append(vehicles, idleVehicle(v.ID, roadnet.NodeID(rng.Intn(n))))
	}
	opt := defaultOpts(len(batches), false)
	opt.Now = end
	for _, arm := range []struct {
		name    string
		batched bool
	}{{"perpair", false}, {"batched", true}} {
		b.Run(arm.name, func(b *testing.B) {
			cr := &countingRouter{inner: rt, batched: arm.batched}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Build(city.G, cr, batches, vehicles, opt)
			}
			b.StopTimer()
			b.ReportMetric(float64(cr.settles)/float64(b.N), "settles/op")
		})
	}
}

func BenchmarkAlg2Construction(b *testing.B) {
	for _, size := range []struct{ nb, nv int }{{40, 50}, {80, 100}, {160, 200}} {
		k := size.nb / 10 // the paper's ~top-10% degree
		b.Run(fmt.Sprintf("full/%dx%d", size.nb, size.nv), func(b *testing.B) {
			benchmarkBuild(b, size.nb, size.nv, size.nb, false, false)
		})
		b.Run(fmt.Sprintf("bestfirst/%dx%d/k=%d", size.nb, size.nv, k), func(b *testing.B) {
			benchmarkBuild(b, size.nb, size.nv, k, true, false)
		})
		b.Run(fmt.Sprintf("moving/%dx%d/k=%d", size.nb, size.nv, k), func(b *testing.B) {
			benchmarkBuild(b, size.nb, size.nv, k, true, true)
		})
	}
}
