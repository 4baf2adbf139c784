package batching

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/roadnet"
)

// benchOrders builds a reproducible pool of n orders on a line city.
func benchOrders(n int) (roadnet.Router, []*model.Order) {
	_, sp := lineGraph(120, 20)
	rng := rand.New(rand.NewSource(99))
	var orders []*model.Order
	for i := 0; i < n; i++ {
		orders = append(orders, mkOrder(sp, model.OrderID(i+1),
			roadnet.NodeID(rng.Intn(120)), roadnet.NodeID(rng.Intn(120)),
			float64(rng.Intn(600))))
	}
	return sp, orders
}

func benchmarkRun(b *testing.B, n int, radius float64) {
	sp, orders := benchOrders(n)
	opt := defaultOpts()
	opt.Radius = radius
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(sp, orders, opt)
	}
}

func BenchmarkBatching30Full(b *testing.B)   { benchmarkRun(b, 30, math.Inf(1)) }
func BenchmarkBatching60Full(b *testing.B)   { benchmarkRun(b, 60, math.Inf(1)) }
func BenchmarkBatching60Radius(b *testing.B) { benchmarkRun(b, 60, 600) }
func BenchmarkBatching120Full(b *testing.B)  { benchmarkRun(b, 120, math.Inf(1)) }

// The dinner-peak pool of the perf ledger: 230 orders mean, 321 max.
func BenchmarkBatching240Full(b *testing.B) { benchmarkRun(b, 240, math.Inf(1)) }
