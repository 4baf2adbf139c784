package routing

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/roadnet"
)

func benchInstance(n int) (roadnet.Router, roadnet.NodeID, []*model.Order) {
	_, sp := heuristicTestGraph()
	rng := rand.New(rand.NewSource(7))
	orders := randomOrders(rng, sp, n, false)
	return sp, roadnet.NodeID(rng.Intn(64)), orders
}

func BenchmarkOptimizeExact2(b *testing.B) { benchmarkExact(b, 2) }
func BenchmarkOptimizeExact3(b *testing.B) { benchmarkExact(b, 3) }
func BenchmarkOptimizeExact4(b *testing.B) { benchmarkExact(b, 4) }

func benchmarkExact(b *testing.B, n int) {
	sp, start, orders := benchInstance(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(sp, start, 0, nil, orders)
	}
}

func BenchmarkHeuristic6(b *testing.B) {
	sp, start, orders := benchInstance(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimizeHeuristic(sp, start, 0, nil, orders)
	}
}

func BenchmarkMarginalCost(b *testing.B) {
	sp, start, orders := benchInstance(3)
	pending := orders[:2]
	add := orders[2:3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MarginalCost(sp, start, 0, nil, pending, add)
	}
}
