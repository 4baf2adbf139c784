package engine

import (
	"context"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/workload"
)

// TestRoundPipelineStats checks that the per-stage pipeline breakdown
// reaches the round-stats path: aggregate totals on the round, per-zone
// breakdowns on the shards that ran.
func TestRoundPipelineStats(t *testing.T) {
	city := testCityB
	start, end := 18.0*3600, 18.5*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	e, _ := replay(t, city, orders, fleet, Config{Pipeline: testConfig(), Shards: 2}, start, end)

	if m := e.Snapshot(); m.Assigned == 0 {
		t.Fatal("replay assigned nothing; workload broken")
	}

	// Drive a fresh engine one loaded step for deterministic assertions
	// (not every replay round matches orders, so assert on a round that
	// certainly carries the whole stream).
	stream := workload.OrderStreamWindow(city, 2, start, end)
	e2, err := New(city.G, city.Fleet(1.0, testConfig().MaxO, 2), Config{Pipeline: testConfig(), Shards: 2, QueueSize: len(stream) + 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range stream {
		if err := e2.SubmitOrder(o); err != nil {
			t.Fatal(err)
		}
	}
	rs := e2.StepContext(context.Background(), end)
	if rs.Pipeline.Orders == 0 || rs.Pipeline.Batches == 0 {
		t.Fatalf("loaded round recorded no pipeline work: %+v", rs.Pipeline)
	}
	if rs.Pipeline.Assigned != rs.AssignedOrders {
		t.Fatalf("pipeline assigned %d != round assigned %d", rs.Pipeline.Assigned, rs.AssignedOrders)
	}
	ranShards := 0
	var sum int
	for _, sh := range rs.Shards {
		if sh.Pipeline != nil {
			ranShards++
			sum += sh.Pipeline.Batches
		}
	}
	if ranShards == 0 {
		t.Fatal("no shard published a pipeline breakdown")
	}
	if sum != rs.Pipeline.Batches {
		t.Fatalf("shard batches sum %d != aggregate %d", sum, rs.Pipeline.Batches)
	}
}

// TestEngineCustomRouter swaps the per-shard Router backend via the single
// NewRouter option and checks the replay still assigns. The backend is a
// Dijkstra closure behind the SPFunc adapter — neither a ManyRouter nor
// Kinded — so the engine's per-pair TravelMany fallback and %T router-kind
// fallback run (Dijkstra is exact, so decisions are unchanged vs the default
// bounded cache within the city's diameter; the engine-vs-simulator identity
// test covers exact decision equality for the default).
func TestEngineCustomRouter(t *testing.T) {
	city := testCityB
	start, end := 18.0*3600, 19.0*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)

	base, _ := replay(t, city, orders, fleet, Config{Pipeline: testConfig(), Shards: 1}, start, end)
	baseAssigned := base.Snapshot().Assigned

	orders2 := workload.OrderStreamWindow(city, 1, start, end)
	fleet2 := city.Fleet(1.0, testConfig().MaxO, 1)
	custom, _ := replay(t, city, orders2, fleet2, Config{
		Pipeline: testConfig(),
		Shards:   1,
		NewRouter: func(g *roadnet.Graph) roadnet.Router {
			return roadnet.SPFunc(roadnet.NewDijkstraRouter(g).Travel)
		},
	}, start, end)
	if got := custom.Snapshot().Assigned; got != baseAssigned {
		t.Fatalf("SPFunc(Dijkstra) router assigned %d, default assigned %d", got, baseAssigned)
	}
}
