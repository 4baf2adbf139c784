package engine

import (
	"math"
	"testing"

	"repro/internal/gps"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// TestSDTOnTrueGraph pins SDT admission to the true graph's bounded rows in
// each way the engine can be built: the static default (SDT reads the
// shard's decision router, so each shard holds one distance memo), a
// DecisionGraph whose weights differ from the true graph, and a live
// Learner whose published epochs reweight the decision plane. In all three,
// every admitted order's SDT is bit-identical to a fresh bounded query on
// the true graph at its placement time — orders placed in the slot before
// their admitting round included.
func TestSDTOnTrueGraph(t *testing.T) {
	city := testCityB
	g := city.G
	rain := g.ScaleSlotMultipliers(func(int) float64 { return 1.6 })
	bound := 2 * testConfig().MaxFirstMile
	start, end := 18.75*3600, 19.25*3600

	cases := []struct {
		name   string
		cfg    func() Config
		shared bool // SDT reads the decision router (one memo per shard)
	}{
		{"static", func() Config { return Config{} }, true},
		{"decision-graph", func() Config { return Config{DecisionGraph: rain} }, false},
		{"learner", func() Config {
			return Config{
				Learner:          gps.NewStreamLearner(g, gps.StreamOptions{}),
				WeightRefreshSec: 300,
				MinSamples:       1,
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orders := workload.OrderStreamWindow(city, 1, start, end)
			cfg := tc.cfg()
			cfg.Pipeline = testConfig()
			cfg.Shards = 2
			cfg.QueueSize = len(orders) + 16
			e, err := New(g, city.Fleet(1.0, cfg.Pipeline.MaxO, 1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range e.shards {
				if shared := s.sdt == nil; shared != tc.shared {
					t.Fatalf("shard %d: SDT reads the decision router = %v, want %v", s.id, shared, tc.shared)
				}
			}

			// admittedAt[i] is the round that admitted orders[i].
			admittedAt := make([]float64, len(orders))
			next := 0
			for now := start + e.cfg.Pipeline.Delta; now < end; now += e.cfg.Pipeline.Delta {
				for ; next < len(orders) && orders[next].PlacedAt < now; next++ {
					if err := e.SubmitOrder(orders[next]); err != nil {
						t.Fatal(err)
					}
					admittedAt[next] = now
				}
				e.Step(now)
			}
			if tc.name == "learner" && e.Roadnet().Publishes == 0 {
				t.Fatal("learner engine published no weight epoch")
			}

			ref := roadnet.NewBoundedRouter(g, bound)
			dec := roadnet.NewBoundedRouter(rain, bound)
			prevSlot, differs := 0, 0
			for i, o := range orders[:next] {
				want := o.Prep + ref.Travel(o.Restaurant, o.Customer, o.PlacedAt)
				if math.Float64bits(o.SDT) != math.Float64bits(want) {
					t.Fatalf("order %d: SDT %v, want %v on the true graph", o.ID, o.SDT, want)
				}
				if roadnet.Slot(o.PlacedAt) != roadnet.Slot(admittedAt[i]) {
					prevSlot++
				}
				if o.SDT != o.Prep+dec.Travel(o.Restaurant, o.Customer, o.PlacedAt) {
					differs++
				}
			}
			if next == 0 || prevSlot == 0 {
				t.Fatalf("%d orders admitted, %d of them in a later slot than placed; want both > 0", next, prevSlot)
			}
			if tc.name == "decision-graph" && differs == 0 {
				t.Fatal("no SDT differs from the decision graph's value: the test cannot tell the graphs apart")
			}
		})
	}
}
