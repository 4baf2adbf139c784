package sim_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/gps"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestScenarioWeightsMoveMetrics is the acceptance check that slot-varying
// true weights change outcomes measurably: the same order stream under the
// same policy delivers slower (higher mean XDT) when the true city is
// slowed by a dinner-rush scenario the decision plane knows nothing about.
func TestScenarioWeightsMoveMetrics(t *testing.T) {
	city := workload.MustPreset("CityA", workload.DefaultScale, 1)
	start, end := 18.5*3600, 19.5*3600

	run := func(trueG *roadnet.Graph, opts engine.SimOptions) *sim.Metrics {
		orders := workload.OrderStreamWindow(city, 1, start, end)
		fleet := city.Fleet(1.0, 3, 1)
		cfg := testConfig()
		s, err := engine.NewSimulator(trueG, orders, fleet, policy.NewFoodMatch(), cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(start, end)
	}

	base := run(city.G, engine.SimOptions{})
	rushG := workload.DinnerRush(1.8).Apply(city.G)
	// The policy still *believes* the dry profile: decisions on city.G,
	// movement on the rushed reality — stale-weight operation.
	rushed := run(rushG, engine.SimOptions{DecisionGraph: city.G})

	if base.Delivered == 0 || rushed.Delivered == 0 {
		t.Fatalf("degenerate runs: delivered %d vs %d", base.Delivered, rushed.Delivered)
	}
	baseXDT := base.XDTSec / float64(base.Delivered)
	rushXDT := rushed.XDTSec / float64(rushed.Delivered)
	t.Logf("mean XDT: dry %.0fs, dinner-rush(1.8, stale weights) %.0fs; delivered %d vs %d",
		baseXDT, rushXDT, base.Delivered, rushed.Delivered)
	if !(rushXDT > baseXDT*1.05) {
		t.Fatalf("dinner rush did not move XDT measurably: %.1f vs %.1f", rushXDT, baseXDT)
	}
}

// TestSimLearnerClosesLoop runs the offline form of the live pipeline: a
// replay on a rained-on reality with SimOptions.Learner collecting edge
// traversals, whose exported weights — applied to the dry prior via
// Reweighted — must reproduce the rained-on β on every observed cell.
func TestSimLearnerClosesLoop(t *testing.T) {
	city := workload.MustPreset("CityA", workload.DefaultScale, 1)
	start, end := 19.0*3600, 19.5*3600
	rainG := workload.Rain(1.5).Apply(city.G)
	learner := gps.NewStreamLearner(rainG, gps.StreamOptions{})

	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, 3, 1)
	s, err := engine.NewSimulator(rainG, orders, fleet, policy.NewFoodMatch(), testConfig(),
		engine.SimOptions{DecisionGraph: city.G, Learner: learner})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(start, end)

	st := learner.Stats()
	if st.Samples == 0 {
		t.Fatal("simulator fed the learner nothing")
	}
	w := learner.Weights(1)
	if w.Cells() == 0 {
		t.Fatal("no learned cells")
	}
	learned := city.G.Reweighted(w)
	checked := 0
	for u := 0; u < rainG.NumNodes(); u++ {
		rEdges := rainG.OutEdges(roadnet.NodeID(u))
		lEdges := learned.OutEdges(roadnet.NodeID(u))
		for i := range rEdges {
			for slot := 0; slot < roadnet.SlotsPerDay; slot++ {
				if _, ok := w.Get(roadnet.NodeID(u), rEdges[i].To, slot); !ok {
					continue
				}
				trueBeta := rainG.EdgeTimeSlot(rEdges[i], slot)
				got := learned.EdgeTimeSlot(lEdges[i], slot)
				if diff := got - trueBeta; diff > 1e-6*trueBeta+1e-9 || diff < -(1e-6*trueBeta+1e-9) {
					t.Fatalf("cell %d->%d slot %d: learned %v, true %v",
						u, rEdges[i].To, slot, got, trueBeta)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing verified")
	}
	t.Logf("verified %d learned cells against the rained-on reality (samples=%d)", checked, st.Samples)
}
