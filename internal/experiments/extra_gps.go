package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// X7LearnedWeights reproduces the paper's evaluation *protocol* (Section
// V-B): travel times are learned from GPS pings — synthesize drives, add
// noise, map-match with the Newson–Krumm HMM, aggregate per-edge per-slot
// averages — and the test day is then driven on reality while the policy
// decides on the learned weights. The table compares FOODMATCH with
// perfect weights against FOODMATCH with learned weights at two training
// volumes.
func X7LearnedWeights(st Setup) (*Table, error) {
	city, err := workload.Preset("CityB", st.Scale, st.Seed)
	if err != nil {
		return nil, err
	}
	g := city.G
	cfg := ConfigForScale("CityB", st.Scale)

	t := &Table{
		ID:      "X7",
		Title:   "Decisions on GPS-learned weights vs perfect weights (City B, FoodMatch)",
		Columns: []string{"objective(h)", "delivered", "rejected", "MAE(s/edge-slot)"},
		Notes: []string{
			"learned = synthetic pings -> HMM map-matching -> per-edge per-slot averages (Section V-A pipeline)",
			"execution always runs on the true network; only the policy's oracle changes",
		},
	}

	run := func(label string, dec *roadnet.Graph, mae float64) error {
		m, err2 := runWithDecisionGraph(city, cfg, st, dec)
		if err2 != nil {
			return err2
		}
		t.Rows = append(t.Rows, Row{Label: label, Values: []float64{
			m.ObjectiveHours(), float64(m.Delivered), float64(m.Rejected), mae,
		}})
		return nil
	}
	if err := run("perfect weights", nil, 0); err != nil {
		return nil, err
	}

	for _, drives := range []int{150, 600} {
		learner := gps.NewSpeedLearner(g)
		matcher := gps.NewMatcher(g, gps.DefaultMatchOptions())
		rng := rand.New(rand.NewSource(st.Seed ^ 0x6b5))
		matchedDrives := 0
		for i := 0; i < drives; i++ {
			ri := rng.Intn(len(city.Restaurants))
			from := city.Restaurants[ri]
			to := roadnet.NodeID(rng.Intn(g.NumNodes()))
			if from == to {
				continue
			}
			hour := []float64{9, 12, 13, 19, 20, 21}[rng.Intn(6)]
			p := roadnet.Path(g, from, to, hour*3600)
			if p == nil || len(p.Nodes) < 3 {
				continue
			}
			pings := gps.Synthesize(g, gps.Drive{Nodes: p.Nodes, Times: p.Times}, 20, 20, rng)
			if len(pings) < 3 {
				continue
			}
			matched, ok := matcher.Match(pings)
			if !ok {
				continue
			}
			times := make([]float64, len(pings))
			for j := range pings {
				times[j] = pings[j].T
			}
			learner.ObserveDrive(matched, times)
			matchedDrives++
		}
		mae, cells := learner.MeanAbsErrorSec(2)
		lg, err := learner.LearnedGraph(2)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("learned (%d drives, %d cells)", matchedDrives, cells)
		if err := run(label, lg, mae); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// runWithDecisionGraph runs FOODMATCH on the city with an optional
// learned decision graph.
func runWithDecisionGraph(city *workload.City, cfg *model.Config, st Setup, dec *roadnet.Graph) (*sim.Metrics, error) {
	start := st.StartHour * 3600
	end := st.EndHour * 3600
	orders := workload.OrderStreamWindow(city, st.Seed, start, end)
	fleet := city.Fleet(st.FleetFrac, cfg.MaxO, st.Seed)
	s, err := engine.NewSimulator(city.G, orders, fleet, policy.NewFoodMatch(), cfg.Clone(),
		st.obsOptions(engine.SimOptions{DecisionGraph: dec}))
	if err != nil {
		return nil, err
	}
	return s.Run(start, end), nil
}
