package foodmatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

// newDeterministicRand keeps facade tests reproducible.
func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(77)) }

// TestEndToEndFacade runs the full pipeline through the public API only:
// load a preset, stream orders, simulate under each policy and check the
// cross-policy invariants the paper's evaluation rests on.
func TestEndToEndFacade(t *testing.T) {
	city, err := LoadCity("CityB", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	from, to := 19.0*3600, 21.0*3600

	results := map[string]*Metrics{}
	for _, name := range []string{"foodmatch", "km", "greedy", "reyes"} {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ExperimentConfig("CityB", 0.01)
		if name == "km" {
			ConfigureVanillaKM(cfg)
		}
		orders := OrderStreamWindow(city, 1, from, to)
		fleet := city.Fleet(1.0, cfg.MaxO, 1)
		sim, err := NewSimulator(city.G, orders, fleet, pol, cfg, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := sim.Run(from, to)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s metrics: %v", name, err)
		}
		if m.TotalOrders == 0 {
			t.Fatalf("%s: no orders admitted", name)
		}
		if m.Delivered+m.Rejected+m.Stranded != m.TotalOrders {
			t.Fatalf("%s: orders unaccounted (%d delivered, %d rejected, %d stranded of %d)",
				name, m.Delivered, m.Rejected, m.Stranded, m.TotalOrders)
		}
		results[name] = m
	}

	fm := results["foodmatch"]
	// The reproduction's headline invariants at the dinner peak:
	// FOODMATCH beats vanilla KM and Reyes on the Problem 1 objective...
	if fm.ObjectiveHours() >= results["km"].ObjectiveHours() {
		t.Errorf("FoodMatch objective %.1f should beat KM %.1f",
			fm.ObjectiveHours(), results["km"].ObjectiveHours())
	}
	if fm.ObjectiveHours() >= results["reyes"].ObjectiveHours() {
		t.Errorf("FoodMatch objective %.1f should beat Reyes %.1f",
			fm.ObjectiveHours(), results["reyes"].ObjectiveHours())
	}
	// ...carries more orders per km than every baseline...
	for _, base := range []string{"km", "greedy", "reyes"} {
		if fm.OrdersPerKm() <= results[base].OrdersPerKm() {
			t.Errorf("FoodMatch O/Km %.3f should beat %s %.3f",
				fm.OrdersPerKm(), base, results[base].OrdersPerKm())
		}
	}
	// ...and wastes less driver waiting time than Greedy and KM.
	for _, base := range []string{"km", "greedy"} {
		if fm.WaitHours() >= results[base].WaitHours() {
			t.Errorf("FoodMatch WT %.1f should beat %s %.1f",
				fm.WaitHours(), base, results[base].WaitHours())
		}
	}
}

// TestFacadeDeterminism ensures the public pipeline is reproducible
// end-to-end from seeds.
func TestFacadeDeterminism(t *testing.T) {
	run := func() *Metrics {
		city, err := LoadCity("CityA", 0.02, 5)
		if err != nil {
			t.Fatal(err)
		}
		orders := OrderStreamWindow(city, 5, 12*3600, 13*3600)
		cfg := ExperimentConfig("CityA", 0.02)
		fleet := city.Fleet(1.0, cfg.MaxO, 5)
		sim, err := NewSimulator(city.G, orders, fleet, NewFoodMatch(), cfg, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(12*3600, 13*3600)
	}
	a, b := run(), run()
	if a.XDTSec != b.XDTSec || a.DistM != b.DistM || a.WaitSec != b.WaitSec || a.Delivered != b.Delivered {
		t.Fatalf("pipeline not deterministic:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// TestFacadeTraceConsistency cross-checks the trace subsystem against the
// metrics through the public API.
func TestFacadeTraceConsistency(t *testing.T) {
	city, err := LoadCity("CityA", 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	orders := OrderStreamWindow(city, 2, 12*3600, 13*3600)
	cfg := ExperimentConfig("CityA", 0.02)
	fleet := city.Fleet(1.0, cfg.MaxO, 2)
	rec := NewTraceRecorder()
	sim, err := NewSimulator(city.G, orders, fleet, NewFoodMatch(), cfg, SimOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run(12*3600, 13*3600)
	sum := rec.Summarise(cfg.MaxFirstMile)
	if sum.Delivered != m.Delivered || sum.Rejected != m.Rejected {
		t.Fatalf("trace summary (%+v) disagrees with metrics (%s)", sum, m.Summary())
	}
	if sum.Orders != m.TotalOrders {
		t.Fatalf("trace orders %d != metrics %d", sum.Orders, m.TotalOrders)
	}
}

// TestHubLabelsFacade checks the exported distance index against the plain
// shortest-path oracle on a preset network.
func TestHubLabelsFacade(t *testing.T) {
	city, err := LoadCity("CityA", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewHubLabels(city.G)
	n := city.G.NumNodes()
	for i := 0; i < 50; i++ {
		u := NodeID((i * 13) % n)
		v := NodeID((i * 29) % n)
		want := ShortestPath(city.G, u, v, 12*3600)
		got := ix.Travel(u, v, 12*3600)
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("hub labels (%d->%d) = %v, Dijkstra = %v", u, v, got, want)
		}
	}
}

// TestExperimentRegistry ensures every registered experiment id resolves
// and the registry matches DESIGN.md's index.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"F4a", "F6a", "F6b", "F6cde", "F6fgh", "F6ijk",
		"F7a", "F7bcde", "F8ac", "F8dg", "F8hk", "F9ac", "F9d",
		"T2", "X1", "X2", "X3", "X4", "X5", "X6", "X7"}
	got := ExperimentIDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d ids, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, err := RunExperiment("nope", DefaultExperimentSetup()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestConfigSlotHelpers pins the hour-slot convention the whole pipeline
// shares.
func TestConfigSlotHelpers(t *testing.T) {
	if roadnet.Slot(19.5*3600) != 19 {
		t.Fatal("slot convention broken")
	}
	if DefaultConfig().Delta != 180 {
		t.Fatal("default delta should be the paper's 3 minutes")
	}
}

// TestGPSFacade exercises the exported GPS pipeline end to end.
func TestGPSFacade(t *testing.T) {
	city, err := LoadCity("CityA", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := city.G
	p := RoadPath(g, 0, NodeID(g.NumNodes()-1), 9*3600)
	if p == nil {
		t.Fatal("no path across the city")
	}
	rng := newDeterministicRand()
	pings := SynthesizePings(g, GPSDrive{Nodes: p.Nodes, Times: p.Times}, 20, 15, rng)
	if len(pings) < 3 {
		t.Fatalf("only %d pings", len(pings))
	}
	m := NewGPSMatcher(g, DefaultGPSMatchOptions())
	matched, ok := m.Match(pings)
	if !ok {
		t.Fatal("match failed")
	}
	l := NewSpeedLearner(g)
	times := make([]float64, len(pings))
	for i := range pings {
		times[i] = pings[i].T
	}
	l.ObserveDrive(matched, times)
	if _, cells := l.MeanAbsErrorSec(1); cells == 0 {
		t.Fatal("learner observed nothing")
	}
}
