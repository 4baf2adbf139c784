package foodmatch

import (
	"context"
	"testing"
	"time"
)

// replayCity runs a CityB dinner-peak replay at the given scale and window
// under the given policy and router, returning the metrics.
func replayCity(t *testing.T, scale, from, to float64, pol Policy, router Router) *Metrics {
	t.Helper()
	city, err := LoadCity("CityB", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig("CityB", scale)
	orders := OrderStreamWindow(city, 1, from, to)
	fleet := city.Fleet(1.0, cfg.MaxO, 1)
	s, err := NewSimulator(city.G, orders, fleet, pol, cfg, SimOptions{Router: router})
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(from, to)
}

// replayCityB is replayCity at the standard dinner-peak operating point.
func replayCityB(t *testing.T, pol Policy, router Router) *Metrics {
	return replayCity(t, 0.02, 19.0*3600, 21.0*3600, pol, router)
}

func requireIdentical(t *testing.T, what string, a, b *Metrics) {
	t.Helper()
	if a.Delivered != b.Delivered || a.Rejected != b.Rejected ||
		a.XDTSec != b.XDTSec || a.DistM != b.DistM ||
		a.WaitSec != b.WaitSec || a.Reassignments != b.Reassignments {
		t.Fatalf("%s not decision-identical:\n%s\n%s", what, a.Summary(), b.Summary())
	}
}

// TestNewPipelineMatchesFoodMatch is the acceptance bar of the pipeline
// API: a CityB dinner-peak replay through the NewPipeline-composed
// FOODMATCH is decision-identical to the canned NewFoodMatch policy —
// same assignments, same Metrics.
func TestNewPipelineMatchesFoodMatch(t *testing.T) {
	stock := replayCityB(t, NewFoodMatch(), nil)
	composed := replayCityB(t, NewPipeline(), nil)
	requireIdentical(t, "NewPipeline vs NewFoodMatch", stock, composed)
	if stock.Delivered == 0 {
		t.Fatal("replay delivered nothing; workload broken")
	}
}

// requireClose tolerates the last-ulp differences of the hub-label backend
// (a label distance is the sum of two half-path distances; the float
// rounding can flip exact cost ties and nudge a handful of decisions).
func requireClose(t *testing.T, what string, a, b *Metrics) {
	t.Helper()
	within := func(x, y, frac float64) bool {
		if x == y {
			return true
		}
		d := x - y
		if d < 0 {
			d = -d
		}
		return d <= frac*x
	}
	// Tie flips cascade through reshuffling, so XDT is held to a per-order
	// absolute budget (one η unit) rather than a tight fraction.
	xdtDiff := a.XDTSec - b.XDTSec
	if xdtDiff < 0 {
		xdtDiff = -xdtDiff
	}
	if !within(float64(a.Delivered), float64(b.Delivered), 0.02) ||
		xdtDiff > 60*float64(a.TotalOrders) || !within(a.DistM, b.DistM, 0.05) {
		t.Fatalf("%s diverged beyond tie-break noise:\n%s\n%s", what, a.Summary(), b.Summary())
	}
}

// TestRouterBackendsSwappable is the other acceptance bar: hub-label and
// Dijkstra Router backends swap in via a single option. Dijkstra-family
// backends replay decision-identically to the default bounded cache; hub
// labels are exact too but may flip floating-point cost ties, so they are
// held to near-equality.
func TestRouterBackendsSwappable(t *testing.T) {
	// A compact operating point: the per-query Dijkstra backend memoises
	// nothing, so a full-size replay would dominate the suite's runtime.
	const scale, from, to = 0.01, 19.0 * 3600, 20.0 * 3600
	city, err := LoadCity("CityB", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := replayCity(t, scale, from, to, NewFoodMatch(), nil)
	if ref.Delivered == 0 {
		t.Fatal("reference replay delivered nothing")
	}
	dij := replayCity(t, scale, from, to, NewFoodMatch(), NewDijkstraRouter(city.G))
	requireIdentical(t, "dijkstra router vs default", ref, dij)
	hub := replayCity(t, scale, from, to, NewFoodMatch(), NewHubLabels(city.G))
	requireClose(t, "hub-label router vs default", ref, hub)
}

// TestSimulatorContextCancellation: a cancelled context stops the replay
// early with consistent (partial) metrics.
func TestSimulatorContextCancellation(t *testing.T) {
	city, err := LoadCity("CityB", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	from, to := 19.0*3600, 21.0*3600
	cfg := ExperimentConfig("CityB", 0.02)
	orders := OrderStreamWindow(city, 1, from, to)
	fleet := city.Fleet(1.0, cfg.MaxO, 1)
	s, err := NewSimulator(city.G, orders, fleet, NewFoodMatch(), cfg, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	m := s.RunContext(ctx, from, to)
	if m.Delivered != 0 {
		t.Fatalf("cancelled-before-start replay delivered %d orders", m.Delivered)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("partial metrics inconsistent: %v", err)
	}
}
