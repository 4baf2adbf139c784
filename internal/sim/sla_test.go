package sim_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestSLAViolationCounting pins SimOptions.SLASec: a delivery slower than the
// threshold counts, a fast one does not, and a zero threshold disables the
// counter entirely.
func TestSLAViolationCounting(t *testing.T) {
	g := lineCity(20, 30) // 30 s per hop
	run := func(slaSec float64) *sim.Metrics {
		// Vehicle starts at node 0, restaurant 5, customer 10: ~5 hops first
		// mile + 5 hops delivery ≈ 300 s driving + 120 s prep.
		o := mkOrder(1, 5, 10, 10, 120)
		v := model.NewVehicle(1, 0, 3)
		s, err := engine.NewSimulator(g, []*model.Order{o}, []*model.Vehicle{v},
			policy.NewFoodMatch(), testConfig(), engine.SimOptions{SLASec: slaSec})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Run(0, 3600)
		if m.Delivered != 1 {
			t.Fatalf("delivered %d, want 1", m.Delivered)
		}
		return m
	}

	if m := run(60); m.SLAViolations != 1 {
		t.Fatalf("tight SLA: %d violations, want 1", m.SLAViolations)
	}
	if m := run(3600); m.SLAViolations != 0 {
		t.Fatalf("loose SLA: %d violations, want 0", m.SLAViolations)
	}
	if m := run(0); m.SLAViolations != 0 {
		t.Fatalf("disabled SLA: %d violations, want 0", m.SLAViolations)
	}
	if m := run(60); m.SLAViolationRate() != 1 {
		t.Fatalf("violation rate %v, want 1", m.SLAViolationRate())
	}
}
