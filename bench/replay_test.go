package main

import (
	"testing"
)

// tiny is a stepped workload small enough for a unit test: CityB at scale
// 0.01, half an hour of dinner orders.
func tiny(shards int) steppedSpec {
	return steppedSpec{name: "tiny", city: "CityB", scale: quickScale, startHour: 19, simMinPerSec: 10, shards: shards, workers: 1}
}

func replayTiny(t *testing.T, s steppedSpec, seed int64, tr *tracer) *replayOut {
	t.Helper()
	const seconds = 3 // 30 simulated minutes
	d, eng, _, err := s.setUp(seed, seconds, tr)
	if err != nil {
		t.Fatal(err)
	}
	return s.replay(d, eng, seconds, tr)
}

func TestDigestStableAcrossReplaysAndUnderTracing(t *testing.T) {
	s := tiny(1)
	a, b := replayTiny(t, s, 2, nil), replayTiny(t, s, 2, nil)
	if a.decisions == 0 {
		t.Fatal("tiny replay made no decisions")
	}
	if a.digest != b.digest {
		t.Errorf("two replays of one day disagree: %s vs %s", a.digest, b.digest)
	}
	if other := replayTiny(t, s, 3, nil); other.digest == a.digest {
		t.Errorf("seeds 2 and 3 produced the same decision stream %s", a.digest)
	}
	if failed, violations := a.gate(); len(violations) > 0 {
		t.Errorf("gate: failed=%d %v", failed, violations)
	}

	tr := newTracer()
	traced := replayTiny(t, s, 2, tr)
	if traced.digest != a.digest {
		t.Errorf("tracing moved decisions: %s vs %s", traced.digest, a.digest)
	}
	if sum := tr.sharesSum(); sum < 98 || sum > 102 {
		t.Errorf("stage shares + engine self = %.2f%%, want 100±2", sum)
	}
	layers := tr.layerMetrics(a, traced)
	for _, name := range []string{"engine.step_ms_per_round", "batching.busy_pct", "foodgraph.busy_pct", "roadnet.travel_calls_per_round", "batching.router_queries_per_order"} {
		if layers[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, layers[name])
		}
	}
}

func TestGateCatchesLostAndOversizedWork(t *testing.T) {
	o := replayTiny(t, tiny(2), 1, nil)
	if _, v := o.gate(); len(v) > 0 {
		t.Fatalf("clean sharded replay fails the gate: %v", v)
	}
	o.snap.Delivered-- // an order vanished
	o.overMaxO = 1
	o.dropped = 2
	failed, v := o.gate()
	if len(v) != 3 {
		t.Errorf("want 3 violations (conservation, MAXO, dropped events), got %v", v)
	}
	if failed != int(o.snap.Rejected+o.snap.Stranded)+1 {
		t.Errorf("failed = %d: the unaccounted order must count as failed", failed)
	}
}

func TestWindowIsWholeRounds(t *testing.T) {
	s, _ := steppedByName("dinner-peak")
	start, end := s.window(15, 180)
	if start != 19*3600 || end != 21*3600 {
		t.Errorf("15 s window = %v-%v, want 19:00-21:00", clock(start), clock(end))
	}
	if _, end := s.window(0.01, 180); end != start+180 {
		t.Errorf("the window never shrinks below one round, got end %v", end)
	}
}
