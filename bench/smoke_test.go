package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickSmoke runs what -quick runs — all four workloads at smoke size,
// the stepped ones traced, plus the ladder — and checks every declared metric
// comes out and every gate holds.
func TestQuickSmoke(t *testing.T) {
	t.Setenv("BENCH_SCRATCH", t.TempDir())
	complete := func(name string, res *result, defs []metricDef) {
		t.Helper()
		if !res.Correct {
			t.Errorf("%s: correctness gate failed", name)
		}
		if res.Attempted < 1 {
			t.Errorf("%s: attempted %d operations", name, res.Attempted)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
		}
		for _, def := range defs {
			if mv, ok := res.Metrics[def.Name]; !ok || mv.Unit != def.Unit {
				t.Errorf("%s: metric %s missing or in %q, want %q", name, def.Name, mv.Unit, def.Unit)
			}
		}
	}
	for _, spec := range steppedSpecs {
		spec.scale = quickScale
		seconds := quickSteppedSimMin / spec.simMinPerSec
		plain, err := runStepped(spec, 1, seconds, false, "", quickScale)
		if err != nil {
			t.Fatal(err)
		}
		complete(spec.name, plain, endToEnd)
		for _, def := range endToEnd {
			if plain.Metrics[def.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", spec.name, def.Name, plain.Metrics[def.Name].Value)
			}
		}
		if spec.name == "morning-wide" {
			// dinner-peak already covers the traced path (and the ladder) at
			// one shard, sharded-learn across shards.
			continue
		}
		out := filepath.Join(t.TempDir(), "spans.jsonl")
		traced, err := runStepped(spec, 1, seconds, true, out, quickScale)
		if err != nil {
			t.Fatal(err)
		}
		complete(spec.name+" traced", traced, perLayer)
		spans, err := os.ReadFile(out)
		if err != nil || !strings.Contains(string(spans), `"name":"engine.step"`) {
			t.Errorf("%s: span file missing or empty: %v", spec.name, err)
		}
		for _, name := range []string{"engine.round_ms", "roadnet.cch.assign_ms", "routing.optimize3_us", "wal.append_sync_us", "gps.observe_edge_ns", "roadnet.cch_incremental_ms"} {
			if traced.Metrics[name].Value <= 0 {
				t.Errorf("%s: ladder rung %s = %v", spec.name, name, traced.Metrics[name].Value)
			}
		}
	}

	res, err := runDaemon(1, quickDaemonSeconds, false, quickScale, quickScale)
	if err != nil {
		t.Fatal(err)
	}
	complete("daemon-ingest", res, endToEnd)
	for _, def := range endToEnd {
		if res.Metrics[def.Name].Value <= 0 {
			t.Errorf("daemon-ingest: end-to-end %s = %v, must never be 0", def.Name, res.Metrics[def.Name].Value)
		}
	}
	left, _ := filepath.Glob(filepath.Join(os.Getenv("BENCH_SCRATCH"), "*"))
	if len(left) > 0 {
		t.Errorf("daemon-ingest left files behind: %v", left)
	}
}
