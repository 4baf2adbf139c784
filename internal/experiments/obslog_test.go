package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestObsLogCollectsRunTelemetry runs one small experiment cell with an
// ObsLog attached and pins the JSONL contract: per-window round lines with
// span trees, a final obs_summary carrying quantiles for round latency,
// the engine's round phases, the pipeline stages and lifecycle transitions.
func TestObsLogCollectsRunTelemetry(t *testing.T) {
	var buf bytes.Buffer
	st := DefaultSetup()
	st.Scale = 0.01
	st.EndHour = st.StartHour + 0.5
	st.Obs = NewObsLog(&buf)

	city, err := workload.Preset("CityB", st.Scale, st.Seed)
	if err != nil {
		t.Fatal(err)
	}
	pol, cfg, err := PolicyConfig("foodmatch", "CityB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(city, pol, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Fatal("run delivered nothing; telemetry would be vacuous")
	}
	if st.Obs.Rounds() == 0 {
		t.Fatal("ObsLog saw no rounds")
	}
	if err := st.Obs.Close(); err != nil {
		t.Fatal(err)
	}

	var roundLines, summaries int
	var summary struct {
		Kind    string            `json:"kind"`
		Rounds  int64             `json:"rounds"`
		Metrics []obs.MetricPoint `json:"metrics"`
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Kind   string      `json:"kind"`
			T      float64     `json:"t"`
			Phases []obs.Phase `json:"phases"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch probe.Kind {
		case "round":
			roundLines++
			if len(probe.Phases) == 0 || probe.Phases[0].Name != "drain" {
				t.Fatalf("round line without a span tree: %s", sc.Text())
			}
		case "obs_summary":
			summaries++
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown line kind %q", probe.Kind)
		}
	}
	if roundLines == 0 || summaries != 1 {
		t.Fatalf("got %d round lines, %d summaries", roundLines, summaries)
	}
	if summary.Rounds != st.Obs.Rounds() {
		t.Fatalf("summary rounds %d != collector %d", summary.Rounds, st.Obs.Rounds())
	}

	// Quantiles present for the latency planes the issue names.
	wantHists := map[string]bool{
		"foodmatch_round_latency_seconds|":                                 false,
		"foodmatch_round_phase_seconds|phase=match":                        false,
		"foodmatch_round_phase_seconds|phase=advance":                      false,
		"foodmatch_pipeline_stage_seconds|stage=match":                     false,
		"foodmatch_order_transition_sim_seconds|from=admitted,to=assigned": false,
	}
	for _, p := range summary.Metrics {
		var lbl []string
		for _, k := range []string{"from", "phase", "stage", "to"} {
			if v, ok := p.Labels[k]; ok {
				lbl = append(lbl, k+"="+v)
			}
		}
		key := p.Name + "|" + strings.Join(lbl, ",")
		if _, tracked := wantHists[key]; tracked && p.Count > 0 && p.P50 != 0 {
			wantHists[key] = true
		}
	}
	for key, seen := range wantHists {
		if !seen {
			t.Errorf("summary missing populated quantiles for %s", key)
		}
	}
}
