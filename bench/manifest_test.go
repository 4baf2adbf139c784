package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the bench defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Workloads, workloadDefs) {
		t.Errorf("workloads differ from workloadDefs:\n%v\n%v", m.Workloads, workloadDefs)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != lower && better != higher {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "x", lower)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, the code prints %d", len(m.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, got := range m.EndToEnd {
		want := endToEnd[i]
		check(got.Name, got.Unit, got.Better)
		if got.Bound == nil || got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || *got.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, got, want)
		}
		if want.Bound <= 0 || want.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", want.Name, want.Bound)
		}
		if want.Name == "setup_s" {
			hasSetup = want.Unit == "s" && want.Better == lower
			for _, other := range endToEnd {
				if other.Bound > want.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics, the code prints %d (limit 128)", len(m.PerLayer), len(perLayer))
	}
	for i, got := range m.PerLayer {
		want := perLayer[i]
		check(got.Name, got.Unit, got.Better)
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, want)
		}
	}
}
