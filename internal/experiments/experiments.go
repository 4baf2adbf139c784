// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (Section V). Each driver returns a
// structured result that renders to the same rows/series the paper reports;
// cmd/experiments and the root bench harness both call into this package.
//
// Absolute numbers differ from the paper — the substrate is a synthetic
// laptop-scale city, not Swiggy's production logs on a 252 GB server — but
// every driver is written so the paper's *shape* (who wins, by what rough
// factor, where crossovers fall) is reproduced. EXPERIMENTS.md records
// paper-vs-measured values per experiment.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Setup fixes the workload scale and time window shared by the experiments.
type Setup struct {
	// Scale shrinks Table II city sizes (1.0 = paper scale).
	Scale float64
	// Seed drives city generation and order streams.
	Seed int64
	// StartHour/EndHour bound the simulated slice of the day. The default
	// covers the dinner peak (18:00–22:00), the day's most loaded period
	// and the one the paper's peak analysis keys on; use 0/24 for full
	// days.
	StartHour, EndHour float64
	// FleetFrac subsamples vehicles (Fig. 7 sweeps).
	FleetFrac float64
	// ComputeBudget, when positive, marks windows whose assignment exceeds
	// it as overflown (scaled stand-in for the paper's ∆ budget).
	ComputeBudget float64
	// Cities restricts multi-city experiments to a subset (nil = the
	// paper's City B, City C, City A ordering). The bench harness uses a
	// single city to keep -bench runs short.
	Cities []string
	// Obs, when set, collects per-window observability telemetry (span
	// trees, phase/stage latency histograms, order-lifecycle transitions)
	// from every simulator the drivers run — see ObsLog and
	// cmd/experiments' -obs-out flag. Nil collects nothing and costs
	// nothing.
	Obs *ObsLog
}

// cities returns the city list the drivers should sweep.
func (st Setup) cities() []string {
	if len(st.Cities) > 0 {
		return st.Cities
	}
	return []string{"CityB", "CityC", "CityA"}
}

// DefaultSetup is the bench-harness operating point.
func DefaultSetup() Setup {
	return Setup{
		Scale:     workload.DefaultScale,
		Seed:      1,
		StartHour: 18,
		EndHour:   22,
		FleetFrac: 1.0,
	}
}

// Run simulates one (city, policy, config) cell and returns its metrics.
func Run(city *workload.City, pol policy.Policy, cfg *model.Config, st Setup) (*sim.Metrics, error) {
	start := st.StartHour * 3600
	end := st.EndHour * 3600
	orders := workload.OrderStreamWindow(city, st.Seed, start, end)
	fleet := city.Fleet(st.FleetFrac, cfg.MaxO, st.Seed)
	if st.ComputeBudget > 0 {
		cfg = cfg.Clone()
		cfg.ComputeBudget = st.ComputeBudget
	}
	s, err := engine.NewSimulator(city.G, orders, fleet, pol, cfg, st.obsOptions(engine.SimOptions{}))
	if err != nil {
		return nil, err
	}
	return s.Run(start, end), nil
}

// RunPreset is Run on a named Table II city.
func RunPreset(cityName string, pol policy.Policy, cfg *model.Config, st Setup) (*sim.Metrics, error) {
	city, err := workload.Preset(cityName, st.Scale, st.Seed)
	if err != nil {
		return nil, err
	}
	return Run(city, pol, cfg, st)
}

// ConfigFor returns the per-city default configuration: the paper uses
// ∆ = 3 min for the big cities and 1 min for City A (Section V-B).
//
// KFactor scales with the fleet: the paper's k = 200·|O|/|V| yields a
// per-vehicle degree around 7 % of the batch count on a 13k-vehicle fleet;
// keeping KFactor at 200 against a laptop-scale fleet would make k exceed
// the batch count and silently disable sparsification, so we scale it by
// the same factor as the fleet (floored so tiny fleets stay usable).
func ConfigFor(cityName string) *model.Config {
	return ConfigForScale(cityName, workload.DefaultScale)
}

// ConfigForScale is ConfigFor with an explicit workload scale.
func ConfigForScale(cityName string, scale float64) *model.Config {
	cfg := model.DefaultConfig()
	if cityName == "CityA" || cityName == "GrubHub" {
		cfg.Delta = 60
	}
	if scale > 0 && scale < 1 {
		// Square-root scaling keeps the sparsified graph useful: linear
		// scaling collapses k below the handful of edges a vehicle needs,
		// while no scaling disables sparsification outright (k ≥ #batches).
		cfg.KFactor = math.Max(20, cfg.KFactor*math.Sqrt(scale))
	}
	return cfg
}

// PolicyByName constructs a policy; KM also needs ConfigureVanillaKM on the
// config, which callers get via PolicyConfig.
func PolicyByName(name string) (policy.Policy, error) {
	switch strings.ToLower(name) {
	case "foodmatch", "fm":
		return policy.NewFoodMatch(), nil
	case "km", "kuhn-munkres":
		return policy.NewVanillaKM(), nil
	case "greedy":
		return policy.NewGreedy(), nil
	case "reyes":
		return policy.NewReyes(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q (want foodmatch|km|greedy|reyes)", name)
	}
}

// PolicyConfig pairs a policy with the correctly switched config for a city.
func PolicyConfig(policyName, cityName string) (policy.Policy, *model.Config, error) {
	pol, err := PolicyByName(policyName)
	if err != nil {
		return nil, nil, err
	}
	cfg := ConfigFor(cityName)
	if strings.EqualFold(policyName, "km") {
		policy.ConfigureVanillaKM(cfg)
	}
	return pol, cfg, nil
}

// Row is one labelled series of values, rendered as a table row.
type Row struct {
	Label  string
	Values []float64
}

// Table is a rendered experiment artefact.
type Table struct {
	ID      string // experiment id, e.g. "F6c"
	Title   string
	Columns []string
	Rows    []Row
	// Notes records shape expectations and caveats.
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	width := 12
	for _, c := range t.Columns {
		if len(c)+1 > width {
			width = len(c) + 1
		}
	}
	fmt.Fprintf(&b, "%-24s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-24s", r.Label)
		for _, v := range r.Values {
			switch {
			case math.IsNaN(v):
				fmt.Fprintf(&b, "%*s", width, "-")
			case math.Abs(v) >= 1000:
				fmt.Fprintf(&b, "%*.0f", width, v)
			case math.Abs(v) >= 10:
				fmt.Fprintf(&b, "%*.1f", width, v)
			default:
				fmt.Fprintf(&b, "%*.3f", width, v)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as a machine-readable object (one line), the shape
// CI fidelity tracking consumes: {"id","title","columns","rows":[{"label",
// "values"}],"notes"}. Non-finite values (NaN/±Inf placeholders) become
// null, since JSON has no encoding for them.
func (t *Table) JSON() ([]byte, error) {
	type jsonRow struct {
		Label  string `json:"label"`
		Values []any  `json:"values"`
	}
	rows := make([]jsonRow, 0, len(t.Rows))
	for _, r := range t.Rows {
		vals := make([]any, len(r.Values))
		for i, v := range r.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = nil
			} else {
				vals[i] = v
			}
		}
		rows = append(rows, jsonRow{Label: r.Label, Values: vals})
	}
	return json.Marshal(struct {
		ID      string    `json:"id"`
		Title   string    `json:"title"`
		Columns []string  `json:"columns"`
		Rows    []jsonRow `json:"rows"`
		Notes   []string  `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Columns, rows, t.Notes})
}

// percentiles summarises a sample at the requested percentiles (0–100).
func percentiles(sample []float64, ps []float64) []float64 {
	if len(sample) == 0 {
		out := make([]float64, len(ps))
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		idx := int(p / 100 * float64(len(s)-1))
		out[i] = s[idx]
	}
	return out
}
