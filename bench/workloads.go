package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	foodmatch "repro"
)

const (
	// citySeed fixes the road network, restaurants and prep models: the
	// workload seed never touches the city.
	citySeed = 1
	// referenceSeed names the reference day: its order stream and fleet
	// roster are the base every workload seed perturbs.
	referenceSeed = 1
	// redrawShare is the share of the reference day a workload seed redraws
	// (orders replaced by the seed's own stream, vehicles re-parked at the
	// seed's own start nodes). At CityB's peak pressure the dispatcher is so
	// sensitive to its inputs that a fully redrawn day moves round latency by
	// 10-15% and XDT by ~10% between seeds (README "Sizing"), which would
	// push every bound to the cap and gate nothing; redrawing a tenth keeps
	// each seed a different trajectory (digests differ) at a ~4% spread.
	redrawShare = 0.10
	// drainCapSec bounds the post-stream drain.
	drainCapSec = 1.5 * 3600
)

// steppedSpec is a closed-loop replay through the public Engine API.
type steppedSpec struct {
	name      string
	city      string
	scale     float64
	startHour float64
	// simMinPerSec converts the requested run length into the order window:
	// -seconds s replays s*simMinPerSec simulated minutes of orders (then
	// drains). Calibrated so the replay takes about s wall seconds on the
	// sizing box; the window, not the wall clock, is what a run fixes, so the
	// decision stream is a function of (seed, seconds) alone.
	simMinPerSec float64
	shards       int
	workers      int // 0 = nproc
	resplitSec   float64
	scenario     string // true-graph perturbation; decisions run on the dry graph
	learn        bool
	refreshSec   float64
}

var steppedSpecs = []steppedSpec{
	{name: "dinner-peak", city: "CityB", scale: 0.05, startHour: 19, simMinPerSec: 8, shards: 1, workers: 1},
	{name: "morning-wide", city: "CityC", scale: 0.10, startHour: 8, simMinPerSec: 9, shards: 1, workers: 1},
	{name: "sharded-learn", city: "CityB", scale: 0.08, startHour: 18, simMinPerSec: 8, shards: 4,
		resplitSec: 900, scenario: "rain:1.15", learn: true, refreshSec: 900},
}

func steppedByName(name string) (steppedSpec, bool) {
	for _, s := range steppedSpecs {
		if s.name == name {
			return s, true
		}
	}
	return steppedSpec{}, false
}

// window returns the order-placement window [start, end) in seconds since
// midnight for a run of the given length, a whole number of ∆ rounds.
func (s steppedSpec) window(seconds, delta float64) (start, end float64) {
	start = s.startHour * 3600
	rounds := int(seconds * s.simMinPerSec * 60 / delta)
	if rounds < 1 {
		rounds = 1
	}
	return start, start + float64(rounds)*delta
}

// day is one workload's generated inputs.
type day struct {
	city   *foodmatch.City
	cfg    *foodmatch.Config
	orders []*foodmatch.Order
	fleet  []*foodmatch.Vehicle
}

// generateDay builds the city, the seed's order stream over [from, to) and
// the seed's fleet roster, all through public functions.
func generateDay(cityName string, scale float64, seed int64, from, to float64) (*day, error) {
	city, err := foodmatch.LoadCity(cityName, scale, citySeed)
	if err != nil {
		return nil, err
	}
	cfg := foodmatch.ExperimentConfig(cityName, scale)
	d := &day{
		city:   city,
		cfg:    cfg,
		orders: foodmatch.OrderStreamWindow(city, referenceSeed, from, to),
		fleet:  city.Fleet(1, cfg.MaxO, referenceSeed),
	}
	if seed == referenceSeed {
		return d, nil
	}
	rng := rand.New(rand.NewSource(seed))
	alt := foodmatch.OrderStreamWindow(city, seed, from, to)
	for i := range d.orders {
		if i < len(alt) && rng.Float64() < redrawShare {
			d.orders[i] = alt[i]
		}
	}
	sort.SliceStable(d.orders, func(i, j int) bool { return d.orders[i].PlacedAt < d.orders[j].PlacedAt })
	for i, o := range d.orders {
		o.ID = foodmatch.OrderID(i + 1)
	}
	altFleet := city.Fleet(1, cfg.MaxO, seed)
	for i, v := range d.fleet {
		if i < len(altFleet) && rng.Float64() < redrawShare {
			v.Node = altFleet[i].Node
		}
	}
	return d, nil
}

// engineFor builds the engine a stepped workload drives. tr is nil for the
// untraced end-to-end run.
func (s steppedSpec) engineFor(d *day, tr *tracer) (*foodmatch.Engine, error) {
	ecfg := foodmatch.EngineConfig{
		Pipeline:   d.cfg,
		Shards:     s.shards,
		Workers:    s.workers,
		ResplitSec: s.resplitSec,
	}
	if ecfg.Workers == 0 {
		ecfg.Workers = runtime.NumCPU()
	}
	trueG := d.city.G
	if s.scenario != "" {
		sc, err := foodmatch.ParseScenario(s.scenario)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		trueG = sc.Apply(d.city.G)
		ecfg.DecisionGraph = d.city.G
	}
	if s.learn {
		ecfg.DecisionGraph = d.city.G
		ecfg.Learner = foodmatch.NewStreamLearner(trueG, foodmatch.StreamLearnerOptions{})
		ecfg.WeightRefreshSec = s.refreshSec
	}
	if tr != nil {
		tr.instrument(&ecfg)
	}
	return foodmatch.NewEngine(trueG, d.fleet, ecfg)
}
