package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gps"
	"repro/internal/obs"
	"repro/internal/workload"
)

// obsReplay drives a short CityB dinner slice through an engine built with
// the given config mutation and returns the engine (post-replay, idle).
func obsReplay(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	city := testCityB
	start, end := 18.0*3600, 18.25*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	if len(orders) == 0 {
		t.Fatal("no orders in the dinner slice")
	}
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	cfg := Config{Pipeline: testConfig(), Shards: 2, QueueSize: len(orders) + 16}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(city.G, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta := e.cfg.Pipeline.Delta
	next := 0
	for now := start + delta; now < end+7200; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		e.Step(now)
		if now >= end && next == len(orders) && e.Idle() {
			break
		}
	}
	return e
}

// TestEngineObsRoundTelemetry checks the tentpole wiring end to end: the
// round/phase/stage histograms populate, the span tree covers the phase
// vocabulary, lifecycle transitions record, and the Prometheus exposition
// of the live registry passes the checker.
func TestEngineObsRoundTelemetry(t *testing.T) {
	e := obsReplay(t, func(cfg *Config) { cfg.TraceRing = 1024 })
	reg := e.Obs()
	if reg == nil {
		t.Fatal("Obs() = nil with observability enabled")
	}
	points := reg.Gather()
	byName := map[string][]obs.MetricPoint{}
	for _, p := range points {
		byName[p.Name] = append(byName[p.Name], p)
	}

	snap := e.Snapshot()
	rounds := counterValue(t, byName, "foodmatch_rounds_total", nil)
	if rounds != float64(snap.Rounds) || rounds == 0 {
		t.Fatalf("foodmatch_rounds_total = %v, snapshot rounds %d", rounds, snap.Rounds)
	}
	lat := histPoint(t, byName, "foodmatch_round_latency_seconds", nil)
	if lat.Count != uint64(snap.Rounds) {
		t.Fatalf("round latency count %d != rounds %d", lat.Count, snap.Rounds)
	}
	if math.IsNaN(lat.P50) || math.IsNaN(lat.P95) || math.IsNaN(lat.P99) {
		t.Fatalf("round latency quantiles missing: %+v", lat)
	}
	for _, phase := range roundPhases {
		p := histPoint(t, byName, "foodmatch_round_phase_seconds", obs.Labels{"phase": phase})
		if p.Count != uint64(snap.Rounds) {
			t.Fatalf("phase %q count %d != rounds %d", phase, p.Count, snap.Rounds)
		}
	}
	// Stage histograms record once per shard-round that ran; at least the
	// matching stage must have samples on a loaded replay.
	if p := histPoint(t, byName, "foodmatch_pipeline_stage_seconds", obs.Labels{"stage": "match"}); p.Count == 0 {
		t.Fatal("pipeline match stage recorded no samples")
	}
	// The exposed lifecycle series and the snapshot totals are one set of
	// books.
	assertBooksAgree(t, e)

	// The last round's span tree spans the full phase vocabulary in order.
	phases := snap.LastRound.Phases
	if len(phases) != len(roundPhases) {
		t.Fatalf("span tree has %d phases, want %d: %+v", len(phases), len(roundPhases), phases)
	}
	for i, p := range phases {
		if p.Name != roundPhases[i] {
			t.Fatalf("phase[%d] = %q, want %q", i, p.Name, roundPhases[i])
		}
	}

	// Lifecycle: transitions recorded, ring tail readable, NDJSON-shaped.
	if p := histPoint(t, byName, "foodmatch_order_transition_sim_seconds",
		obs.Labels{"from": "admitted", "to": "assigned"}); p.Count == 0 {
		t.Fatal("no admitted->assigned transitions recorded")
	}
	// Ring order is append order, not strictly T order: a placed event is
	// stamped with the order's placement time, which precedes the round
	// clock the admission ran under. Check the entries are well-formed.
	tail := e.TraceTail(64)
	if len(tail) == 0 {
		t.Fatal("TraceTail empty with TraceRing enabled")
	}
	for i, ev := range tail {
		if ev.T < 0 || ev.To == "" || ev.GapSec < 0 {
			t.Fatalf("malformed ring entry %d: %+v", i, ev)
		}
	}

	// Exposition round-trips through the validator.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
}

// TestEngineDisableObs pins the opt-out: no registry, no ring, rounds run,
// and the lifecycle totals still count — decisions are obs-neutral, so the
// same replay with the plane on reports the same totals.
func TestEngineDisableObs(t *testing.T) {
	e := obsReplay(t, func(cfg *Config) { cfg.DisableObs = true; cfg.TraceRing = 1024 })
	if e.Obs() != nil {
		t.Fatal("Obs() non-nil with DisableObs")
	}
	if tail := e.TraceTail(8); tail != nil {
		t.Fatalf("TraceTail = %v with DisableObs", tail)
	}
	if e.Snapshot().Rounds == 0 {
		t.Fatal("no rounds ran with DisableObs")
	}
	if e.Snapshot().LastRound.Phases != nil {
		t.Fatal("span tree built with DisableObs")
	}

	off := e.Snapshot()
	on := obsReplay(t, nil).Snapshot()
	for _, c := range []struct {
		name    string
		off, on int64
	}{
		{"OrdersIngested", off.OrdersIngested, on.OrdersIngested},
		{"OrdersAdmitted", off.OrdersAdmitted, on.OrdersAdmitted},
		{"Assigned", off.Assigned, on.Assigned},
		{"Reassigned", off.Reassigned, on.Reassigned},
		{"Rejected", off.Rejected, on.Rejected},
		{"Delivered", off.Delivered, on.Delivered},
		{"Rounds", off.Rounds, on.Rounds},
	} {
		if c.off != c.on {
			t.Errorf("%s = %d with DisableObs, %d with the plane on", c.name, c.off, c.on)
		}
	}
	if off.OrdersIngested == 0 || off.Assigned == 0 || off.Delivered == 0 {
		t.Fatalf("DisableObs replay counted nothing: %+v", off)
	}
}

// assertBooksAgree checks every lifecycle series the engine exposes on its
// registry against the matching Snapshot / Roadnet field: /metrics and
// /metrics.prom read one set of totals.
func assertBooksAgree(t *testing.T, e *Engine) {
	t.Helper()
	byName := map[string][]obs.MetricPoint{}
	for _, p := range e.Obs().Gather() {
		byName[p.Name] = append(byName[p.Name], p)
	}
	m := e.Snapshot()
	rn := e.Roadnet()
	if m.Resplits != rn.Resplits || m.WeightPublishes != rn.Publishes {
		t.Fatalf("Snapshot resplits/publishes %d/%d, Roadnet %d/%d",
			m.Resplits, m.WeightPublishes, rn.Resplits, rn.Publishes)
	}
	ev := func(event string) obs.Labels { return obs.Labels{"event": event} }
	for _, c := range []struct {
		name   string
		labels obs.Labels
		want   int64
	}{
		{"foodmatch_orders_total", ev("ingested"), m.OrdersIngested},
		{"foodmatch_orders_total", ev("admitted"), m.OrdersAdmitted},
		{"foodmatch_orders_total", ev("shed"), m.OrdersShed},
		{"foodmatch_orders_total", ev("assigned"), m.Assigned},
		{"foodmatch_orders_total", ev("reassigned"), m.Reassigned},
		{"foodmatch_orders_total", ev("rejected"), m.Rejected},
		{"foodmatch_orders_total", ev("delivered"), m.Delivered},
		{"foodmatch_orders_total", ev("stranded"), m.Stranded},
		{"foodmatch_orders_total", ev("handoff"), m.Handoffs},
		{"foodmatch_pings_total", ev("ingested"), m.PingsIngested},
		{"foodmatch_pings_total", ev("shed"), m.PingsShed},
		{"foodmatch_rounds_total", nil, m.Rounds},
		{"foodmatch_vehicle_handoffs_total", nil, m.VehicleHandoffs},
		{"foodmatch_resplits_total", nil, rn.Resplits},
		{"foodmatch_resplit_moves_total", nil, m.ResplitMoves},
		{"foodmatch_weight_publishes_total", obs.Labels{"mode": "full"}, rn.Publishes - rn.PatchedPublishes},
		{"foodmatch_weight_publishes_total", obs.Labels{"mode": "patched"}, rn.PatchedPublishes},
	} {
		if got := counterValue(t, byName, c.name, c.labels); got != float64(c.want) {
			t.Errorf("%s %v = %v, snapshot %d", c.name, c.labels, got, c.want)
		}
	}
}

// TestRestoredCountersMatchExposition replays a 2-shard engine, restores
// its checkpoint into a fresh engine and checks, on both engines and again
// after the restored one runs a round, that the exposition carries exactly
// the Snapshot totals — and that restore continued them.
func TestRestoredCountersMatchExposition(t *testing.T) {
	for _, arm := range []struct {
		name   string
		mutate func(*Config)
		check  func(t *testing.T, rn RoadnetStatus)
	}{
		{name: "plain"},
		{
			name:   "resplit",
			mutate: func(cfg *Config) { cfg.ResplitSec = 300 },
			check: func(t *testing.T, rn RoadnetStatus) {
				if rn.Resplits == 0 {
					t.Fatal("no re-split executed")
				}
			},
		},
		{
			name: "learner",
			mutate: func(cfg *Config) {
				cfg.Learner = gps.NewStreamLearner(testCityB.G, gps.StreamOptions{})
				cfg.WeightRefreshSec = 300
				cfg.MinSamples = 1
			},
			check: func(t *testing.T, rn RoadnetStatus) {
				if rn.Publishes == 0 || rn.PatchedPublishes == 0 {
					t.Fatalf("publishes %d (patched %d), want both > 0", rn.Publishes, rn.PatchedPublishes)
				}
			},
		},
	} {
		t.Run(arm.name, func(t *testing.T) {
			orig := obsReplay(t, arm.mutate)
			assertBooksAgree(t, orig)
			if arm.check != nil {
				arm.check(t, orig.Roadnet())
			}
			want := orig.Snapshot()
			if want.OrdersIngested == 0 || want.Delivered == 0 {
				t.Fatalf("replay counted nothing: %+v", want)
			}
			doc := orig.CheckpointState()

			cfg := Config{Pipeline: testConfig(), Shards: 2}
			if arm.mutate != nil {
				arm.mutate(&cfg)
			}
			restored, err := New(testCityB.G, testCityB.Fleet(1.0, testConfig().MaxO, 1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreCheckpoint(doc); err != nil {
				t.Fatal(err)
			}
			got := restored.Snapshot()
			if got.OrdersIngested != want.OrdersIngested || got.OrdersAdmitted != want.OrdersAdmitted ||
				got.Assigned != want.Assigned || got.Delivered != want.Delivered ||
				got.Rounds != want.Rounds || got.Resplits != want.Resplits {
				t.Fatalf("restore did not continue the totals:\n got %+v\nwant %+v", got, want)
			}
			assertBooksAgree(t, restored)

			restored.Step(float64(doc.Clock) + testConfig().Delta)
			if n := restored.Snapshot().Rounds; n != want.Rounds+1 {
				t.Fatalf("rounds after one restored round = %d, want %d", n, want.Rounds+1)
			}
			assertBooksAgree(t, restored)
		})
	}
}

// parentCounters is a CheckpointCounters document exactly as version 1
// writes it: every field, in declaration order, none at its zero value.
const parentCounters = `{"ingested":43,"admitted":41,"shed_orders":2,"pings_ingested":17,` +
	`"shed_pings":1,"assigned":143,"reassigned":60,"rejected":3,"handoffs":5,"veh_handoffs":7,` +
	`"rounds":15,"resplits":2,"resplit_moves":11,"round_sec_total":1.5,"round_sec_max":0.25,` +
	`"sim_start":64500,"delivered":38,"stranded":1,"xdt_sec":1234.5,"wait_sec":99.5,"dist_m":45678.25}`

// TestRestoreParentWrittenCounters restores a version-1 counters document
// and checks Snapshot and the exposition carry exactly those totals: the
// schema did not drift while its readers changed.
func TestRestoreParentWrittenCounters(t *testing.T) {
	var cc CheckpointCounters
	dec := json.NewDecoder(strings.NewReader(parentCounters))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cc); err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(cc); err != nil || string(b) != parentCounters {
		t.Fatalf("CheckpointCounters schema drifted:\n got %s\nwant %s (%v)", b, parentCounters, err)
	}

	mk := func() *Engine {
		e, err := New(testCityB.G, testCityB.Fleet(0.2, testConfig().MaxO, 1), Config{Pipeline: testConfig(), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	doc, err := json.Marshal(mk().CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatal(err)
	}
	raw["counters"] = json.RawMessage(parentCounters)
	if doc, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCheckpoint(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	e := mk()
	if err := e.RestoreCheckpoint(c); err != nil {
		t.Fatal(err)
	}

	m := e.Snapshot()
	for _, f := range []struct {
		name      string
		got, want int64
	}{
		{"OrdersIngested", m.OrdersIngested, 43},
		{"OrdersAdmitted", m.OrdersAdmitted, 41},
		{"OrdersShed", m.OrdersShed, 2},
		{"PingsIngested", m.PingsIngested, 17},
		{"PingsShed", m.PingsShed, 1},
		{"Assigned", m.Assigned, 143},
		{"Reassigned", m.Reassigned, 60},
		{"Rejected", m.Rejected, 3},
		{"Handoffs", m.Handoffs, 5},
		{"VehicleHandoffs", m.VehicleHandoffs, 7},
		{"Rounds", m.Rounds, 15},
		{"Resplits", m.Resplits, 2},
		{"ResplitMoves", m.ResplitMoves, 11},
		{"Delivered", m.Delivered, 38},
		{"Stranded", m.Stranded, 1},
	} {
		if f.got != f.want {
			t.Errorf("%s = %d after restore, want %d", f.name, f.got, f.want)
		}
	}
	if m.RoundSecMean != 0.1 || m.RoundSecMax != 0.25 || m.XDTSec != 1234.5 ||
		m.WaitSec != 99.5 || m.DistKm != 45.67825 {
		t.Errorf("float totals after restore: mean %v max %v xdt %v wait %v km %v",
			m.RoundSecMean, m.RoundSecMax, m.XDTSec, m.WaitSec, m.DistKm)
	}
	assertBooksAgree(t, e)
}

// TestEngineSnapshotConsistentUnderConcurrentStep hammers Snapshot, the
// Prometheus exposition and TraceTail from reader goroutines while rounds
// run, checking counters only move forward and cross-counter invariants
// hold in every observed snapshot. Run under -race this is also the torn-
// read guard for the whole metrics plane.
func TestEngineSnapshotConsistentUnderConcurrentStep(t *testing.T) {
	city := testCityB
	start, end := 18.0*3600, 18.25*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	e, err := New(city.G, fleet, Config{
		Pipeline: testConfig(), Shards: 2,
		QueueSize: len(orders) + 16, TraceRing: 512,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Metrics
			for !stop.Load() {
				m := e.Snapshot()
				if m.OrdersIngested < prev.OrdersIngested || m.Rounds < prev.Rounds ||
					m.Assigned < prev.Assigned || m.Delivered < prev.Delivered ||
					m.PingsIngested < prev.PingsIngested ||
					m.OrdersShed < prev.OrdersShed || m.PingsShed < prev.PingsShed {
					t.Errorf("counter went backwards: %+v then %+v", prev, m)
					return
				}
				if m.OrdersAdmitted > m.OrdersIngested {
					t.Errorf("admitted %d > ingested %d", m.OrdersAdmitted, m.OrdersIngested)
					return
				}
				if m.Rejected > m.OrdersAdmitted {
					t.Errorf("rejected %d > admitted %d", m.Rejected, m.OrdersAdmitted)
					return
				}
				if m.Delivered > m.Assigned {
					t.Errorf("delivered %d > assigned %d", m.Delivered, m.Assigned)
					return
				}
				var perShardDelivered int64
				for _, sm := range m.PerShard {
					perShardDelivered += sm.Delivered
				}
				if perShardDelivered != m.Delivered {
					t.Errorf("per-shard delivered %d != total %d", perShardDelivered, m.Delivered)
					return
				}
				e.TraceTail(16)
				var buf bytes.Buffer
				_ = e.Obs().WritePrometheus(&buf)
				prev = m
			}
		}()
	}

	delta := testConfig().Delta
	next := 0
	vid := fleet[0].ID
	for now := start + delta; now < end; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := e.PingVehicle(vid, fleet[0].Node); err != nil {
			t.Fatal(err)
		}
		e.Step(now)
	}
	stop.Store(true)
	wg.Wait()

	if got := e.Snapshot().PingsIngested; got == 0 {
		t.Fatal("PingsIngested never counted")
	}
}

func counterValue(t *testing.T, byName map[string][]obs.MetricPoint, name string, labels obs.Labels) float64 {
	t.Helper()
	p := findPoint(t, byName, name, labels)
	return p.Value
}

func histPoint(t *testing.T, byName map[string][]obs.MetricPoint, name string, labels obs.Labels) obs.MetricPoint {
	t.Helper()
	return findPoint(t, byName, name, labels)
}

func findPoint(t *testing.T, byName map[string][]obs.MetricPoint, name string, labels obs.Labels) obs.MetricPoint {
	t.Helper()
	for _, p := range byName[name] {
		if len(p.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	t.Fatalf("metric %s%v not found", name, labels)
	return obs.MetricPoint{}
}
