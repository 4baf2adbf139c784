package engine

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/workload"
)

// crashPanic is the fault injector's sentinel: the phaseHook throws it when
// the target (round, phase) is reached, simulating a process kill at an
// arbitrary point inside the phased round. Only what reached disk — the WAL
// and the last checkpoint — survives into the resumed engine.
type crashPanic struct{ phase string }

// crashOutcome is what a full run (crashed+resumed or golden) ends with.
type crashOutcome struct {
	delivered, rejected, assigned int64
	resplits                      int64
	total                         int
}

// crashGoldenRun drives the uncrashed CityB reference replay. mutate
// (optional) adjusts the engine Config — the re-split composition test uses
// it to run the same fault-injection harness on a multi-shard elastic
// engine.
func crashGoldenRun(mutate func(*Config)) crashOutcome {
	city := testCityB
	start, end := 18.0*3600, 18.5*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	cfg := Config{
		Pipeline: testConfig(), Shards: 1, Workers: 1, QueueSize: len(orders) + 16,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(city.G, fleet, cfg)
	if err != nil {
		panic(err)
	}
	delta := e.cfg.Pipeline.Delta
	next := 0
	for now := start + delta; now < end+7200; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				panic(err)
			}
			next++
		}
		e.Step(now)
		if now >= end && next == len(orders) && e.Idle() {
			break
		}
	}
	snap := e.Snapshot()
	return crashOutcome{
		delivered: snap.Delivered, rejected: snap.Rejected,
		assigned: snap.Assigned, resplits: snap.Resplits, total: len(orders),
	}
}

// goldenCrashOutcome memoises the uncrashed CityB reference run shared by
// every fault-injection subtest.
var goldenCrashOutcome = sync.OnceValue(func() crashOutcome {
	return crashGoldenRun(nil)
})

// resplitCrashCfg is the elastic-sharding configuration the re-split
// composition tests share: two zones, deterministic Workers=1, and a
// cadence that fires a demand-driven re-split a handful of rounds into the
// dinner replay.
func resplitCrashCfg(cfg *Config) {
	cfg.Shards = 2
	cfg.ResplitSec = 300
}

// goldenResplitOutcome memoises the uncrashed reference run for the
// re-split configuration.
var goldenResplitOutcome = sync.OnceValue(func() crashOutcome {
	return crashGoldenRun(resplitCrashCfg)
})

// crashResumeTrial drives the CityB dinner slice through a WAL-backed
// engine, kills it (by injected panic) at targetPhase of round crashRound,
// then boots a second engine from the last durable checkpoint plus the WAL
// tail — exactly the daemon's recovery path — and finishes the replay on
// it. ckptEvery is the checkpoint cadence in rounds; 0 disables
// checkpointing entirely, so recovery runs from the WAL alone.
func crashResumeTrial(t *testing.T, targetPhase string, crashRound, ckptEvery int) crashOutcome {
	return crashResumeTrialCfg(t, targetPhase, crashRound, ckptEvery, nil)
}

// crashResumeTrialCfg is crashResumeTrial with a Config mutator applied to
// both the crashed engine and the recovery engine (the daemon reboots with
// the same flags it crashed under). crashRound < 0 kills at the *first*
// occurrence of targetPhase — the only usable targeting for phases that run
// on a cadence rather than every round, like "resplit".
func crashResumeTrialCfg(t *testing.T, targetPhase string, crashRound, ckptEvery int, mutate func(*Config)) crashOutcome {
	t.Helper()
	city := testCityB
	start, end := 18.0*3600, 18.5*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	dir := t.TempDir()

	wlog, recovered, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh WAL dir recovered %d records", len(recovered))
	}
	cfg := Config{
		Pipeline: testConfig(), Shards: 1, Workers: 1,
		QueueSize: len(orders) + 16, WAL: wlog,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	round := 0
	crashed := false
	cfg.phaseHook = func(ph string) {
		if ph == "drain" {
			round++
		}
		if crashed {
			return // the dead engine's hook: the trial crashes once
		}
		if (round == crashRound || crashRound < 0) && ph == targetPhase {
			crashed = true
			panic(crashPanic{ph})
		}
	}
	e, err := New(city.G, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// lastCkpt holds the newest durable checkpoint document (the bytes the
	// daemon would have renamed into checkpoint.json); resumeClock is the
	// window it was cut at.
	var lastCkpt []byte
	var resumeClock float64
	checkpoint := func() {
		var buf bytes.Buffer
		doc, err := e.WriteCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		lastCkpt = buf.Bytes()
		resumeClock = float64(doc.Clock)
		if err := wlog.Rotate(); err != nil {
			t.Fatal(err)
		}
		if _, err := wlog.TruncateThrough(doc.WALTruncateSeq()); err != nil {
			t.Fatal(err)
		}
	}

	step := func(now float64) (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashPanic); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		e.Step(now)
		return false
	}

	delta := e.cfg.Pipeline.Delta
	next := 0
	win := 0
	for now := start + delta; now < end+7200; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatalf("submit order %d: %v", orders[next].ID, err)
			}
			next++
		}
		if step(now) {
			// The process is dead: only the WAL segments and lastCkpt
			// survive. Reopen the log (the dead engine's handle is simply
			// abandoned, like a real kill) and rebuild.
			wlog2, recs, err := wal.Open(dir, wal.Options{SyncEvery: 1})
			if err != nil {
				t.Fatalf("reopen wal: %v", err)
			}
			fleet2 := city.Fleet(1.0, testConfig().MaxO, 1)
			cfg2 := Config{
				Pipeline: testConfig(), Shards: 1, Workers: 1,
				QueueSize: len(orders) + 16, WAL: wlog2,
			}
			if mutate != nil {
				mutate(&cfg2)
			}
			e2, err := New(city.G, fleet2, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			from := start
			if lastCkpt != nil {
				doc, err := ReadCheckpoint(bytes.NewReader(lastCkpt))
				if err != nil {
					t.Fatal(err)
				}
				if err := e2.RestoreCheckpoint(doc); err != nil {
					t.Fatal(err)
				}
				from = resumeClock
			}
			ro, rp, err := e2.ReplayWAL(recs)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("phase=%s: crashed round %d, restored clock=%.0f, replayed %d orders %d pings",
				targetPhase, crashRound, from, ro, rp)
			assertNoDoubleAssignment(t, e2)
			e = e2
			wlog = wlog2
			// Re-run the windows the crash erased, then the crashed window
			// itself. Replayed orders sit in the future buffer and re-admit
			// at their original windows, so the rounds reproduce exactly.
			for tw := from + delta; tw < now; tw += delta {
				e.Step(tw)
			}
			e.Step(now)
		}
		win++
		if ckptEvery > 0 && win%ckptEvery == 0 {
			checkpoint()
		}
		if now >= end && next == len(orders) && e.Idle() {
			break
		}
	}
	assertNoDoubleAssignment(t, e)
	snap := e.Snapshot()
	return crashOutcome{
		delivered: snap.Delivered, rejected: snap.Rejected,
		assigned: snap.Assigned, resplits: snap.Resplits, total: len(orders),
	}
}

// assertNoDoubleAssignment walks the engine's world state and fails if any
// order rides on two vehicles, or disagrees with its vehicle about the
// assignment. The engine must be quiescent (between Steps).
func assertNoDoubleAssignment(t *testing.T, e *Engine) {
	t.Helper()
	owner := make(map[model.OrderID]model.VehicleID)
	for _, mo := range e.motions {
		v := mo.V
		for _, o := range v.Pending {
			if prev, dup := owner[o.ID]; dup {
				t.Fatalf("order %d pending on vehicle %d and already on %d", o.ID, v.ID, prev)
			}
			owner[o.ID] = v.ID
			if o.AssignedTo != v.ID {
				t.Errorf("order %d pending on vehicle %d but AssignedTo=%d", o.ID, v.ID, o.AssignedTo)
			}
		}
		for _, o := range v.Onboard {
			if prev, dup := owner[o.ID]; dup {
				t.Fatalf("order %d onboard vehicle %d and already on %d", o.ID, v.ID, prev)
			}
			owner[o.ID] = v.ID
			if o.AssignedTo != v.ID {
				t.Errorf("order %d onboard vehicle %d but AssignedTo=%d", o.ID, v.ID, o.AssignedTo)
			}
		}
	}
}

// TestCrashResumeAtEveryPhase kills the engine at each phase of the phased
// round during a CityB replay and checks the recovered run converges to the
// golden (uncrashed) outcome: zero lost orders, zero double assignments, and
// — because the single-shard Step-driven replay is deterministic — exactly
// the golden delivered/rejected/assigned counts.
func TestCrashResumeAtEveryPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("CityB fault-injection replays are slow")
	}
	golden := goldenCrashOutcome()
	if golden.delivered == 0 {
		t.Fatal("golden run delivered nothing; workload broken")
	}
	for _, phase := range []string{"drain", "advance", "handoff", "match", "apply"} {
		t.Run(phase, func(t *testing.T) {
			got := crashResumeTrial(t, phase, 5, 3)
			if got != golden {
				t.Errorf("resumed outcome %+v, golden %+v", got, golden)
			}
			if got.delivered+got.rejected != int64(got.total) {
				t.Errorf("delivered %d + rejected %d != %d submitted orders (lost or stuck)",
					got.delivered, got.rejected, got.total)
			}
		})
	}
	t.Run("no-checkpoint", func(t *testing.T) {
		// Crash before any checkpoint exists: recovery replays the WAL alone
		// into a fresh engine from the start of time.
		got := crashResumeTrial(t, "match", 3, 0)
		if got != golden {
			t.Errorf("WAL-only resumed outcome %+v, golden %+v", got, golden)
		}
	})
}

// TestCrashResumeAtResplit extends the phase-kill walker to the elastic
// sharding plane: a two-shard engine with a forced re-split cadence is
// killed inside (and around) the "resplit" barrier phase, recovered from
// checkpoint+WAL — so the restored engine rebuilds the demand-weighted
// partition, replays, and re-executes the erased re-split — and must
// converge to the uncrashed run's exact lifecycle counts, including the
// re-split count itself.
func TestCrashResumeAtResplit(t *testing.T) {
	if testing.Short() {
		t.Skip("CityB fault-injection replays are slow")
	}
	golden := goldenResplitOutcome()
	if golden.delivered == 0 {
		t.Fatal("golden resplit run delivered nothing; workload broken")
	}
	if golden.resplits == 0 {
		t.Fatal("golden resplit run never re-split; the composition test measures nothing")
	}
	cases := []struct {
		name       string
		phase      string
		crashRound int
		ckptEvery  int
	}{
		// Killed inside the re-split itself, with checkpoints every window:
		// recovery restores a pre-re-split cut and must re-execute the
		// re-split during the erased-window replay.
		{"resplit-ckpt", "resplit", -1, 1},
		// Killed inside the re-split with no checkpoint at all: recovery
		// replays the WAL from the start of time and re-splits on the way.
		{"resplit-wal-only", "resplit", -1, 0},
		// Killed at the barrier and match phases of a round after the first
		// re-split: the checkpoint restored here carries a re-split
		// partition (PartDemand), composing restore → re-split → replay.
		{"handoff-post-resplit", "handoff", 6, 3},
		{"match-post-resplit", "match", 6, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := crashResumeTrialCfg(t, tc.phase, tc.crashRound, tc.ckptEvery, resplitCrashCfg)
			if got != golden {
				t.Errorf("resumed outcome %+v, golden %+v", got, golden)
			}
			if got.delivered+got.rejected != int64(got.total) {
				t.Errorf("delivered %d + rejected %d != %d submitted orders (lost or stuck)",
					got.delivered, got.rejected, got.total)
			}
		})
	}
}

// TestCheckpointRoundTripDeterministic checkpoints a mid-replay engine,
// restores the document into a fresh engine, and re-exports: the bytes must
// match exactly (same orders, same pool/future order, same vehicle motion,
// same counters), and the restored engine must keep replaying to the same
// final outcome as the original.
func TestCheckpointRoundTripDeterministic(t *testing.T) {
	city := testCityB
	start, end := 18.0*3600, 18.4*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	mk := func() *Engine {
		// A 5% fleet cannot keep up with the dinner slice, so the cut
		// catches a real backlog: pooled orders, assigned-but-unpicked
		// orders, and (below) scheduled future orders.
		e, err := New(city.G, city.Fleet(0.05, testConfig().MaxO, 1), Config{
			Pipeline: testConfig(), Shards: 2, Workers: 1, QueueSize: len(orders) + 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := mk()
	delta := e.cfg.Pipeline.Delta
	next := 0
	mid := start + 12*delta
	var now float64
	for now = start + delta; now <= mid; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		e.Step(now)
	}
	// Park a few scheduled orders in the future buffer so the cut covers it.
	for i := 0; i < 3; i++ {
		if err := e.SubmitOrder(&model.Order{
			ID: model.OrderID(900_001 + i), Restaurant: 5, Customer: 700,
			PlacedAt: end + 1800 + float64(i), Items: 1, Prep: 300, AssignedTo: -1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Step(now)
	now += delta

	var b1 bytes.Buffer
	doc1, err := e.WriteCheckpoint(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc1.Orders) == 0 || len(doc1.Pool) == 0 || len(doc1.Future) < 3 {
		t.Fatalf("mid-replay checkpoint missing coverage: %d orders, %d pool, %d future",
			len(doc1.Orders), len(doc1.Pool), len(doc1.Future))
	}

	r := mk()
	doc, err := ReadCheckpoint(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpoint(doc); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if _, err := r.WriteCheckpoint(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("restore+re-export changed the document:\n%s\nvs\n%s", b1.String(), b2.String())
	}

	// Both engines finish the replay; the restored one must land on the
	// identical outcome (decision-identical continuation). The restored
	// engine gets its own copy of the remaining orders — the original
	// engine mutates the ones it is handed.
	finish := func(e *Engine, rest []*model.Order) Metrics {
		n := 0
		for nw := now; nw < end+7200; nw += delta {
			for n < len(rest) && rest[n].PlacedAt < nw {
				if err := e.SubmitOrder(rest[n]); err != nil {
					t.Fatal(err)
				}
				n++
			}
			e.Step(nw)
			if nw >= end && n == len(rest) && e.Idle() {
				break
			}
		}
		return e.Snapshot()
	}
	orders2 := workload.OrderStreamWindow(city, 1, start, end)
	s1 := finish(e, orders[next:])
	s2 := finish(r, orders2[next:])
	if s1.Delivered != s2.Delivered || s1.Rejected != s2.Rejected || s1.Assigned != s2.Assigned {
		t.Errorf("restored continuation diverged: delivered %d/%d rejected %d/%d assigned %d/%d",
			s1.Delivered, s2.Delivered, s1.Rejected, s2.Rejected, s1.Assigned, s2.Assigned)
	}
}

// TestReplayWALIdempotent submits orders and pings through a WAL-backed
// engine without draining them, then replays the recovered records into a
// fresh engine twice: the first pass applies everything, the second is a
// no-op because the high-waters have advanced past every sequence.
func TestReplayWALIdempotent(t *testing.T) {
	city := testCityB
	fleet := city.Fleet(0.2, testConfig().MaxO, 1)
	dir := t.TempDir()
	wlog, _, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(city.G, fleet, Config{Pipeline: testConfig(), Shards: 1, WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	const nOrders = 7
	for i := 0; i < nOrders; i++ {
		if err := e.SubmitOrder(&model.Order{
			ID: model.OrderID(i + 1), Restaurant: 10, Customer: 500,
			PlacedAt: 65_000 + float64(i), Items: 1, Prep: 300, AssignedTo: -1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	v := fleet[0]
	if err := e.PingVehicle(v.ID, v.Node); err != nil {
		t.Fatal(err)
	}
	if err := e.SetVehicleShift(fleet[1].ID, math.NaN(), 90_000); err != nil {
		t.Fatal(err)
	}

	_, recs, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != nOrders+2 {
		t.Fatalf("recovered %d records, want %d", len(recs), nOrders+2)
	}

	e2, err := New(city.G, city.Fleet(0.2, testConfig().MaxO, 1), Config{Pipeline: testConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ro, rp, err := e2.ReplayWAL(recs)
	if err != nil {
		t.Fatal(err)
	}
	if ro != nOrders || rp != 2 {
		t.Fatalf("first replay applied %d orders %d pings, want %d and 2", ro, rp, nOrders)
	}
	if got := e2.Snapshot().ScheduledDepth; got != nOrders {
		t.Fatalf("scheduled depth %d after replay, want %d", got, nOrders)
	}
	if to := e2.byID[fleet[1].ID].V.ActiveTo; to != 90_000 {
		t.Errorf("replayed shift ActiveTo=%v, want 90000", to)
	}
	ro, rp, err = e2.ReplayWAL(recs)
	if err != nil {
		t.Fatal(err)
	}
	if ro != 0 || rp != 0 {
		t.Fatalf("second replay applied %d orders %d pings, want 0 and 0 (not idempotent)", ro, rp)
	}
}

// TestReplayCountsEachOrderOnce pins the ingested totals across a restart:
// a checkpoint cut while accepted records still sit in the queue leaves them
// out of its totals, because ReplayWAL re-applies and re-counts exactly
// those. Five orders and two pings before the cut, three orders and one ping
// after it: the restored engine reads 8 and 3, on Snapshot and the registry.
func TestReplayCountsEachOrderOnce(t *testing.T) {
	city := testCityB
	fleet := city.Fleet(0.2, testConfig().MaxO, 1)
	dir := t.TempDir()
	wlog, _, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(city.G, fleet, Config{Pipeline: testConfig(), WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			if err := e.SubmitOrder(&model.Order{
				ID: model.OrderID(i), Restaurant: 10, Customer: 500,
				PlacedAt: 65_000 + float64(i), Items: 1, Prep: 300, AssignedTo: -1,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ping := func(v *model.Vehicle) {
		if err := e.PingVehicle(v.ID, v.Node); err != nil {
			t.Fatal(err)
		}
	}
	submit(1, 6)
	ping(fleet[0])
	ping(fleet[1])
	var buf bytes.Buffer
	if _, err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	submit(6, 9)
	ping(fleet[2])

	doc, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(city.G, city.Fleet(0.2, testConfig().MaxO, 1), Config{Pipeline: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreCheckpoint(doc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e2.ReplayWAL(recs); err != nil {
		t.Fatal(err)
	}
	if m := e2.Snapshot(); m.OrdersIngested != 8 || m.PingsIngested != 3 {
		t.Fatalf("restored engine counts %d orders and %d pings ingested, want 8 and 3", m.OrdersIngested, m.PingsIngested)
	}
	assertBooksAgree(t, e2)
}

// TestRestoreCheckpointGuards pins the restore preconditions: version
// mismatches, used engines, fleet mismatches and dangling references are
// rejected with the document untouched.
func TestRestoreCheckpointGuards(t *testing.T) {
	city := testCityB
	mk := func() *Engine {
		e, err := New(city.G, city.Fleet(0.2, testConfig().MaxO, 1), Config{Pipeline: testConfig(), Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := mk()
	doc := e.CheckpointState()

	t.Run("version", func(t *testing.T) {
		bad := *doc
		bad.Version = 99
		if err := mk().RestoreCheckpoint(&bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("used engine", func(t *testing.T) {
		used := mk()
		used.Step(66_000)
		if err := used.RestoreCheckpoint(doc); err != ErrEngineUsed {
			t.Fatalf("want ErrEngineUsed, got %v", err)
		}
	})
	t.Run("fleet mismatch", func(t *testing.T) {
		small, err := New(city.G, city.Fleet(0.1, testConfig().MaxO, 1), Config{Pipeline: testConfig(), Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := small.RestoreCheckpoint(doc); err == nil || !strings.Contains(err.Error(), "vehicles") {
			t.Fatalf("want fleet-size error, got %v", err)
		}
	})
	t.Run("dangling order ref", func(t *testing.T) {
		bad := *doc
		bad.Pool = append(append([]int64{}, doc.Pool...), 424242)
		if err := mk().RestoreCheckpoint(&bad); err == nil || !strings.Contains(err.Error(), "424242") {
			t.Fatalf("want dangling-reference error, got %v", err)
		}
	})
	t.Run("truncated document", func(t *testing.T) {
		var b bytes.Buffer
		if _, err := e.WriteCheckpoint(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(b.Bytes()[:b.Len()/2])); err == nil {
			t.Fatal("truncated checkpoint parsed without error")
		}
	})
}

// TestCheckpointF64Specials pins the ±Inf/NaN encoding: open shifts
// (ActiveTo=+Inf) and unreachable SDTs must survive the JSON round-trip.
func TestCheckpointF64Specials(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), 0, 1.5, -2.25} {
		b, err := F64(v).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back F64
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("%v: %v (json %s)", v, err, b)
		}
		if float64(back) != v {
			t.Errorf("%v round-tripped to %v via %s", v, float64(back), b)
		}
	}
	b, err := F64(math.NaN()).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back F64
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back)) {
		t.Errorf("NaN round-tripped to %v via %s", float64(back), b)
	}
	if err := back.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("bogus float string accepted")
	}
}

// BenchmarkCheckpoint measures the full capture+marshal cost on a mid-replay
// CityB engine — the round-latency overhead budget for periodic checkpoints.
func BenchmarkCheckpoint(b *testing.B) {
	city := testCityB
	start, end := 18.0*3600, 18.4*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	e, err := New(city.G, fleet, Config{Pipeline: testConfig(), Shards: 4, QueueSize: len(orders) + 16})
	if err != nil {
		b.Fatal(err)
	}
	delta := e.cfg.Pipeline.Delta
	next := 0
	for now := start + delta; now <= start+10*delta; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				b.Fatal(err)
			}
			next++
		}
		e.Step(now)
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		doc, err := e.WriteCheckpoint(&buf)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(doc.Orders) + buf.Len()
	}
	if sink == 0 {
		b.Fatal("checkpoints were empty")
	}
	_ = fmt.Sprintf("%d", sink)
}
