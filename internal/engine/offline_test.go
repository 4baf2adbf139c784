package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// offlineDinnerStart / offlineDinnerEnd bound the CityB slice the offline
// tests replay (the same slice as goldenReplay).
const offlineDinnerStart, offlineDinnerEnd = 18.0 * 3600, 18.5 * 3600

// newOfflineDinner builds a Simulator over the CityB 18:00–18:30 slice,
// emitting the event stream into rec (nil = discard); onRound (nil =
// unset) becomes SimOptions.OnRound, which switches the obs plane on.
func newOfflineDinner(t *testing.T, rec trace.Sink, onRound func(RoundStats)) *Simulator {
	t.Helper()
	city := testCityB
	orders := workload.OrderStreamWindow(city, 1, offlineDinnerStart, offlineDinnerEnd)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	opts := SimOptions{Trace: rec, SLASec: 1800, OnRound: onRound}
	s, err := NewSimulator(city.G, orders, fleet, newTestPolicy(), testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// offlineDinner runs the offline dinner slice and returns the recorded
// event stream, the metrics and every RoundStats handed to OnRound.
func offlineDinner(t *testing.T, onRound bool) (*trace.Recorder, string, []RoundStats) {
	t.Helper()
	rec := trace.NewRecorder()
	var rounds []RoundStats
	var cb func(RoundStats)
	if onRound {
		cb = func(rs RoundStats) { rounds = append(rounds, rs) }
	}
	m := newOfflineDinner(t, rec, cb).Run(offlineDinnerStart, offlineDinnerEnd)

	var lines []string
	for _, ev := range rec.Snapshot() {
		if ev.Kind == trace.OrderAdmitted || ev.Kind == trace.WindowClosed {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s t=%.6f order=%d vehicle=%d", ev.Kind, ev.T, ev.Order, ev.Vehicle))
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "metrics orders=%v delivered=%v rejected=%v stranded=%v xdt_sec=%v rejection_penalty_sec=%v delivery_sec=%v wait_sec=%v sla_violations=%v dist_m=%v load_dist_m=%v reassignments=%v windows=%v\n",
		m.TotalOrders, m.Delivered, m.Rejected, m.Stranded, m.XDTSec, m.RejectionPenaltySec,
		m.DeliverySec, m.WaitSec, m.SLAViolations, m.DistM, m.LoadDistM, m.Reassignments, m.Windows)
	return rec, b.String(), rounds
}

// TestGoldenOfflineCityBDinner pins the offline path byte-for-byte: every
// order event (sorted; times to 1e-6) and every wall-clock-free scalar of
// the paper metrics. The fixture was rendered by the pre-engine window loop
// (sim.Simulator at 3ce7aef), so it is also the proof that the replay driver
// reproduces that loop decision for decision.
func TestGoldenOfflineCityBDinner(t *testing.T) {
	_, got, _ := offlineDinner(t, false)
	checkGolden(t, got, "offline_cityb_dinner.golden")
	// Turning the observability plane on (OnRound) must not move a decision.
	if _, withObs, _ := offlineDinner(t, true); withObs != got {
		t.Fatal("offline run with OnRound set diverges from the run without")
	}
}

// TestOfflineWindowClosedCountsOrders pins the one meaning of
// WindowClosed.Assignments — orders, not batches: it equals the
// RoundStats.AssignedOrders handed to OnRound at the same T, so the derived
// queue depth never goes negative.
func TestOfflineWindowClosedCountsOrders(t *testing.T) {
	rec, _, rounds := offlineDinner(t, true)
	closed := rec.Filter(trace.WindowClosed)
	if len(closed) == 0 || len(closed) != len(rounds) {
		t.Fatalf("%d WindowClosed events for %d rounds", len(closed), len(rounds))
	}
	batched := false
	for i, ev := range closed {
		rs := rounds[i]
		if ev.T != rs.T || ev.Assignments != rs.AssignedOrders {
			t.Fatalf("window %d: WindowClosed{T:%v Assignments:%d} vs RoundStats{T:%v AssignedOrders:%d}",
				i, ev.T, ev.Assignments, rs.T, rs.AssignedOrders)
		}
		if rs.AssignedOrders > rs.Shards[0].Assignments {
			batched = true
		}
	}
	if !batched {
		t.Fatal("no window assigned a multi-order batch; orders vs batches would be indistinguishable")
	}
	for _, q := range rec.QueueDepth() {
		if q.Depth < 0 {
			t.Fatalf("negative queue depth %d at t=%v", q.Depth, q.T)
		}
	}
}

// TestOfflineSnapshotMatchesMetrics pins the one-ledger contract: the
// Section V metrics the Simulator returns are the engine's own shard
// ledger, so Snapshot (and, with obs on, the Prometheus exposition) reports
// the same movement-plane totals bit for bit.
func TestOfflineSnapshotMatchesMetrics(t *testing.T) {
	for _, onRound := range []bool{false, true} {
		var cb func(RoundStats)
		if onRound {
			cb = func(RoundStats) {}
		}
		s := newOfflineDinner(t, trace.NewRecorder(), cb)
		m := s.Run(offlineDinnerStart, offlineDinnerEnd)
		if m.Delivered == 0 {
			t.Fatal("offline dinner slice delivered nothing")
		}
		snap := s.e.Snapshot()
		if snap.Delivered != int64(m.Delivered) || snap.Stranded != int64(m.Stranded) ||
			snap.XDTSec != m.XDTSec || snap.WaitSec != m.WaitSec || snap.DistKm != m.DistM/1000 {
			t.Fatalf("onRound=%v: Snapshot delivered=%d stranded=%d xdt=%v wait=%v dist_km=%v; "+
				"Metrics delivered=%d stranded=%d xdt=%v wait=%v dist_m=%v", onRound,
				snap.Delivered, snap.Stranded, snap.XDTSec, snap.WaitSec, snap.DistKm,
				m.Delivered, m.Stranded, m.XDTSec, m.WaitSec, m.DistM)
		}
		if !onRound {
			continue
		}
		byName := map[string][]obs.MetricPoint{}
		for _, p := range s.e.Obs().Gather() {
			byName[p.Name] = append(byName[p.Name], p)
		}
		if got := counterValue(t, byName, "foodmatch_orders_total", obs.Labels{"event": "delivered"}); got != float64(m.Delivered) {
			t.Fatalf("foodmatch_orders_total{event=delivered} = %v, Metrics.Delivered = %d", got, m.Delivered)
		}
		assertBooksAgree(t, s.e)
	}
}

// TestOfflineConservesOrders checks ROADMAP's conservation invariant on the
// offline path: after Run — and after a RunContext cancelled mid-run — every
// admitted order is delivered, rejected or stranded exactly once, in the
// engine's totals and in the returned metrics alike.
func TestOfflineConservesOrders(t *testing.T) {
	for _, cancelAfter := range []int{0, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		s := newOfflineDinner(t, nil, func(RoundStats) {
			if rounds++; rounds == cancelAfter {
				cancel()
			}
		})
		m := s.RunContext(ctx, offlineDinnerStart, offlineDinnerEnd)
		cancel()
		if cancelAfter > 0 && rounds != cancelAfter {
			t.Fatalf("cancelled run stepped %d rounds, want %d", rounds, cancelAfter)
		}
		snap := s.e.Snapshot()
		closed := snap.Delivered + snap.Rejected + snap.Stranded
		if snap.OrdersAdmitted == 0 || snap.OrdersAdmitted != closed || snap.OrdersAdmitted != int64(m.TotalOrders) {
			t.Fatalf("cancelAfter=%d: admitted %d, delivered %d + rejected %d + stranded %d = %d, Metrics.TotalOrders %d",
				cancelAfter, snap.OrdersAdmitted, snap.Delivered, snap.Rejected, snap.Stranded, closed, m.TotalOrders)
		}
		if m.Delivered+m.Rejected+m.Stranded != m.TotalOrders || snap.Rejected != int64(m.Rejected) {
			t.Fatalf("cancelAfter=%d: Metrics delivered %d + rejected %d + stranded %d != total %d (Snapshot rejected %d)",
				cancelAfter, m.Delivered, m.Rejected, m.Stranded, m.TotalOrders, snap.Rejected)
		}
		assertBooksAgree(t, s.e)
	}
}
