package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// offlineDinner runs the CityB 18:00–18:30 slice (the same slice as
// goldenReplay) through the offline Simulator and returns the recorded
// event stream, the metrics and every RoundStats handed to OnRound.
func offlineDinner(t *testing.T, onRound bool) (*trace.Recorder, string, []RoundStats) {
	t.Helper()
	city := testCityB
	start, end := 18.0*3600, 18.5*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	rec := trace.NewRecorder()
	opts := SimOptions{Trace: rec, SLASec: 1800}
	var rounds []RoundStats
	if onRound {
		opts.OnRound = func(rs RoundStats) { rounds = append(rounds, rs) }
	}
	s, err := NewSimulator(city.G, orders, fleet, newTestPolicy(), testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(start, end)

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
