package engine

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"

	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newTestPolicy() policy.Policy { return policy.NewFoodMatch() }

// testCity memoises the CityB test substrate (generation dominates test
// time otherwise).
var testCityB = func() *workload.City {
	return workload.MustPreset("CityB", workload.DefaultScale, 1)
}()

func testConfig() *model.Config {
	cfg := model.DefaultConfig()
	return cfg
}

// replay drives an order stream through the engine API window by window —
// the deterministic analogue of the simulator's Run loop — and returns the
// distinct orders ever assigned plus the engine itself.
func replay(t testing.TB, city *workload.City, orders []*model.Order, fleet []*model.Vehicle,
	cfg Config, start, end float64) (*Engine, *trace.Recorder) {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Trace = rec
	if cfg.QueueSize == 0 {
		cfg.QueueSize = len(orders) + 16
	}
	e, err := New(city.G, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta := e.cfg.Pipeline.Delta
	drainEnd := end + 7200
	next := 0
	for now := start + delta; now < drainEnd; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatalf("submit order %d: %v", orders[next].ID, err)
			}
			next++
		}
		e.Step(now)
		if now >= end && next == len(orders) && e.Idle() {
			break
		}
	}
	return e, rec
}

func distinctAssigned(rec *trace.Recorder) int {
	seen := make(map[model.OrderID]bool)
	for _, e := range rec.Filter(trace.OrderAssigned) {
		seen[e.Order] = true
	}
	return len(seen)
}

// TestShardedMatchesUnsharded replays the CityB dinner peak through the
// Engine API at 4 shards and checks assignment and delivery counts against
// the unsharded engine under the same policy, config and seed (the
// acceptance bar is 5%).
func TestShardedMatchesUnsharded(t *testing.T) {
	city := testCityB
	start, end := 18.0*3600, 20.0*3600

	run := func(shards int) (assigned int, snap Metrics) {
		orders := workload.OrderStreamWindow(city, 1, start, end)
		fleet := city.Fleet(1.0, testConfig().MaxO, 1)
		e, rec := replay(t, city, orders, fleet,
			Config{Pipeline: testConfig(), Shards: shards}, start, end)
		snap = e.Snapshot()
		if int(snap.OrdersAdmitted) != len(orders) {
			t.Errorf("shards=%d: admitted %d of %d orders", shards, snap.OrdersAdmitted, len(orders))
		}
		return distinctAssigned(rec), snap
	}
	oneAssigned, one := run(1)
	if oneAssigned == 0 {
		t.Fatal("unsharded engine assigned nothing; workload broken")
	}
	engAssigned, snap := run(4)
	t.Logf("shards=4: assigned %d (unsharded %d), delivered %d (unsharded %d), rejected %d (unsharded %d), handoffs %d",
		engAssigned, oneAssigned, snap.Delivered, one.Delivered, snap.Rejected, one.Rejected, snap.Handoffs)
	if relDiff(float64(engAssigned), float64(oneAssigned)) > 0.05 {
		t.Errorf("shards=4: assigned %d, unsharded %d — diverges more than 5%%", engAssigned, oneAssigned)
	}
	if relDiff(float64(snap.Delivered), float64(one.Delivered)) > 0.05 {
		t.Errorf("shards=4: delivered %d, unsharded %d — diverges more than 5%%", snap.Delivered, one.Delivered)
	}
}

// TestOnlineLedgerOracle checks the shard ledgers of a parallel 2-shard
// replay against an oracle rebuilt from the event stream: Snapshot's
// delivered count and XDT are exactly the orders the trace saw delivered,
// and every shard's ledger is internally consistent.
func TestOnlineLedgerOracle(t *testing.T) {
	city := testCityB
	start, end := 18.0*3600, 18.25*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	byID := make(map[model.OrderID]*model.Order, len(orders))
	for _, o := range orders {
		byID[o.ID] = o
	}
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	e, rec := replay(t, city, orders, fleet,
		Config{Pipeline: testConfig(), Shards: 2, Workers: 2}, start, end)
	if !e.Idle() {
		t.Fatal("replay did not drain")
	}
	delivered := rec.Filter(trace.OrderDelivered)
	xdt := 0.0
	for _, ev := range delivered {
		xdt += byID[ev.Order].XDT()
	}
	snap := e.Snapshot()
	if len(delivered) == 0 || snap.Delivered != int64(len(delivered)) {
		t.Fatalf("Snapshot delivered %d, trace delivered %d", snap.Delivered, len(delivered))
	}
	if relDiff(snap.XDTSec, xdt) > 1e-9 {
		t.Fatalf("Snapshot XDT %v s, Σ order XDT %v s", snap.XDTSec, xdt)
	}
	// Handoffs let a zone deliver orders placed in another zone, so the
	// delivered+rejected+stranded ≤ placed bound holds engine-wide: each
	// shard's ledger is validated against the engine's placements, and the
	// sum of the ledgers against its own.
	ledgers := make([]sim.Metrics, len(e.shards))
	sum := sim.NewMetrics(testConfig().MaxO)
	for i, s := range e.shards {
		s.hookMu.Lock()
		ledgers[i] = *s.ledger
		s.hookMu.Unlock()
		m := &ledgers[i]
		sum.TotalOrders += m.TotalOrders
		sum.Delivered += m.Delivered
		sum.Rejected += m.Rejected
		sum.Stranded += m.Stranded
		sum.DistM += m.DistM
		for k, d := range m.LoadDistM {
			sum.LoadDistM[k] += d
		}
	}
	for i := range ledgers {
		ledgers[i].TotalOrders = sum.TotalOrders
		if err := ledgers[i].Validate(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if err := sum.Validate(); err != nil {
		t.Fatalf("Σ shard ledgers: %v", err)
	}
	if int64(sum.TotalOrders) != snap.OrdersAdmitted || int64(sum.Rejected) != snap.Rejected ||
		sum.Delivered+sum.Rejected+sum.Stranded != sum.TotalOrders {
		t.Fatalf("Σ ledgers placed %d delivered %d rejected %d stranded %d; Snapshot admitted %d rejected %d",
			sum.TotalOrders, sum.Delivered, sum.Rejected, sum.Stranded, snap.OrdersAdmitted, snap.Rejected)
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}

func TestSharderPartition(t *testing.T) {
	g := testCityB.G
	for _, k := range []int{1, 2, 4, 7} {
		sh := newSharder(g, k)
		counts := make([]int, k)
		for i := 0; i < g.NumNodes(); i++ {
			s := sh.shardOf(roadnet.NodeID(i))
			if s < 0 || s >= k {
				t.Fatalf("k=%d: node %d in out-of-range shard %d", k, i, s)
			}
			counts[s]++
		}
		lo, hi := g.NumNodes(), 0
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if lo == 0 {
			t.Fatalf("k=%d: empty shard (counts %v)", k, counts)
		}
		if float64(hi) > 1.5*float64(lo)+1 {
			t.Fatalf("k=%d: unbalanced shards (counts %v)", k, counts)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	city := testCityB
	fleet := city.Fleet(0.2, 3, 1)
	e, err := New(city.G, fleet, Config{Pipeline: testConfig(), QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id model.OrderID) *model.Order {
		return &model.Order{ID: id, Restaurant: city.Restaurants[0], Customer: 1, PlacedAt: 100, Items: 1, Prep: 300}
	}
	if err := e.SubmitOrder(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitOrder(mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitOrder(mk(3)); err != ErrQueueFull {
		t.Fatalf("third submit: got %v, want ErrQueueFull", err)
	}
	if shed := e.Snapshot().OrdersShed; shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	// A round drains the queue; ingestion is accepted again.
	e.Step(200)
	if err := e.SubmitOrder(mk(4)); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if err := e.SubmitOrder(nil); err == nil {
		t.Fatal("nil order accepted")
	}
	bad := mk(5)
	bad.Restaurant = roadnet.NodeID(city.G.NumNodes())
	if err := e.SubmitOrder(bad); err == nil {
		t.Fatal("out-of-range restaurant accepted")
	}
}

func TestAssignmentStream(t *testing.T) {
	city := testCityB
	start := 19.0 * 3600
	orders := workload.OrderStreamWindow(city, 1, start, start+120)
	if len(orders) == 0 {
		t.Skip("no orders in the slice")
	}
	fleet := city.Fleet(1.0, 3, 1)
	e, err := New(city.G, fleet, Config{Pipeline: testConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Subscribe(256)
	defer sub.Cancel()
	for _, o := range orders {
		if err := e.SubmitOrder(o); err != nil {
			t.Fatal(err)
		}
	}
	stats := e.Step(start + 180)
	if stats.AssignedOrders == 0 {
		t.Fatalf("round assigned nothing from %d orders", len(orders))
	}
	var decisions, rounds int
	for {
		select {
		case ev := <-sub.C:
			switch {
			case ev.Decision != nil:
				decisions++
				if len(ev.Decision.Orders) == 0 {
					t.Fatal("decision without orders")
				}
				if ev.Decision.Shard < 0 || ev.Decision.Shard >= 2 {
					t.Fatalf("decision from unknown shard %d", ev.Decision.Shard)
				}
			case ev.Round != nil:
				rounds++
				if ev.Round.AssignedOrders != stats.AssignedOrders {
					t.Fatalf("round event: assigned %d, want %d", ev.Round.AssignedOrders, stats.AssignedOrders)
				}
			}
		default:
			if decisions == 0 || rounds != 1 {
				t.Fatalf("stream saw %d decisions, %d rounds", decisions, rounds)
			}
			if sub.Dropped() != 0 {
				t.Fatalf("dropped %d events with a roomy buffer", sub.Dropped())
			}
			// A cancelled subscription no longer receives.
			sub.Cancel()
			e.Step(start + 360)
			if _, open := <-sub.C; open {
				t.Fatal("cancelled subscription channel still open")
			}
			return
		}
	}
}

func TestCrossShardHandoff(t *testing.T) {
	city := testCityB
	e, err := New(city.G, nil, Config{Pipeline: testConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Find a shard-1 restaurant within the handoff margin of shard 0 and
	// park every vehicle in shard 0; the starved home zone must hand the
	// order off to the supplied one.
	var rest roadnet.NodeID = roadnet.Invalid
	for _, r := range city.Restaurants {
		if e.sh.shardOf(r) == 1 && slices.Contains(e.sh.nearShards(nil, city.G.Point(r), 1, boundaryM), 0) {
			rest = r
			break
		}
	}
	if rest == roadnet.Invalid {
		t.Skip("no shard-1 restaurant near shard 0")
	}
	// Park in shard 0 as close to the restaurant as possible so the first
	// mile stays feasible and only the zone boundary separates them.
	var park roadnet.NodeID = roadnet.Invalid
	bestD := math.Inf(1)
	restPt := city.G.Point(rest)
	for i := 0; i < city.G.NumNodes(); i++ {
		n := roadnet.NodeID(i)
		if e.sh.shardOf(n) != 0 {
			continue
		}
		if d := geo.Haversine(restPt, city.G.Point(n)); d < bestD {
			bestD = d
			park = n
		}
	}
	fleet := []*model.Vehicle{model.NewVehicle(1, park, 3), model.NewVehicle(2, park, 3)}
	e, err = New(city.G, fleet, Config{Pipeline: testConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := &model.Order{ID: 1, Restaurant: rest, Customer: park, PlacedAt: 100, Items: 1, Prep: 300}
	if err := e.SubmitOrder(o); err != nil {
		t.Fatal(err)
	}
	stats := e.Step(300)
	if stats.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", stats.Handoffs)
	}
	if stats.AssignedOrders != 1 {
		t.Fatalf("handed-off order not assigned (stats %+v)", stats)
	}
	if o.AssignedTo != 1 && o.AssignedTo != 2 {
		t.Fatalf("order assigned to %d", o.AssignedTo)
	}
}

func TestPingRelocatesOnlyIdleVehicles(t *testing.T) {
	city := testCityB
	fleet := []*model.Vehicle{model.NewVehicle(1, 0, 3)}
	e, err := New(city.G, fleet, Config{Pipeline: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PingVehicle(1, 5); err != nil {
		t.Fatal(err)
	}
	e.Step(60)
	if fleet[0].Node != 5 {
		t.Fatalf("idle vehicle not relocated: node %d", fleet[0].Node)
	}
	if err := e.PingVehicle(99, 5); err == nil {
		t.Fatal("ping for unknown vehicle accepted")
	}
	// Give the vehicle work, then ping: position must come from movement.
	o := &model.Order{ID: 1, Restaurant: city.Restaurants[0], Customer: 10, PlacedAt: 70, Items: 1, Prep: 600}
	if err := e.SubmitOrder(o); err != nil {
		t.Fatal(err)
	}
	e.Step(240)
	if o.AssignedTo != 1 {
		t.Skipf("order not assigned (%v), cannot exercise busy ping", o.State)
	}
	if err := e.PingVehicle(1, 0); err != nil {
		t.Fatal(err)
	}
	e.Step(241)
	if fleet[0].Node == 0 && fleet[0].Plan != nil && !fleet[0].Plan.Empty() {
		t.Fatal("busy vehicle teleported by ping")
	}
}

func TestStartStop(t *testing.T) {
	city := testCityB
	fleet := city.Fleet(0.3, 3, 1)
	cfg := testConfig()
	cfg.Delta = 60
	e, err := New(city.G, fleet, Config{Pipeline: cfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := 19.0 * 3600
	orders := workload.OrderStreamWindow(testCityB, 1, start, start+600)
	for _, o := range orders {
		if err := e.SubmitOrder(o); err != nil {
			t.Fatal(err)
		}
	}
	// 60 sim-seconds per ~5ms wall tick.
	if err := e.Start(start, 12000); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(start, 12000); err != ErrRunning {
		t.Fatalf("double start: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for e.Snapshot().Rounds < 5 {
		select {
		case <-deadline:
			t.Fatal("engine made no progress under the real-time clock")
		case <-time.After(10 * time.Millisecond):
		}
	}
	e.Stop()
	e.Stop() // idempotent
	snap := e.Snapshot()
	if snap.Rounds < 5 || snap.Clock <= start {
		t.Fatalf("snapshot after stop: %+v", snap)
	}
	if len(orders) > 0 && snap.OrdersAdmitted == 0 {
		t.Fatal("no orders admitted by the running engine")
	}
}
