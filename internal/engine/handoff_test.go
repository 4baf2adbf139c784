package engine

import (
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// twoClusterCity builds a road network with two well-separated clusters (so
// a 2-way KD shard puts one cluster in each zone) joined by a fast corridor,
// and returns it with one node from each cluster.
func twoClusterCity(t *testing.T) (g *roadnet.Graph, left, right roadnet.NodeID) {
	t.Helper()
	b := roadnet.NewBuilder()
	const k = 4 // 4×4 grid per cluster
	add := func(lon0 float64) []roadnet.NodeID {
		ids := make([]roadnet.NodeID, 0, k*k)
		for r := 0; r < k; r++ {
			for c := 0; c < k; c++ {
				ids = append(ids, b.AddNode(geo.Point{Lat: 12.90 + float64(r)*1e-3, Lon: lon0 + float64(c)*1e-3}))
			}
		}
		for r := 0; r < k; r++ {
			for c := 0; c < k; c++ {
				if c+1 < k {
					b.AddEdge(ids[r*k+c], ids[r*k+c+1], 110, 20, 0)
					b.AddEdge(ids[r*k+c+1], ids[r*k+c], 110, 20, 0)
				}
				if r+1 < k {
					b.AddEdge(ids[r*k+c], ids[(r+1)*k+c], 110, 20, 0)
					b.AddEdge(ids[(r+1)*k+c], ids[r*k+c], 110, 20, 0)
				}
			}
		}
		return ids
	}
	lids := add(77.50)
	rids := add(77.60) // ~11 km east: a clean KD split line between clusters
	// Corridor joining the clusters (fast enough that cross-cluster
	// deliveries stay inside the first-mile bound).
	b.AddEdge(lids[k*k-1], rids[0], 11000, 120, 0)
	b.AddEdge(rids[0], lids[k*k-1], 11000, 120, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, lids[0], rids[k+1]
}

// TestVehicleCrossShardHandoffExactlyOnce drives one vehicle across the
// zone boundary mid-round (a delivery into the other cluster) and checks
// the shard-residency invariants: the vehicle is re-homed onto the zone its
// node landed in, it appears in exactly one shard's resident list, and an
// order matched after (and across) the crossing produces exactly one
// assignment decision.
func TestVehicleCrossShardHandoffExactlyOnce(t *testing.T) {
	g, left, right := twoClusterCity(t)
	v := model.NewVehicle(1, left, 3)
	e, err := New(g, []*model.Vehicle{v}, Config{Pipeline: testConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.sh.shardOf(left) == e.sh.shardOf(right) {
		t.Fatalf("clusters share a shard (%d); the fixture needs a boundary between them",
			e.sh.shardOf(left))
	}
	sub := e.Subscribe(64)
	defer sub.Cancel()

	homeOf := func() int { return int(e.rtByID[1].shard) }
	residency := func() int {
		n := 0
		for _, s := range e.shards {
			for _, rt := range s.motions {
				if rt.mo.V.ID == 1 {
					n++
					if int(rt.shard) != s.id {
						t.Fatalf("motion thinks it lives in shard %d but sits in shard %d's list", rt.shard, s.id)
					}
					if s.motions[rt.pos] != rt {
						t.Fatalf("stale residency index %d in shard %d", rt.pos, s.id)
					}
				}
			}
		}
		return n
	}

	if got := homeOf(); got != e.sh.shardOf(left) {
		t.Fatalf("initial home %d, want %d", got, e.sh.shardOf(left))
	}

	// An order picked up in the left cluster, delivered deep in the right
	// cluster: executing the plan drags the vehicle across the boundary.
	o1 := &model.Order{ID: 1, Restaurant: left, Customer: right, PlacedAt: 10, Items: 1, Prep: 1}
	if err := e.SubmitOrder(o1); err != nil {
		t.Fatal(err)
	}
	stats := e.Step(120)
	if stats.AssignedOrders != 1 {
		t.Fatalf("setup order not assigned: %+v", stats)
	}
	// Advance in ∆-sized rounds until the delivery lands.
	var crossed float64
	for now := 240.0; now < 7200; now += 120 {
		e.Step(now)
		if o1.State == model.OrderDelivered {
			crossed = now
			break
		}
	}
	if crossed == 0 {
		t.Fatalf("order never delivered (state %v, vehicle at %d)", o1.State, v.Node)
	}
	if got, want := homeOf(), e.sh.shardOf(v.Node); got != want {
		t.Fatalf("after crossing: homed in %d, node's zone is %d", got, want)
	}
	if homeOf() == e.sh.shardOf(left) {
		t.Fatalf("vehicle still homed in the departure zone after delivering at %d", v.Node)
	}
	if n := residency(); n != 1 {
		t.Fatalf("vehicle appears in %d resident lists, want exactly 1", n)
	}
	if snap := e.Snapshot(); snap.VehicleHandoffs == 0 {
		t.Fatal("no vehicle handoff counted")
	}

	// A fresh order in the right cluster must be matched by the vehicle's
	// NEW zone — and exactly once.
	o2 := &model.Order{ID: 2, Restaurant: v.Node, Customer: right, PlacedAt: crossed + 10, Items: 1, Prep: 1}
	if err := e.SubmitOrder(o2); err != nil {
		t.Fatal(err)
	}
	e.Step(crossed + 120)
	decisions := 0
	for {
		done := false
		select {
		case ev := <-sub.C:
			if ev.Decision != nil {
				for _, id := range ev.Decision.Orders {
					if id == 2 {
						decisions++
						if want := e.sh.shardOf(v.Node); ev.Decision.Shard != want {
							t.Fatalf("order 2 matched by shard %d, want the vehicle's new zone %d",
								ev.Decision.Shard, want)
						}
					}
				}
			}
		default:
			done = true
		}
		if done {
			break
		}
	}
	if decisions != 1 {
		t.Fatalf("order 2 produced %d assignment decisions, want exactly 1", decisions)
	}
}

// TestStepConcurrentCheckpoint is the checkpoint race gauntlet the
// shard-resident engine must keep safe: deterministic Steps, publishing
// weight epochs at their barrier, race against learner observations, pings,
// full checkpoints and metric readers. Every checkpoint taken while rounds
// run must be a complete, parseable document, and no reader may see the
// weight epoch go backwards.
func TestStepConcurrentCheckpoint(t *testing.T) {
	city := testCityB
	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	fleet := city.Fleet(0.5, testConfig().MaxO, 1)
	start := 19.0 * 3600
	orders := workload.OrderStreamWindow(city, 1, start, start+900)
	e, err := New(city.G, fleet, Config{
		Pipeline: testConfig(), Shards: 2,
		QueueSize: len(orders) + 16,
		Learner:   learner, WeightRefreshSec: 240, MinSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	observeTraffic(e, learner, fleet, start, stop, &wg)
	watchEpochs(t, e, stop, &wg)

	// Metrics readers over the lock-free surfaces.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := e.Snapshot()
			if len(snap.PerShard) != 2 {
				t.Errorf("snapshot has %d shards", len(snap.PerShard))
				return
			}
			_ = e.Roadnet()
		}
	}()

	next := 0
	delta := e.cfg.Pipeline.Delta
	lastEpoch := uint64(0)
	for now := start + delta; now < start+2700; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		stats := e.Step(now)
		if stats.Epoch < lastEpoch {
			t.Fatalf("round epoch went backwards: %d after %d", stats.Epoch, lastEpoch)
		}
		lastEpoch = stats.Epoch
	}
	close(stop)
	wg.Wait()
	if lastEpoch == 0 {
		t.Fatal("no round ever pinned a published epoch")
	}
}
