package engine

import (
	"math"
	"testing"

	"repro/internal/gps"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// TestEngineDynamicWeightsLearnAndSwap runs the full live loop: the true
// city is slowed by a uniform "rain" multiplier the decision graph knows
// nothing about; driving on the true graph feeds the streaming learner;
// periodic publishes swap every shard onto learned epochs. By the end the
// engine must have published epochs, stamped them into round stats
// monotonically, and learned weights that match the *true* (rained-on)
// β rather than the stale decision prior.
func TestEngineDynamicWeightsLearnAndSwap(t *testing.T) {
	city := testCityB
	const rain = 1.6
	trueG := city.G.ScaleSlotMultipliers(func(int) float64 { return rain })
	learner := gps.NewStreamLearner(trueG, gps.StreamOptions{})

	start, end := 18.0*3600, 19.0*3600
	orders := workload.OrderStreamWindow(city, 1, start, end)
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	e, err := New(trueG, fleet, Config{
		Pipeline:         testConfig(),
		Shards:           2,
		QueueSize:        len(orders) + 16,
		DecisionGraph:    city.G,
		Learner:          learner,
		WeightRefreshSec: 300,
		MinSamples:       1,
	})
	if err != nil {
		t.Fatal(err)
	}

	delta := e.cfg.Pipeline.Delta
	next := 0
	lastEpoch := uint64(0)
	for now := start + delta; now < end+7200; now += delta {
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
		if now >= end && next == len(orders) && e.Idle() {
			break
		}
	}

	st := e.Roadnet()
	if !st.Dynamic {
		t.Fatal("dynamic engine reports static road network")
	}
	if st.Epoch == 0 || st.Publishes == 0 {
		t.Fatalf("no weight epoch published: %+v", st)
	}
	if st.Learner == nil || st.Learner.Samples == 0 {
		t.Fatalf("learner saw no samples: %+v", st.Learner)
	}
	if st.LearnedCells == 0 {
		t.Fatalf("published epoch carries no learned cells: %+v", st)
	}
	if lastEpoch == 0 {
		t.Fatal("no round ever ran under a learned epoch")
	}
	snap := e.Snapshot()
	if snap.WeightEpoch != st.Epoch || snap.WeightPublishes != st.Publishes {
		t.Fatalf("metrics/roadnet disagree: %d/%d vs %d/%d",
			snap.WeightEpoch, snap.WeightPublishes, st.Epoch, st.Publishes)
	}

	// Every shard serves the newest epoch, and its graph carries weights
	// matching the TRUE β on learned cells (mover traversals are exact).
	w := learner.Weights(1)
	if w.Cells() == 0 {
		t.Fatal("learner exports no cells")
	}
	for _, sr := range e.shards {
		shSnap, _ := sr.router.Acquire()
		if shSnap.Epoch != st.Epoch {
			t.Fatalf("shard %d serves epoch %d, engine %d", sr.id, shSnap.Epoch, st.Epoch)
		}
		checked := 0
		for u := 0; u < trueG.NumNodes() && checked < 50; u++ {
			tEdges := trueG.OutEdges(roadnet.NodeID(u))
			sEdges := shSnap.Graph.OutEdges(roadnet.NodeID(u))
			for i := range tEdges {
				for s := 0; s < roadnet.SlotsPerDay; s++ {
					if _, ok := w.Get(roadnet.NodeID(u), tEdges[i].To, s); !ok {
						continue
					}
					trueBeta := trueG.EdgeTimeSlot(tEdges[i], s)
					served := shSnap.Graph.EdgeTimeSlot(sEdges[i], s)
					if math.Abs(served-trueBeta) > 1e-6*trueBeta+1e-9 {
						t.Fatalf("learned cell %d->%d slot %d serves %v, true β %v",
							u, tEdges[i].To, s, served, trueBeta)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatal("no learned cell found to verify")
		}
	}
}

// TestQuietRefreshSkipsIdenticalEpochs pins the periodic-refresh skip: once
// an epoch is published, a due refresh with nothing learned since — or with
// only cells still below the MinSamples floor — must not mint a
// weight-identical epoch (which would cold-rebuild every shard's router for
// zero change). The sample that finally tips a cell over the floor
// publishes again.
func TestQuietRefreshSkipsIdenticalEpochs(t *testing.T) {
	city := testCityB
	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	e, err := New(city.G, city.Fleet(0.2, 3, 1), Config{
		Pipeline: testConfig(), Shards: 2,
		Learner: learner, WeightRefreshSec: 100, MinSamples: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e0 := city.G.OutEdges(0)[0]
	e1 := city.G.OutEdges(1)[0]

	// Three samples on edge 0: the first due refresh publishes epoch 1.
	for i := 0; i < 3; i++ {
		learner.ObserveEdge(0, e0.To, 10*3600+float64(i*10), 40)
	}
	e.Step(10*3600 + 200)
	if st := e.Roadnet(); st.Epoch != 1 || st.Publishes != 1 {
		t.Fatalf("first refresh: %+v", st)
	}

	// One below-floor sample on edge 1: the next due refresh must skip.
	learner.ObserveEdge(1, e1.To, 10*3600+300, 55)
	e.Step(10*3600 + 400)
	if st := e.Roadnet(); st.Epoch != 1 || st.Publishes != 1 {
		t.Fatalf("below-floor refresh minted an epoch: %+v", st)
	}

	// Nothing at all learned: still skipped.
	e.Step(10*3600 + 600)
	if st := e.Roadnet(); st.Epoch != 1 || st.Publishes != 1 {
		t.Fatalf("empty refresh minted an epoch: %+v", st)
	}

	// Tip edge 1 over the floor: the withheld cell re-marked itself dirty,
	// so the next due refresh publishes it.
	learner.ObserveEdge(1, e1.To, 10*3600+700, 65)
	learner.ObserveEdge(1, e1.To, 10*3600+710, 60)
	e.Step(10*3600 + 900)
	st := e.Roadnet()
	if st.Epoch != 2 || st.Publishes != 2 {
		t.Fatalf("tipping refresh: %+v", st)
	}
	if st.PatchedPublishes != 1 {
		t.Fatalf("second epoch should be a patched publish: %+v", st)
	}
	for _, sr := range e.shards {
		snap, _ := sr.router.Acquire()
		if got := snap.Graph.EdgeTimeSlot(snap.Graph.OutEdges(1)[0], 10); math.Abs(got-60) > 1e-9 {
			t.Fatalf("shard %d serves %v for the tipped cell, want 60", sr.id, got)
		}
	}

	// A refresh is due only a full period after the last attempt: fresh
	// above-floor dirt waits for it.
	e2 := city.G.OutEdges(2)[0]
	for i := 0; i < 3; i++ {
		learner.ObserveEdge(2, e2.To, 10*3600+float64(910+i*10), 70)
	}
	e.Step(10*3600 + 950)
	if st := e.Roadnet(); st.Epoch != 2 {
		t.Fatalf("refresh before the period elapsed: %+v", st)
	}
	e.Step(10*3600 + 1000)
	if st := e.Roadnet(); st.Epoch != 3 || st.Publishes != 3 {
		t.Fatalf("due refresh after the period: %+v", st)
	}
}

// TestRefreshWeights covers the periodic publish path: static engines never
// publish; dynamic engines publish exactly when the learner has admissible
// cells whose estimates the served epoch does not already carry.
func TestRefreshWeights(t *testing.T) {
	city := testCityB
	fleet := city.Fleet(0.2, 3, 1)

	static, err := New(city.G, fleet, Config{Pipeline: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if st := static.Step(12 * 3600); st.Epoch != 0 {
		t.Fatalf("static engine served epoch %d", st.Epoch)
	}
	if st := static.Roadnet(); st.Dynamic || st.Epoch != 0 || st.Publishes != 0 {
		t.Fatalf("static roadnet status %+v", st)
	}

	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	dyn, err := New(city.G, city.Fleet(0.2, 3, 1), Config{
		Pipeline: testConfig(), Shards: 2,
		Learner: learner, WeightRefreshSec: 60, MinSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing learned yet: the due refresh runs but publishes no epoch.
	if st := dyn.Step(12 * 3600); st.Epoch != 0 {
		t.Fatalf("empty learner published epoch %d", st.Epoch)
	}
	e0 := city.G.OutEdges(0)[0]
	learner.ObserveEdge(0, e0.To, 12*3600, 123)
	if st := dyn.Step(12*3600 + 60); st.Epoch != 1 {
		t.Fatalf("refresh after a sample: epoch %d, want 1", st.Epoch)
	}
	// The published epoch is what every shard serves.
	for _, sr := range dyn.shards {
		if sr.router.Epoch() != 1 {
			t.Fatalf("shard %d epoch %d after refresh", sr.id, sr.router.Epoch())
		}
	}
	// A sample that leaves the cell's mean where it was changes nothing a
	// router can observe: no epoch. One that moves it publishes.
	learner.ObserveEdge(0, e0.To, 12*3600+10, 123)
	if st := dyn.Step(12*3600 + 120); st.Epoch != 1 {
		t.Fatalf("unchanged estimate minted epoch %d", st.Epoch)
	}
	learner.ObserveEdge(0, e0.To, 12*3600+20, 87)
	if st := dyn.Step(12*3600 + 180); st.Epoch != 2 {
		t.Fatalf("moved estimate: epoch %d, want 2", st.Epoch)
	}
	if st := dyn.Roadnet(); st.Publishes != 2 || st.PatchedPublishes != 1 {
		t.Fatalf("roadnet status after two publishes: %+v", st)
	}
}
