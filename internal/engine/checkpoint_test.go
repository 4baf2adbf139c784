package engine

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/gps"
	"repro/internal/roadnet"
)

// TestEngineWeightCheckpointRestore pins multi-day weight persistence: day
// 1's learner state, restored into day 2's learner before the engine is
// built, reaches every shard on day 2's first round — and a restore whose
// cells all sit below the MinSamples floor publishes nothing.
func TestEngineWeightCheckpointRestore(t *testing.T) {
	city := testCityB
	day1 := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	e0 := city.G.OutEdges(0)[0]
	e1 := city.G.OutEdges(1)[0]
	day1.ObserveEdge(0, e0.To, 19*3600, 111)
	day1.ObserveEdge(0, e0.To, 19*3600+60, 129)
	day1.ObserveEdge(1, e1.To, 86390, 55) // slot 23, just before midnight
	saved := day1.State()
	if len(saved.Cells) == 0 {
		t.Fatal("empty learner state")
	}

	day2 := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	if err := day2.RestoreState(saved); err != nil {
		t.Fatal(err)
	}
	if got := day2.State(); !reflect.DeepEqual(got, saved) {
		t.Fatalf("restored learner state differs:\n%+v\nvs\n%+v", got, saved)
	}
	e, err := New(city.G, city.Fleet(0.2, 3, 2), Config{Pipeline: testConfig(), Shards: 2, Learner: day2, MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Step(19 * 3600); st.Epoch != 1 {
		t.Fatalf("day 2's first round serves epoch %d, want 1", st.Epoch)
	}
	// Every shard serves the restored knowledge: the learned mean of the
	// slot-19 cell, and the slot-23 cell written just before midnight.
	for _, sr := range e.shards {
		snap, _ := sr.router.Acquire()
		if snap.Epoch != 1 {
			t.Fatalf("shard %d serves epoch %d after restore", sr.id, snap.Epoch)
		}
		served := snap.Graph.EdgeTimeSlot(snap.Graph.OutEdges(0)[0], 19)
		if math.Abs(served-120) > 1e-9 {
			t.Fatalf("restored slot-19 cell serves %v, want 120", served)
		}
		if got := snap.Graph.EdgeTimeSlot(snap.Graph.OutEdges(1)[0], 23); math.Abs(got-55) > 1e-9 {
			t.Fatalf("restored slot-23 cell serves %v, want 55", got)
		}
	}

	// Restored cells all below the MinSamples floor: the learner keeps
	// them, the engine publishes nothing.
	sparse := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	if err := sparse.RestoreState(saved); err != nil {
		t.Fatal(err)
	}
	e3, err := New(city.G, city.Fleet(0.2, 3, 3), Config{Pipeline: testConfig(), Learner: sparse, MinSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	e3.Step(19 * 3600)
	if st := e3.Roadnet(); st.Epoch != 0 || st.Publishes != 0 {
		t.Fatalf("below-floor restore published: %+v", st)
	}
}

// TestEngineImportWeights covers the bootstrap path: an externally learned
// table, applied to the decision graph, is what epoch 0 serves — without
// touching the learner.
func TestEngineImportWeights(t *testing.T) {
	city := testCityB
	w := roadnet.NewSlotWeights()
	e0 := city.G.OutEdges(0)[0]
	if err := w.Set(0, e0.To, 20, 321); err != nil {
		t.Fatal(err)
	}
	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	e, err := New(city.G, city.Fleet(0.2, 3, 1), Config{
		Pipeline: testConfig(), Shards: 2,
		DecisionGraph: city.G.Reweighted(w), Learner: learner, MinSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Step(20 * 3600)
	for _, sr := range e.shards {
		snap, _ := sr.router.Acquire()
		if snap.Epoch != 0 {
			t.Fatalf("shard %d serves epoch %d, want 0", sr.id, snap.Epoch)
		}
		if got := snap.Graph.EdgeTimeSlot(snap.Graph.OutEdges(0)[0], 20); math.Abs(got-321) > 1e-9 {
			t.Fatalf("imported cell serves %v, want 321", got)
		}
	}
	if st := e.Roadnet(); st.Epoch != 0 || st.Publishes != 0 {
		t.Fatalf("roadnet status after bootstrap: %+v", st)
	}
	if learner.Weights(1).Cells() != 0 {
		t.Fatal("bootstrap leaked into the learner")
	}
}

// TestCheckpointHooksStaticEngine pins the error contract on engines
// without a dynamic plane: a checkpoint carrying learner state is refused.
func TestCheckpointHooksStaticEngine(t *testing.T) {
	city := testCityB
	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	learner.ObserveEdge(0, city.G.OutEdges(0)[0].To, 12*3600, 40)
	dyn, err := New(city.G, city.Fleet(0.2, 3, 1), Config{Pipeline: testConfig(), Learner: learner})
	if err != nil {
		t.Fatal(err)
	}
	doc := dyn.CheckpointState()
	if doc.Learner == nil {
		t.Fatal("dynamic checkpoint carries no learner state")
	}

	static, err := New(city.G, city.Fleet(0.2, 3, 1), Config{Pipeline: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := static.RestoreCheckpoint(doc); !errors.Is(err, ErrStaticRoadnet) {
		t.Fatalf("learner checkpoint into static engine: %v", err)
	}
	if doc := static.CheckpointState(); doc.Learner != nil || doc.Epoch != 0 {
		t.Fatalf("static checkpoint carries learner state: epoch %d", doc.Epoch)
	}
}
