package gps

import (
	"testing"

	"repro/internal/roadnet"
)

// TestWeightsDirtyProtocol pins the incremental-publish contract between the
// learner and the engine: WeightsDirty hands over exactly the edges touched
// since the last take (with their full admissible rows) and resets the set;
// cells still below the sample floor are withheld but re-marked by the very
// sample that later tips them over, so no update is ever lost.
func TestWeightsDirtyProtocol(t *testing.T) {
	g := streamTestGraph(t)
	l := NewStreamLearner(g, StreamOptions{})
	e0 := g.OutEdges(0)[0]
	e1 := g.OutEdges(1)[0]

	l.ObserveEdge(0, e0.To, 10*3600, 100)
	l.ObserveEdge(1, e1.To, 11*3600, 50) // one sample: below minSamples=2

	w, d := l.WeightsDirty(2)
	if d.Edges() != 2 || d.Cells() != 2 {
		t.Fatalf("dirty after two observations: %d edges %d cells", d.Edges(), d.Cells())
	}
	if _, ok := w.Get(0, e0.To, 10); ok {
		t.Fatal("single-sample cell exported at minSamples=2")
	}

	// Nothing new: the dirty set is drained.
	w, d = l.WeightsDirty(2)
	if d.Cells() != 0 || w.Cells() != 0 {
		t.Fatalf("drained set not empty: %d dirty, %d cells", d.Cells(), w.Cells())
	}

	// The tipping sample re-marks the cell and the full row comes through.
	l.ObserveEdge(0, e0.To, 10*3600+60, 140)
	w, d = l.WeightsDirty(2)
	if d.Edges() != 1 {
		t.Fatalf("dirty edges after tipping sample: %d", d.Edges())
	}
	if got, ok := w.Get(0, e0.To, 10); !ok || got != 120 {
		t.Fatalf("tipped cell = %v (%v), want 120", got, ok)
	}

	// WeightsFull exports everything and restarts the chain.
	l.ObserveEdge(1, e1.To, 11*3600+30, 70)
	full := l.WeightsFull(2)
	if got, ok := full.Get(1, e1.To, 11); !ok || got != 60 {
		t.Fatalf("full export cell = %v (%v), want 60", got, ok)
	}
	if _, d = l.WeightsDirty(2); d.Cells() != 0 {
		t.Fatalf("WeightsFull left %d dirty cells", d.Cells())
	}

	// Restored checkpoints count as touched.
	fresh := NewStreamLearner(g, StreamOptions{})
	if err := loadState(fresh, saveState(t, l)); err != nil {
		t.Fatal(err)
	}
	w, d = fresh.WeightsDirty(2)
	if d.Edges() != 2 {
		t.Fatalf("restored learner dirty edges: %d, want 2", d.Edges())
	}
	if got, ok := w.Get(0, e0.To, 10); !ok || got != 120 {
		t.Fatalf("restored cell = %v (%v), want 120", got, ok)
	}
	if fresh.Stats().Cells != 2 || fresh.Stats().Edges != 2 {
		t.Fatalf("restored stats: %+v", fresh.Stats())
	}
}

// TestLearnedGraphDenseLayout pins the ROADMAP debt paydown: learned graphs
// carry their weights in the dense edge-indexed float32 table, with observed
// cells serving the learned mean and everything else the source prior.
func TestLearnedGraphDenseLayout(t *testing.T) {
	g := streamTestGraph(t)
	l := NewSpeedLearner(g)
	e0 := g.OutEdges(0)[0]
	l.ObserveDrive([]roadnet.NodeID{0, e0.To}, []float64{9 * 3600, 9*3600 + 77})

	lg, err := l.LearnedGraph(1)
	if err != nil {
		t.Fatal(err)
	}
	if !lg.DenseWeights() {
		t.Fatal("learned graph is not in dense weight mode")
	}
	if got := lg.EdgeTimeSlot(lg.OutEdges(0)[0], 9); got != float64(float32(77)) {
		t.Fatalf("observed cell serves %v, want 77", got)
	}
	want := g.EdgeTimeSlot(e0, 15)
	if got := lg.EdgeTimeSlot(lg.OutEdges(0)[0], 15); got != float64(float32(want)) {
		t.Fatalf("unobserved cell serves %v, want prior %v", got, want)
	}
}
