package gps

import (
	"encoding/json"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// stateChainGraph builds a small path graph for accumulator tests.
func stateChainGraph(n int) *roadnet.Graph {
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lat: 12.9, Lon: 77.5 + float64(i)*0.001})
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(roadnet.NodeID(i), roadnet.NodeID(i+1), 100, 50, 0)
		b.AddEdge(roadnet.NodeID(i+1), roadnet.NodeID(i), 100, 50, 0)
	}
	return b.MustBuild()
}

// saveState encodes the learner's State as JSON — the form the engine's
// checkpoint document carries it in.
func saveState(t *testing.T, l *StreamLearner) string {
	t.Helper()
	b, err := json.Marshal(l.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// loadState decodes a JSON LearnerState and merges it with RestoreState.
func loadState(l *StreamLearner, doc string) error {
	var st LearnerState
	if err := json.Unmarshal([]byte(doc), &st); err != nil {
		return err
	}
	return l.RestoreState(&st)
}

func TestLearnerStateRoundTrip(t *testing.T) {
	g := stateChainGraph(5)
	l := NewStreamLearner(g, StreamOptions{})
	l.ObserveEdge(0, 1, 10*3600, 55)
	l.ObserveEdge(0, 1, 10*3600+300, 65)
	l.ObserveEdge(1, 2, 19*3600, 80)
	l.ObserveEdge(3, 4, 86390, 30) // slot 23, just before midnight

	saved := saveState(t, l)

	l2 := NewStreamLearner(g, StreamOptions{})
	if err := loadState(l2, saved); err != nil {
		t.Fatal(err)
	}
	// The restored learner serves the same estimates…
	for _, tc := range []struct {
		u, v roadnet.NodeID
		slot int
		cnt  int
	}{{0, 1, 10, 2}, {1, 2, 19, 1}, {3, 4, 23, 1}} {
		if got := l2.Samples(tc.u, tc.v, tc.slot); got != tc.cnt {
			t.Fatalf("restored samples %d->%d slot %d = %d, want %d", tc.u, tc.v, tc.slot, got, tc.cnt)
		}
	}
	w1, w2 := l.Weights(1), l2.Weights(1)
	if w1.Cells() != w2.Cells() {
		t.Fatalf("restored weights: %d cells, want %d", w2.Cells(), w1.Cells())
	}
	if sec, ok := w2.Get(0, 1, 10); !ok || sec != 60 {
		t.Fatalf("restored mean = %v/%v, want 60", sec, ok)
	}
	// …and exports byte-identical state (determinism for golden pinning).
	if again := saveState(t, l2); again != saved {
		t.Fatalf("state export not deterministic:\n%s\nvs\n%s", again, saved)
	}
}

// TestLearnerStateMerge pins the resume semantics: learning day 1, saving,
// restoring into a fresh learner and learning day 2 must equal one learner
// observing both days.
func TestLearnerStateMerge(t *testing.T) {
	g := stateChainGraph(4)
	day1 := func(l *StreamLearner) {
		l.ObserveEdge(0, 1, 12*3600, 40)
		l.ObserveEdge(1, 2, 12*3600+100, 60)
	}
	day2 := func(l *StreamLearner) {
		l.ObserveEdge(0, 1, 12*3600, 80)
		l.ObserveEdge(2, 3, 20*3600, 70)
	}

	straight := NewStreamLearner(g, StreamOptions{})
	day1(straight)
	day2(straight)

	a := NewStreamLearner(g, StreamOptions{})
	day1(a)
	b := NewStreamLearner(g, StreamOptions{})
	if err := loadState(b, saveState(t, a)); err != nil {
		t.Fatal(err)
	}
	day2(b)

	if got, want := saveState(t, b), saveState(t, straight); got != want {
		t.Fatalf("save/load/resume diverges from continuous learning:\n%s\nvs\n%s", got, want)
	}
}

func TestLearnerStateRejectsBadCheckpoints(t *testing.T) {
	g := stateChainGraph(3)
	for name, payload := range map[string]string{
		"not json":     `{`,
		"bad version":  `{"version":9,"cells":[]}`,
		"bad slot":     `{"version":1,"cells":[{"from":0,"to":1,"slot":24,"sum":10,"cnt":1}]}`,
		"neg slot":     `{"version":1,"cells":[{"from":0,"to":1,"slot":-1,"sum":10,"cnt":1}]}`,
		"zero count":   `{"version":1,"cells":[{"from":0,"to":1,"slot":3,"sum":10,"cnt":0}]}`,
		"neg sum":      `{"version":1,"cells":[{"from":0,"to":1,"slot":3,"sum":-10,"cnt":1}]}`,
		"null sum":     `{"version":1,"cells":[{"from":0,"to":1,"slot":3,"sum":null,"cnt":1}]}`,
		"unknown edge": `{"version":1,"cells":[{"from":0,"to":2,"slot":3,"sum":10,"cnt":1}]}`,
		"node range":   `{"version":1,"cells":[{"from":0,"to":99,"slot":3,"sum":10,"cnt":1}]}`,
	} {
		l := NewStreamLearner(g, StreamOptions{})
		if err := loadState(l, payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// Rejection must be atomic: nothing merged.
		if l.Weights(1).Cells() != 0 {
			t.Errorf("%s: partial merge after rejection", name)
		}
	}
}
