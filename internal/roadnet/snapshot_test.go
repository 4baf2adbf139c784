package roadnet

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
)

func TestSwapRouterServesEpochs(t *testing.T) {
	g := weightsTestGraph(t)
	r := NewSwapRouter(g, func(gr *Graph) Router { return NewDijkstraRouter(gr) })
	if r.Epoch() != 0 {
		t.Fatalf("fresh router epoch %d", r.Epoch())
	}
	tAt := 6.5 * 3600
	base := r.Travel(0, 1, tAt)
	if base != ShortestPath(g, 0, 1, tAt) {
		t.Fatalf("epoch 0 diverges from base graph: %v", base)
	}

	w := NewSlotWeights()
	if err := w.Set(0, 1, 6, 9000); err != nil {
		t.Fatal(err)
	}
	ng := g.Reweighted(w)
	if !r.Publish(Snapshot{Epoch: 1, Graph: ng, LearnedCells: w.Cells()}) {
		t.Fatal("publish epoch 1 rejected")
	}
	if r.Epoch() != 1 {
		t.Fatalf("epoch after publish %d", r.Epoch())
	}
	after := r.Travel(0, 1, tAt)
	if after <= base {
		t.Fatalf("swap invisible: %v <= %v", after, base)
	}

	// Epoch monotonicity: stale and duplicate epochs are rejected.
	if r.Publish(Snapshot{Epoch: 1, Graph: g}) {
		t.Fatal("duplicate epoch accepted")
	}
	if r.Publish(Snapshot{Epoch: 0, Graph: g}) {
		t.Fatal("stale epoch accepted")
	}
	if r.Publish(Snapshot{Epoch: 7, Graph: nil}) {
		t.Fatal("nil graph accepted")
	}
	if r.Epoch() != 1 {
		t.Fatalf("epoch moved on rejected publish: %d", r.Epoch())
	}
}

func TestSwapRouterAcquirePinsEpoch(t *testing.T) {
	g := weightsTestGraph(t)
	r := NewSwapRouter(g, func(gr *Graph) Router { return NewDijkstraRouter(gr) })
	snap, pinned := r.Acquire()
	if snap.Epoch != 0 || snap.Graph != g {
		t.Fatalf("acquire: epoch %d graph %p", snap.Epoch, snap.Graph)
	}
	tAt := 6.5 * 3600
	before := pinned.Travel(0, 1, tAt)

	w := NewSlotWeights()
	if err := w.Set(0, 1, 6, 9000); err != nil {
		t.Fatal(err)
	}
	r.Publish(Snapshot{Epoch: 1, Graph: g.Reweighted(w)})

	// The pinned router still answers from the old epoch, the SwapRouter
	// from the new one.
	if got := pinned.Travel(0, 1, tAt); got != before {
		t.Fatalf("pinned router changed under a publish: %v want %v", got, before)
	}
	if got := r.Travel(0, 1, tAt); got <= before {
		t.Fatalf("live router missed the publish: %v", got)
	}
}

// TestSwapRouterConcurrentPublish hammers the query path from several
// goroutines while epochs are published concurrently — run under -race this
// is the lock-free-hot-path proof. Every observed distance must equal the
// base or a published epoch's distance, never a torn intermediate.
func TestSwapRouterConcurrentPublish(t *testing.T) {
	g := weightsTestGraph(t)
	r := NewSwapRouter(g, func(gr *Graph) Router { return NewDijkstraRouter(gr) })
	tAt := 6.5 * 3600
	valid := map[float64]bool{r.Travel(0, 1, tAt): true}
	graphs := []*Graph{}
	for i := 0; i < 8; i++ {
		w := NewSlotWeights()
		if err := w.Set(0, 1, 6, 1000*float64(i+1)); err != nil {
			t.Fatal(err)
		}
		ng := g.Reweighted(w)
		graphs = append(graphs, ng)
		valid[ShortestPath(ng, 0, 1, tAt)] = true
	}

	var wg sync.WaitGroup
	var bad atomic.Int64
	stop := make(chan struct{})
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := r.Travel(0, 1, tAt)
				if math.IsNaN(d) || !valid[d] {
					bad.Add(1)
					return
				}
			}
		}()
	}
	for i, ng := range graphs {
		r.Publish(Snapshot{Epoch: uint64(i + 1), Graph: ng})
	}
	close(stop)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatal("queries observed a distance from no published epoch")
	}
	if r.Epoch() != uint64(len(graphs)) {
		t.Fatalf("final epoch %d want %d", r.Epoch(), len(graphs))
	}
}

// BenchmarkRouterSwap quantifies the snapshot layer's query-path cost: the
// same bounded backend queried directly, through a per-query atomic load
// (SwapRouter.Travel), and through a round-pinned Acquire. The acceptance
// bar is "≤ a few ns": Travel adds one atomic pointer load, Acquire removes
// even that from the per-query path.
func BenchmarkRouterSwap(b *testing.B) {
	bld := NewBuilder()
	const n = 256
	for i := 0; i < n; i++ {
		bld.AddNode(weightsBenchPoint(i))
	}
	for i := 0; i < n; i++ {
		bld.AddEdge(NodeID(i), NodeID((i+1)%n), 500, 60, 0)
		bld.AddEdge(NodeID((i+1)%n), NodeID(i), 500, 60, 0)
	}
	g := bld.MustBuild()
	newInner := func(gr *Graph) Router { return NewBoundedRouter(gr, 7200) }

	b.Run("direct", func(b *testing.B) {
		r := newInner(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Travel(0, NodeID(i%n), 65000)
		}
	})
	b.Run("swap-travel", func(b *testing.B) {
		r := NewSwapRouter(g, newInner)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Travel(0, NodeID(i%n), 65000)
		}
	})
	b.Run("swap-acquire", func(b *testing.B) {
		r := NewSwapRouter(g, newInner)
		_, pinned := r.Acquire()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pinned.Travel(0, NodeID(i%n), 65000)
		}
	})
}

func weightsBenchPoint(i int) geo.Point {
	return geo.Point{Lat: 12.90 + float64(i/16)*0.002, Lon: 77.50 + float64(i%16)*0.002}
}
