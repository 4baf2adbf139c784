package gps

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

// TestWeightsProperties drives the learner with randomised (seeded) samples
// and checks the properties every published epoch must satisfy:
//
//  1. every exported cell is finite and positive;
//  2. cells below minSamples are withheld (sparsity respected);
//  3. a reweighted graph falls back to the prior weight wherever the table
//     has no cell, and reproduces the learned mean where it does;
//  4. the learned mean equals sum/count exactly.
func TestWeightsProperties(t *testing.T) {
	g := streamTestGraph(t)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewSpeedLearner(g)
		type cellKey struct {
			u, v roadnet.NodeID
			slot int
		}
		counts := make(map[cellKey]int)
		sums := make(map[cellKey]float64)
		for i := 0; i < 500; i++ {
			u := roadnet.NodeID(rng.Intn(g.NumNodes()))
			outs := g.OutEdges(u)
			if len(outs) == 0 {
				continue
			}
			v := outs[rng.Intn(len(outs))].To
			slot := rng.Intn(roadnet.SlotsPerDay)
			sec := 10 + rng.Float64()*300
			tEnter := float64(slot)*3600 + rng.Float64()*3000
			if n := l.ObserveDrive([]roadnet.NodeID{u, v}, []float64{tEnter, tEnter + sec}); n == 1 {
				k := cellKey{u, v, slot}
				counts[k]++
				sums[k] += sec
			}
		}

		const minSamples = 2
		w := l.Weights(minSamples)
		seen := 0
		for k, c := range counts {
			got, ok := w.Get(k.u, k.v, k.slot)
			if c < minSamples {
				if ok {
					t.Fatalf("seed %d: cell %+v with %d samples exported", seed, k, c)
				}
				continue
			}
			seen++
			if !ok {
				t.Fatalf("seed %d: cell %+v with %d samples missing", seed, k, c)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
				t.Fatalf("seed %d: cell %+v exported invalid weight %v", seed, k, got)
			}
			if want := sums[k] / float64(c); math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: cell %+v weight %v want mean %v", seed, k, got, want)
			}
		}
		if w.Cells() != seen {
			t.Fatalf("seed %d: table has %d cells, counted %d", seed, w.Cells(), seen)
		}

		// Reweighted graph: learned cells reproduce the mean, everything
		// else keeps the prior.
		ng := g.Reweighted(w)
		for u := 0; u < g.NumNodes(); u++ {
			outs := g.OutEdges(roadnet.NodeID(u))
			nouts := ng.OutEdges(roadnet.NodeID(u))
			for i := range outs {
				for s := 0; s < roadnet.SlotsPerDay; s++ {
					prior := g.EdgeTimeSlot(outs[i], s)
					got := ng.EdgeTimeSlot(nouts[i], s)
					if learned, ok := w.Get(roadnet.NodeID(u), outs[i].To, s); ok {
						if math.Abs(got-learned) > 1e-6 {
							t.Fatalf("seed %d: learned cell %d->%d slot %d: %v want %v",
								seed, u, outs[i].To, s, got, learned)
						}
					} else if math.Abs(got-prior) > 1e-9 {
						t.Fatalf("seed %d: fallback cell %d->%d slot %d: %v want prior %v",
							seed, u, outs[i].To, s, got, prior)
					}
				}
			}
		}
	}
}

// TestSnapshotEpochMonotonicity publishes shuffled epochs at a SwapRouter
// and verifies the served epoch only ever increases — the property that
// keeps every shard's served epoch monotone whatever order publishes land in.
func TestSnapshotEpochMonotonicity(t *testing.T) {
	g := streamTestGraph(t)
	r := roadnet.NewSwapRouter(g, func(gr *roadnet.Graph) roadnet.Router {
		return roadnet.NewDijkstraRouter(gr)
	})
	rng := rand.New(rand.NewSource(3))
	epochs := rng.Perm(20)
	served := uint64(0)
	for _, e := range epochs {
		ep := uint64(e + 1)
		accepted := r.Publish(roadnet.Snapshot{Epoch: ep, Graph: g})
		if accepted != (ep > served) {
			t.Fatalf("publish epoch %d with served %d: accepted=%v", ep, served, accepted)
		}
		if accepted {
			served = ep
		}
		if got := r.Epoch(); got != served {
			t.Fatalf("served epoch %d want %d", got, served)
		}
	}
}
