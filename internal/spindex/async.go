package spindex

import (
	"sync"
	"sync/atomic"

	"repro/internal/roadnet"
)

// Per-slot build states of an AsyncRouter.
const (
	slotIdle int32 = iota
	slotBuilding
	slotReady
)

// AsyncRouter is the hub-label Router built for the engine's epoch-swapped
// decision plane: exact hub-label queries once a slot's labels exist, a
// fallback Router (typically the bounded-SSSP cache) while they build. The
// first query that touches a slot kicks off a background build of that slot
// AND the next one — `(slot+1) % SlotsPerDay`, so a replay crossing
// midnight pre-builds slot 0 while still answering in slot 23 — and keeps
// answering from the fallback until the labels land. Constructing an
// AsyncRouter is cheap (no labels are built), which is exactly what
// roadnet.SwapRouter.Publish needs: every weight epoch gets a fresh
// AsyncRouter and the expensive per-slot label builds happen off the
// query path.
//
// SyncBuild flips the router into a deterministic mode for replays and
// golden tests: the first query of a slot builds its labels synchronously
// (no fallback answers, no build/query race on when answers switch
// backend).
//
// Concurrency: like the bounded cache it wraps, Travel is meant to be
// driven by one goroutine at a time (the engine keeps one Router per zone
// shard); the background builds synchronise internally and may overlap
// queries freely.
type AsyncRouter struct {
	ix       *Index
	fallback roadnet.Router
	sync     bool
	state    [roadnet.SlotsPerDay]atomic.Int32
	wg       sync.WaitGroup
}

// NewAsyncRouter returns an AsyncRouter over g. fallback answers queries
// while labels build; syncBuild trades first-query latency for determinism
// (see type docs).
func NewAsyncRouter(g *roadnet.Graph, fallback roadnet.Router, syncBuild bool) *AsyncRouter {
	return &AsyncRouter{ix: New(g), fallback: fallback, sync: syncBuild}
}

// Travel implements roadnet.Router.
func (r *AsyncRouter) Travel(from, to roadnet.NodeID, t float64) float64 {
	slot := roadnet.Slot(t)
	if r.state[slot].Load() == slotReady {
		return r.ix.Travel(from, to, t)
	}
	if r.sync {
		r.ix.BuildSlot(slot)
		r.state[slot].Store(slotReady)
		return r.ix.Travel(from, to, t)
	}
	r.ensureBuilding(slot)
	// Pre-warm the next slot too: by the time the replay clock crosses the
	// boundary (including 23 → 0 at midnight) its labels are usually ready.
	r.ensureBuilding((slot + 1) % roadnet.SlotsPerDay)
	return r.fallback.Travel(from, to, t)
}

// TravelMany implements roadnet.ManyRouter: the same readiness routing as
// Travel, decided once for the whole batch (one slot, one epoch of labels
// or one fallback pass — never a mix).
func (r *AsyncRouter) TravelMany(from roadnet.NodeID, targets []roadnet.NodeID, t float64) []float64 {
	slot := roadnet.Slot(t)
	if r.state[slot].Load() == slotReady {
		return r.ix.TravelMany(from, targets, t)
	}
	if r.sync {
		r.ix.BuildSlot(slot)
		r.state[slot].Store(slotReady)
		return r.ix.TravelMany(from, targets, t)
	}
	r.ensureBuilding(slot)
	r.ensureBuilding((slot + 1) % roadnet.SlotsPerDay)
	return roadnet.TravelMany(r.fallback, from, targets, t)
}

// RouterKind implements roadnet.Kinded.
func (r *AsyncRouter) RouterKind() string { return "hublabel" }

// ensureBuilding starts one background label build for a slot, exactly once.
func (r *AsyncRouter) ensureBuilding(slot int) {
	if !r.state[slot].CompareAndSwap(slotIdle, slotBuilding) {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.ix.BuildSlot(slot)
		r.state[slot].Store(slotReady)
	}()
}

// Ready reports whether a slot's labels are serving queries.
func (r *AsyncRouter) Ready(slot int) bool {
	return slot >= 0 && slot < roadnet.SlotsPerDay && r.state[slot].Load() == slotReady
}

// Wait blocks until every in-flight label build has finished (tests,
// orderly shutdown).
func (r *AsyncRouter) Wait() { r.wg.Wait() }

// Reset implements roadnet.Resettable by forwarding to the fallback: the
// engine resets its shard routers at slot boundaries to drop stale memoised
// rows, and the labels themselves are per slot already.
func (r *AsyncRouter) Reset() {
	if in, ok := r.fallback.(roadnet.Resettable); ok {
		in.Reset()
	}
}

// Interface conformance.
var (
	_ roadnet.Router     = (*AsyncRouter)(nil)
	_ roadnet.Resettable = (*AsyncRouter)(nil)
)
