package roadnet

import (
	"sync"
	"sync/atomic"
)

// Router is the one travel-time oracle, the paper's SP(u, v, t): Travel
// returns the quickest travel time in seconds from -> to departing at time t
// (seconds since midnight), or +Inf when `to` is unreachable (or beyond a
// backend's expansion bound).
//
// Time dependence is per slot: every backend prices the whole path in the
// weight profile of Slot(t), so over one weight epoch Travel(u, v, t) ==
// Travel(u, v, t') whenever Slot(t) == Slot(t'), and may differ otherwise.
// TravelMany is the same answers, target by target. Callers rely on both:
// routing.LegTable memoises a leg per (from, to, slot), not per departure
// instant.
//
// Every layer — routing, batching, FoodGraph construction, the pipeline
// stages, the simulator and the online engine — takes this interface and
// nothing else, so backends (per-query Dijkstra, bounded single-source
// expansion with row memoisation, hub labels, CCH) are swappable via a
// single option without touching stage code.
//
// Concurrency is backend-specific: NewDijkstraRouter is safe for concurrent
// use, a bounded router (DistCache) is not — the engine therefore builds one
// Router per zone shard, and the simulator drives one from a single
// goroutine. Check the constructor's documentation before sharing a Router
// across goroutines.
type Router interface {
	Travel(from, to NodeID, t float64) float64
}

// SPFunc adapts an ordinary function to Router, as http.HandlerFunc does
// for handlers: the bridge for closure oracles and test fakes.
type SPFunc func(from, to NodeID, t float64) float64

// Travel implements Router.
func (f SPFunc) Travel(from, to NodeID, t float64) float64 { return f(from, to, t) }

// Resettable is implemented by Routers whose memoised state can be dropped
// (the simulator and engine call it at hourly slot boundaries to bound
// memory; rows keyed by slot never go stale, so this is optional).
type Resettable interface {
	Reset()
}

// Kinded is implemented by Routers that name their backend for telemetry:
// the engine's sampled router-query histograms label series by this kind
// (falling back to the dynamic type name). Purely observational.
type Kinded interface {
	RouterKind() string
}

// ManyRouter is implemented by Routers that can answer a one-source
// many-target batch with shared work: one upward (CCH), one label load (hub
// labels) or one early-terminating Dijkstra expansion (SSSP backends) serves
// every target, instead of |targets| independent point queries. The returned
// slice is freshly allocated, aligned with targets, and carries exactly the
// values |targets| Travel calls would return (+Inf for unreachable or
// out-of-bound targets).
type ManyRouter interface {
	Router
	TravelMany(from NodeID, targets []NodeID, t float64) []float64
}

// TravelMany answers a one-source many-target batch through any Router:
// backends implementing ManyRouter run one shared search; everything else
// falls back to per-pair Travel. Values are identical either way, so callers
// on decision paths may use this unconditionally.
func TravelMany(rt Router, from NodeID, targets []NodeID, t float64) []float64 {
	if mr, ok := rt.(ManyRouter); ok {
		return mr.TravelMany(from, targets, t)
	}
	out := make([]float64, len(targets))
	for i, to := range targets {
		out[i] = rt.Travel(from, to, t)
	}
	return out
}

// MetricStats counts the customization work a re-customizable routing
// backend has performed: Full is the number of per-slot metrics customized
// from scratch (O(triangles)), Incremental the number re-customized from a
// weight epoch's dirty-cell set (O(dirty) triangle work plus one array
// clone). Served by GET /roadnet when the active backend reports them.
type MetricStats struct {
	FullCustomizations        int64 `json:"full_customizations"`
	IncrementalCustomizations int64 `json:"incremental_customizations"`
}

// MetricStatser is implemented by Routers (CCH) that separate metric
// customization from topology preprocessing and can report how much of each
// customization flavour they have run.
type MetricStatser interface {
	MetricStats() MetricStats
}

// DijkstraRouter answers point-to-point queries with a target-pruned
// Dijkstra per call — no memoisation, no expansion bound. It is the exact
// reference backend; prefer a bounded or hub-label Router on hot paths.
// Safe for concurrent use (engines are pooled per goroutine).
type DijkstraRouter struct {
	g       *Graph
	pool    sync.Pool
	settles atomic.Int64
}

// NewDijkstraRouter returns a per-query Dijkstra Router over g.
func NewDijkstraRouter(g *Graph) *DijkstraRouter {
	r := &DijkstraRouter{g: g}
	r.pool.New = func() any { return NewSSSP(g) }
	return r
}

// Travel implements Router.
func (r *DijkstraRouter) Travel(from, to NodeID, t float64) float64 {
	e := r.pool.Get().(*SSSP)
	s0 := e.Settles()
	d := e.Distance(from, to, t)
	r.settles.Add(int64(e.Settles() - s0))
	r.pool.Put(e)
	return d
}

// TravelMany implements ManyRouter: one multi-target Dijkstra expansion that
// terminates as soon as the last outstanding target settles. Distances are
// bitwise identical to per-target Travel calls (settle order does not affect
// a Dijkstra distance table).
func (r *DijkstraRouter) TravelMany(from NodeID, targets []NodeID, t float64) []float64 {
	e := r.pool.Get().(*SSSP)
	s0 := e.Settles()
	out := e.DistanceMany(from, targets, t, make([]float64, len(targets)))
	r.settles.Add(int64(e.Settles() - s0))
	r.pool.Put(e)
	return out
}

// Settles reports the cumulative node settles across every search this
// router has run — the work measure the batched-vs-per-pair construction
// bench compares.
func (r *DijkstraRouter) Settles() int64 { return r.settles.Load() }

// RouterKind implements Kinded.
func (r *DijkstraRouter) RouterKind() string { return "dijkstra" }

// Interface conformance.
var (
	_ Router     = SPFunc(nil)
	_ Router     = (*DijkstraRouter)(nil)
	_ Router     = (*DistCache)(nil)
	_ Resettable = (*DistCache)(nil)
	_ ManyRouter = (*DijkstraRouter)(nil)
	_ ManyRouter = (*DistCache)(nil)
	_ ManyRouter = (*SwapRouter)(nil)
)
