// Package pipeline decomposes the assignment round into the four separable
// stages the paper's Section V ablations attribute speedups to — batching,
// sparsified FoodGraph construction, minimum-weight matching, and
// reshuffling — behind small interfaces, and recomposes them with a
// functional-options Pipeline.
//
// A Pipeline is a policy: it receives one accumulation window (orders O(ℓ),
// vehicles V(ℓ)) and returns assignments. The canned policies — FOODMATCH,
// vanilla KM, Greedy, Reyes — are fixed stage compositions (see
// internal/policy); callers can swap any stage (a different batcher, a
// custom sparsifier, another matcher) without forking the others:
//
//	p := pipeline.New(
//		pipeline.WithBatcher(&pipeline.GreedyBatcher{}),
//		pipeline.WithMatcher(&pipeline.KMMatcher{}),
//	)
//
// Every stage call takes a context.Context for cancellation/deadline
// propagation, and consumes network distances exclusively through the
// injected roadnet.Router, so shortest-path backends (Dijkstra, bounded
// SSSP, hub labels, CCH) are swappable per workload. The Pipeline records
// per-stage wall time and sizes (Stats) on every Assign; the online engine
// surfaces them on its round-stats path.
//
// # Concurrency contract
//
// A Policy instance is driven by one window loop at a time: Assign is never
// called concurrently on the same instance, so implementations may keep
// per-call scratch state without synchronisation. The online engine runs K
// zone shards in parallel by constructing one instance per shard through a
// factory (engine.Config.NewPolicy) — implementations must therefore not
// share mutable package-level state across instances, and everything
// reachable from Input (graph, Router, config) is read-only during Assign.
// Observer callbacks are invoked on the calling shard's goroutine and must
// synchronise internally if they aggregate across shards.
package pipeline

import (
	"context"
	"time"

	"repro/internal/foodgraph"
	"repro/internal/model"
	"repro/internal/roadnet"
)

// Input is everything a policy may look at for one window.
type Input struct {
	G *roadnet.Graph
	// Router answers every network-distance query of the window (injected:
	// bounded SSSP by default; hub labels, CCH or plain Dijkstra are
	// drop-in).
	Router roadnet.Router
	// Now is the window-end clock (assignment time).
	Now float64
	// Orders is O(ℓ): unassigned orders plus — when the policy reshuffles —
	// assigned-but-unpicked orders returned to the pool.
	Orders []*model.Order
	// Vehicles is V(ℓ): available vehicles with spare capacity. VehicleState
	// reflects reshuffling: pooled pending orders do not appear in Keep.
	Vehicles []*foodgraph.VehicleState
	// Incumbent maps reshuffled orders to the vehicle they were assigned to
	// before being pooled. While food is still cooking, many vehicles tie at
	// near-zero marginal cost; policies use this to break such ties toward
	// the incumbent instead of churning assignments every window.
	Incumbent map[model.OrderID]model.VehicleID
	Cfg       *model.Config
}

// Assignment is one policy decision: attach Orders to Vehicle and replace
// its route plan with Plan (which also covers the vehicle's onboard and
// kept orders).
type Assignment struct {
	Vehicle *model.Vehicle
	Orders  []*model.Order
	Plan    *model.RoutePlan
}

// Policy is an assignment strategy — the interface the simulator and the
// online engine drive. Instances are confined to a single window loop; see
// the package comment for the full concurrency contract.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reshuffles reports whether assigned-but-unpicked orders should be
	// returned to the pool each window (Section IV-D2).
	Reshuffles() bool
	// SingleOrderMode reports whether vehicles serve one order at a time
	// under this policy and config. The paper's vanilla KM baseline cannot
	// batch ("no two edges will be incident on the same node... hence,
	// batching is not feasible", Section IV-A): a vehicle re-enters V(ℓ)
	// only once empty.
	SingleOrderMode(cfg *model.Config) bool
	// Assign decides the window's assignments. A cancelled ctx makes the
	// policy return early (possibly with no decisions); it must never
	// return a half-applied decision.
	Assign(ctx context.Context, in *Input) []Assignment
}

// Batcher groups O(ℓ) into batches — stage 1 (Section IV-B).
type Batcher interface {
	// Name identifies the stage in reports.
	Name() string
	// Batch partitions in.Orders into batches, each carrying a feasible
	// route plan. Orders it cannot plan may be wrapped in infeasible
	// singleton batches which no vehicle will accept.
	Batch(ctx context.Context, in *Input) []*model.Batch
}

// GraphSparsifier constructs the bipartite batch×vehicle cost graph —
// stage 2 (Section IV-C, Algorithm 2 when sparsifying).
type GraphSparsifier interface {
	Name() string
	// Sparsify returns the FoodGraph: Cost[i][j] = mCost(π_i, v_j) or the
	// rejection penalty Ω, with Plan[i][j] the vehicle's route plan for
	// accepted edges (nil on Ω edges when the matcher replans itself).
	Sparsify(ctx context.Context, in *Input, batches []*model.Batch) *foodgraph.Bipartite
}

// Reshuffler adjusts the constructed graph's edge weights using incumbent
// information — stage 3 of the reshuffling mechanism (Section IV-D2). The
// pool release/restore half lives in the engine's round (engine/round.go).
type Reshuffler interface {
	Name() string
	// Adjust mutates bp.Cost in place (true edges only).
	Adjust(ctx context.Context, in *Input, batches []*model.Batch, bp *foodgraph.Bipartite)
}

// Matcher turns the (possibly nil) bipartite graph into assignments —
// stage 4 (Section IV-A). Matchers that compute their own costs (Greedy)
// ignore bp.
type Matcher interface {
	Name() string
	Match(ctx context.Context, in *Input, batches []*model.Batch, bp *foodgraph.Bipartite) []Assignment
}

// Stats records per-stage wall time and sizes for one Assign call — the
// instrumentation the paper's Section V ablations need, emitted on the
// engine's round-stats path.
type Stats struct {
	// Sizes: window input, intermediate and output cardinalities.
	Orders    int `json:"orders"`
	Vehicles  int `json:"vehicles"`
	Batches   int `json:"batches"`
	TrueEdges int `json:"true_edges"`
	Assigned  int `json:"assigned"`

	// Per-stage wall time in seconds.
	BatchSec     float64 `json:"batch_sec"`
	SparsifySec  float64 `json:"sparsify_sec"`
	ReshuffleSec float64 `json:"reshuffle_sec"`
	MatchSec     float64 `json:"match_sec"`
}

// TotalSec is the summed stage time.
func (s Stats) TotalSec() float64 {
	return s.BatchSec + s.SparsifySec + s.ReshuffleSec + s.MatchSec
}

// Accumulate folds another run's stats into s (sizes and times sum; used by
// the engine to aggregate across zone shards).
func (s *Stats) Accumulate(o Stats) {
	s.Orders += o.Orders
	s.Vehicles += o.Vehicles
	s.Batches += o.Batches
	s.TrueEdges += o.TrueEdges
	s.Assigned += o.Assigned
	s.BatchSec += o.BatchSec
	s.SparsifySec += o.SparsifySec
	s.ReshuffleSec += o.ReshuffleSec
	s.MatchSec += o.MatchSec
}

// StatsSource is implemented by policies that record per-stage statistics;
// the engine type-asserts against it to publish PipelineStats per round.
type StatsSource interface {
	LastStats() Stats
}

// Pipeline is a composed assignment policy: batch → sparsify → reshuffle →
// match, each stage swappable. The zero option set is the full FOODMATCH
// composition of Section IV.
type Pipeline struct {
	label       string
	batcher     Batcher
	sparsifier  GraphSparsifier
	reshuffler  Reshuffler
	matcher     Matcher
	singleOrder func(*model.Config) bool

	last Stats
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithLabel overrides the pipeline's report name.
func WithLabel(label string) Option { return func(p *Pipeline) { p.label = label } }

// WithBatcher swaps stage 1. Nil is invalid: every window needs batches.
func WithBatcher(b Batcher) Option { return func(p *Pipeline) { p.batcher = b } }

// WithSparsifier swaps stage 2; nil skips graph construction entirely (for
// matchers that compute their own costs, e.g. GreedyMatcher).
func WithSparsifier(s GraphSparsifier) Option { return func(p *Pipeline) { p.sparsifier = s } }

// WithReshuffler swaps stage 3; nil disables reshuffling — the window loop
// then never strips pending orders for this policy (Reshuffles reports it).
func WithReshuffler(r Reshuffler) Option { return func(p *Pipeline) { p.reshuffler = r } }

// WithMatcher swaps stage 4.
func WithMatcher(m Matcher) Option { return func(p *Pipeline) { p.matcher = m } }

// WithSingleOrderWhen installs the SingleOrderMode predicate (nil = never:
// availability stays capacity-based).
func WithSingleOrderWhen(f func(*model.Config) bool) Option {
	return func(p *Pipeline) { p.singleOrder = f }
}

// New composes a pipeline. Defaults reproduce full FOODMATCH (Section IV):
// iterative-clustering batcher, best-first sparsifier, incumbent
// reshuffler, Kuhn–Munkres matcher, single-order mode when batching is
// switched off.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{
		label:       "FoodMatch",
		batcher:     ClusterBatcher{},
		sparsifier:  BestFirstSparsifier{},
		reshuffler:  IncumbentReshuffler{},
		matcher:     &KMMatcher{},
		singleOrder: func(cfg *model.Config) bool { return !cfg.Batching },
	}
	for _, o := range opts {
		o(p)
	}
	// Miscomposition is a programming error; fail at construction with a
	// named cause rather than as a nil dereference inside a shard
	// goroutine mid-run.
	if p.batcher == nil {
		panic("pipeline: a Batcher stage is required (WithBatcher(nil) is invalid)")
	}
	if p.matcher == nil {
		panic("pipeline: a Matcher stage is required (WithMatcher(nil) is invalid)")
	}
	return p
}

// Name implements Policy.
func (p *Pipeline) Name() string { return p.label }

// Reshuffles implements Policy: a pipeline reshuffles exactly when a
// reshuffler stage is installed *and* can run — the reshuffler adjusts the
// constructed graph, so without a sparsifier it never fires, and asking
// the window loop to strip pending orders it cannot re-prioritise would
// strand them (the config switch still gates reshuffling at the window
// loop).
func (p *Pipeline) Reshuffles() bool { return p.reshuffler != nil && p.sparsifier != nil }

// SingleOrderMode implements Policy.
func (p *Pipeline) SingleOrderMode(cfg *model.Config) bool {
	return p.singleOrder != nil && p.singleOrder(cfg)
}

// LastStats implements StatsSource: per-stage timings and sizes of the most
// recent Assign on this instance.
func (p *Pipeline) LastStats() Stats { return p.last }

// Assign implements Policy: run the composed stages in order, recording
// per-stage statistics. A cancelled ctx aborts between stages.
func (p *Pipeline) Assign(ctx context.Context, in *Input) []Assignment {
	p.last = Stats{Orders: len(in.Orders), Vehicles: len(in.Vehicles)}
	if len(in.Orders) == 0 || len(in.Vehicles) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil
	}

	t0 := time.Now()
	batches := p.batcher.Batch(ctx, in)
	p.last.BatchSec = time.Since(t0).Seconds()
	p.last.Batches = len(batches)
	if len(batches) == 0 || ctx.Err() != nil {
		return nil
	}

	var bp *foodgraph.Bipartite
	if p.sparsifier != nil {
		t0 = time.Now()
		bp = p.sparsifier.Sparsify(ctx, in, batches)
		p.last.SparsifySec = time.Since(t0).Seconds()
		p.last.TrueEdges = bp.TrueEdges
		if ctx.Err() != nil {
			return nil
		}
	}

	if p.reshuffler != nil && bp != nil && len(in.Incumbent) > 0 {
		t0 = time.Now()
		p.reshuffler.Adjust(ctx, in, batches, bp)
		p.last.ReshuffleSec = time.Since(t0).Seconds()
		if ctx.Err() != nil {
			return nil
		}
	}

	t0 = time.Now()
	out := p.matcher.Match(ctx, in, batches, bp)
	p.last.MatchSec = time.Since(t0).Seconds()
	for _, a := range out {
		p.last.Assigned += len(a.Orders)
	}
	return out
}

var _ Policy = (*Pipeline)(nil)
var _ StatsSource = (*Pipeline)(nil)
