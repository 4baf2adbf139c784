package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	foodmatch "repro"
	"repro/internal/foodgraph"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
)

// Span names, one per layer boundary the bench can see from outside.
const (
	spanStep      = "engine.step"
	spanAssign    = "pipeline.assign"
	spanBatching  = "batching"
	spanFoodgraph = "foodgraph"
	spanReshuffle = "pipeline.reshuffle"
	spanMatching  = "matching"
)

// span is one timed interval: which layer, when, caused by which span, in
// which round. Counts carries the work counters read at the same boundary.
type span struct {
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"` // -1 = root
	Name   string             `json:"name"`
	Round  int32              `json:"round"`
	Shard  int32              `json:"shard"`
	Start  int64              `json:"start_ns"` // since the tracer was made
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans from the benchmark's own files, around the calls into
// each layer: Step, Policy.Assign, the four pipeline stages, and (as counters,
// not spans — there are millions) every router query. Spans stay in memory
// until writeSpans.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	round atomic.Int32 // round id of the Step in flight
	step  atomic.Int32 // span id of the Step in flight

	policies atomic.Int32 // policy instances handed to the engine
	metersMu sync.Mutex
	meters   []*meterRouter
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// clockNs is what an empty timed section reads — the part of the two clock
// calls that falls between them — subtracted from every sampled query so a
// 12 ns memoised answer is not reported as 40 ns.
var clockNs = func() float64 {
	const n = 4096
	var sum int64
	for i := 0; i < n; i++ {
		sum += time.Since(time.Now()).Nanoseconds()
	}
	return float64(sum) / n
}()

func (t *tracer) begin(name string, parent, shard int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: t.round.Load(), Shard: shard, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32, counts map[string]float64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Counts = counts
	t.mu.Unlock()
}

func (t *tracer) beginStep(round int) int32 {
	t.round.Store(int32(round))
	id := t.begin(spanStep, -1, -1)
	t.step.Store(id)
	return id
}

func (t *tracer) endStep(id int32) { t.end(id, nil) }

// instrument wires the tracer into an engine config: the policy becomes
// pipeline.New with every default stage wrapped, and the shard routers are
// built through a metering wrapper. Neither changes a value a stage sees.
func (t *tracer) instrument(ecfg *foodmatch.EngineConfig) {
	ecfg.NewPolicy = func() foodmatch.Policy {
		// The engine builds its prototype instance first, then one per shard.
		p := &tracedPolicy{t: t, shard: t.policies.Add(1) - 2}
		p.inner = pipeline.New(
			pipeline.WithBatcher(tracedBatcher{pipeline.ClusterBatcher{}, p}),
			pipeline.WithSparsifier(tracedSparsifier{pipeline.BestFirstSparsifier{}, p}),
			pipeline.WithReshuffler(tracedReshuffler{pipeline.IncumbentReshuffler{}, p}),
			pipeline.WithMatcher(tracedMatcher{&pipeline.KMMatcher{}, p}),
		)
		return p
	}
	inner := ecfg.NewRouter
	if inner == nil {
		// The engine's own default: bounded SSSP capped at 2×MaxFirstMile.
		bound := 2 * ecfg.Pipeline.MaxFirstMile
		inner = func(g *foodmatch.Graph) foodmatch.Router { return foodmatch.NewBoundedRouter(g, bound) }
	}
	ecfg.NewRouter = func(g *foodmatch.Graph) foodmatch.Router {
		m := &meterRouter{inner: inner(g)}
		t.metersMu.Lock()
		t.meters = append(t.meters, m)
		t.metersMu.Unlock()
		return m
	}
}

// tracedPolicy spans Policy.Assign and parents the stage spans under it.
// One instance serves one shard, never concurrently (the engine's contract),
// so cur needs no synchronisation.
type tracedPolicy struct {
	t     *tracer
	inner *pipeline.Pipeline
	shard int32
	cur   int32 // Assign span in flight
}

func (p *tracedPolicy) Name() string                           { return p.inner.Name() }
func (p *tracedPolicy) Reshuffles() bool                       { return p.inner.Reshuffles() }
func (p *tracedPolicy) SingleOrderMode(cfg *model.Config) bool { return p.inner.SingleOrderMode(cfg) }
func (p *tracedPolicy) LastStats() pipeline.Stats              { return p.inner.LastStats() }

func (p *tracedPolicy) Assign(ctx context.Context, in *pipeline.Input) []pipeline.Assignment {
	p.cur = p.t.begin(spanAssign, p.t.step.Load(), p.shard)
	out := p.inner.Assign(ctx, in)
	p.t.end(p.cur, nil)
	return out
}

// stage runs one pipeline stage under a span, with Input.Router swapped for a
// counting router so queries are attributed to the stage that issued them.
func (p *tracedPolicy) stage(name string, in *pipeline.Input, run func(in *pipeline.Input) map[string]float64) {
	id := p.t.begin(name, p.cur, p.shard)
	cr := &countingRouter{inner: in.Router}
	tagged := *in
	tagged.Router = cr
	counts := run(&tagged)
	if counts == nil {
		counts = map[string]float64{}
	}
	counts["travel_calls"] = float64(cr.travel)
	counts["travel_many_calls"] = float64(cr.many)
	counts["travel_many_targets"] = float64(cr.targets)
	p.t.end(id, counts)
}

type tracedBatcher struct {
	inner pipeline.Batcher
	p     *tracedPolicy
}

func (b tracedBatcher) Name() string { return b.inner.Name() }
func (b tracedBatcher) Batch(ctx context.Context, in *pipeline.Input) (out []*model.Batch) {
	b.p.stage(spanBatching, in, func(in *pipeline.Input) map[string]float64 {
		out = b.inner.Batch(ctx, in)
		return map[string]float64{"orders": float64(len(in.Orders)), "batches": float64(len(out))}
	})
	return out
}

type tracedSparsifier struct {
	inner pipeline.GraphSparsifier
	p     *tracedPolicy
}

func (s tracedSparsifier) Name() string { return s.inner.Name() }
func (s tracedSparsifier) Sparsify(ctx context.Context, in *pipeline.Input, batches []*model.Batch) (bp *foodgraph.Bipartite) {
	s.p.stage(spanFoodgraph, in, func(in *pipeline.Input) map[string]float64 {
		bp = s.inner.Sparsify(ctx, in, batches)
		return map[string]float64{"batches": float64(len(batches)), "vehicles": float64(len(in.Vehicles)), "true_edges": float64(bp.TrueEdges)}
	})
	return bp
}

type tracedReshuffler struct {
	inner pipeline.Reshuffler
	p     *tracedPolicy
}

func (r tracedReshuffler) Name() string { return r.inner.Name() }
func (r tracedReshuffler) Adjust(ctx context.Context, in *pipeline.Input, batches []*model.Batch, bp *foodgraph.Bipartite) {
	r.p.stage(spanReshuffle, in, func(in *pipeline.Input) map[string]float64 {
		r.inner.Adjust(ctx, in, batches, bp)
		return nil
	})
}

type tracedMatcher struct {
	inner pipeline.Matcher
	p     *tracedPolicy
}

func (m tracedMatcher) Name() string { return m.inner.Name() }
func (m tracedMatcher) Match(ctx context.Context, in *pipeline.Input, batches []*model.Batch, bp *foodgraph.Bipartite) (out []pipeline.Assignment) {
	m.p.stage(spanMatching, in, func(in *pipeline.Input) map[string]float64 {
		out = m.inner.Match(ctx, in, batches, bp)
		return map[string]float64{"cells": float64(len(batches) * len(in.Vehicles))}
	})
	return out
}

// countingRouter counts the queries one stage call issues; values pass
// through untouched (TravelMany via roadnet.TravelMany, so a batched backend
// keeps its batched path).
type countingRouter struct {
	inner                 roadnet.Router
	travel, many, targets int64
}

func (c *countingRouter) Travel(from, to roadnet.NodeID, t float64) float64 {
	c.travel++
	return c.inner.Travel(from, to, t)
}

func (c *countingRouter) TravelMany(from roadnet.NodeID, targets []roadnet.NodeID, t float64) []float64 {
	c.many++
	c.targets += int64(len(targets))
	return roadnet.TravelMany(c.inner, from, targets, t)
}

// queries is every point answer the stage asked for.
func (c *countingRouter) queries() int64 { return c.travel + c.targets }

// meterRouter wraps one shard router (one per shard per weight epoch): it
// counts every query and +Inf answer, and times a sample of the point queries
// — every meterStride-th, since there are millions per round and two clock
// reads cost as much as a memoised answer. The engine drives a shard router
// from one goroutine at a time and hands it over only across its own
// barriers, so plain fields suffice.
type meterRouter struct {
	inner                          roadnet.Router
	travelCalls                    int64
	sampledCalls, sampledNs        int64
	manyCalls, manyTargets, manyNs int64
	infs                           int64
}

// meterStride is prime so the sample does not lock onto a loop period of the
// stages' query patterns.
const meterStride = 61

func (m *meterRouter) Travel(from, to roadnet.NodeID, t float64) float64 {
	m.travelCalls++
	var d float64
	if m.travelCalls%meterStride == 0 {
		t0 := time.Now()
		d = m.inner.Travel(from, to, t)
		m.sampledNs += time.Since(t0).Nanoseconds()
		m.sampledCalls++
	} else {
		d = m.inner.Travel(from, to, t)
	}
	if math.IsInf(d, 1) {
		m.infs++
	}
	return d
}

// travelNs is the mean sampled point-query latency.
func (m *meterRouter) travelNs() float64 {
	return max(ratio(float64(m.sampledNs), float64(m.sampledCalls))-clockNs, 0)
}

// busyNs estimates the total time spent answering queries.
func (m *meterRouter) busyNs() float64 {
	return m.travelNs()*float64(m.travelCalls) + float64(m.manyNs)
}

func (m *meterRouter) TravelMany(from roadnet.NodeID, targets []roadnet.NodeID, t float64) []float64 {
	t0 := time.Now()
	out := roadnet.TravelMany(m.inner, from, targets, t)
	m.manyNs += time.Since(t0).Nanoseconds()
	m.manyCalls++
	m.manyTargets += int64(len(targets))
	for _, d := range out {
		if math.IsInf(d, 1) {
			m.infs++
		}
	}
	return out
}

// Reset, RouterKind and Unwrap keep the wrapper transparent to the engine's
// slot-boundary resets, telemetry labels and backend-stat lookups.
func (m *meterRouter) Reset() {
	if r, ok := m.inner.(roadnet.Resettable); ok {
		r.Reset()
	}
}

func (m *meterRouter) RouterKind() string {
	if k, ok := m.inner.(roadnet.Kinded); ok {
		return k.RouterKind()
	}
	return fmt.Sprintf("%T", m.inner)
}

func (m *meterRouter) Unwrap() roadnet.Router { return m.inner }

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its child spans cover (children may overlap each other when
// shards run in parallel, so the cover is an interval union).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return self
}

// unionLen is the total length of the union of intervals, clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	open := false
	for _, x := range s {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanTotals aggregates the finished spans by name.
type spanTotals struct {
	calls  int
	durNs  int64
	selfNs int64
	counts map[string]float64
}

func (t *tracer) totals() map[string]*spanTotals {
	self := selfTimes(t.spans)
	out := make(map[string]*spanTotals)
	for _, s := range t.spans {
		tt := out[s.Name]
		if tt == nil {
			tt = &spanTotals{counts: map[string]float64{}}
			out[s.Name] = tt
		}
		tt.calls++
		tt.durNs += s.dur()
		tt.selfNs += self[s.ID]
		for k, v := range s.Counts {
			tt.counts[k] += v
		}
	}
	for _, name := range []string{spanStep, spanAssign, spanBatching, spanFoodgraph, spanReshuffle, spanMatching} {
		if out[name] == nil {
			out[name] = &spanTotals{counts: map[string]float64{}}
		}
	}
	return out
}

// sharesSum is engine.self_pct plus every pipeline share: 100% when one shard
// runs and the spans nest cleanly.
func (t *tracer) sharesSum() float64 {
	tt := t.totals()
	step := float64(tt[spanStep].durNs)
	sum := float64(tt[spanStep].selfNs + tt[spanAssign].selfNs)
	for _, name := range []string{spanBatching, spanFoodgraph, spanReshuffle, spanMatching} {
		sum += float64(tt[name].durNs)
	}
	return 100 * ratio(sum, step)
}

// layerMetrics derives the per-layer metrics of the stepped workloads from
// the traced replay; allocation and submit figures come from the untraced
// replay of the same day so the tracer's own garbage stays out of them.
func (t *tracer) layerMetrics(plain, traced *replayOut) map[string]float64 {
	tt := t.totals()
	stepNs := float64(tt[spanStep].durNs)
	pct := func(ns int64) float64 { return 100 * ratio(float64(ns), stepNs) }
	msPerCall := func(s *spanTotals) float64 { return ratio(float64(s.durNs)/1e6, float64(s.calls)) }
	queries := func(s *spanTotals) float64 { return s.counts["travel_calls"] + s.counts["travel_many_targets"] }
	rounds := float64(traced.rounds)

	var mr meterRouter
	for _, m := range t.meters {
		mr.travelCalls += m.travelCalls
		mr.sampledCalls += m.sampledCalls
		mr.sampledNs += m.sampledNs
		mr.manyCalls += m.manyCalls
		mr.manyTargets += m.manyTargets
		mr.manyNs += m.manyNs
		mr.infs += m.infs
	}

	var assignIv [][2]int64
	for _, s := range t.spans {
		if s.Name == spanAssign {
			assignIv = append(assignIv, [2]int64{s.Start, s.End})
		}
	}
	poolMax, poolSum := 0, 0
	for _, p := range traced.pools {
		poolSum += p
		poolMax = max(poolMax, p)
	}
	batching, fg, matching := tt[spanBatching], tt[spanFoodgraph], tt[spanMatching]
	m := traced.snap
	return map[string]float64{
		"engine.step_ms_per_round": ratio(stepNs/1e6, rounds),
		"engine.self_pct":          pct(tt[spanStep].selfNs),
		"engine.cpu_ms_per_order":  ratio(plain.cpu.Seconds()*1000, float64(plain.orders)),
		"engine.allocs_per_round":  ratio(float64(plain.mallocs), float64(plain.rounds)),
		"engine.bytes_per_round":   ratio(float64(plain.allocBytes), float64(plain.rounds)),
		"engine.pool_mean":         ratio(float64(poolSum), float64(len(traced.pools))),
		"engine.pool_max":          float64(poolMax),
		"engine.submit_us":         percentile(plain.submitSec, 50) * 1e6,
		"engine.assign_overlap_x":  ratio(float64(tt[spanAssign].durNs), float64(unionLen(assignIv, math.MinInt64, math.MaxInt64))),
		"engine.rejected_pct":      100 * ratio(float64(m.Rejected), float64(m.OrdersAdmitted)),
		"engine.reassigned_pct":    100 * ratio(float64(m.Reassigned), float64(m.Assigned)),

		"pipeline.assign_pct":    pct(tt[spanAssign].selfNs),
		"pipeline.reshuffle_pct": pct(tt[spanReshuffle].durNs),

		"batching.busy_pct":                 pct(batching.durNs),
		"batching.ms_per_call":              msPerCall(batching),
		"batching.orders_per_batch":         ratio(batching.counts["orders"], batching.counts["batches"]),
		"batching.router_queries_per_order": ratio(queries(batching), batching.counts["orders"]),

		"foodgraph.busy_pct":                pct(fg.durNs),
		"foodgraph.ms_per_call":             msPerCall(fg),
		"foodgraph.true_edges_per_batch":    ratio(fg.counts["true_edges"], fg.counts["batches"]),
		"foodgraph.router_queries_per_edge": ratio(queries(fg), fg.counts["true_edges"]),
		"foodgraph.many_targets_per_call":   ratio(fg.counts["travel_many_targets"], fg.counts["travel_many_calls"]),

		"matching.busy_pct":       pct(matching.durNs),
		"matching.ms_per_call":    msPerCall(matching),
		"matching.cells_per_call": ratio(matching.counts["cells"], float64(matching.calls)),

		"roadnet.busy_pct":                    100 * ratio(mr.busyNs(), stepNs),
		"roadnet.travel_calls_per_round":      ratio(float64(mr.travelCalls), rounds),
		"roadnet.travel_many_calls_per_round": ratio(float64(mr.manyCalls), rounds),
		"roadnet.travel_ns":                   mr.travelNs(),
		"roadnet.inf_pct":                     100 * ratio(float64(mr.infs), float64(mr.travelCalls+mr.manyTargets)),
		"roadnet.publishes":                   float64(m.WeightPublishes),
		"roadnet.resplits":                    float64(m.Resplits),

		"trace.overhead_x": ratio(plain.sumStepSec, traced.sumStepSec),

		"quality.xdt_min_per_order": xdtMinPerOrder(m),
		"quality.orders_per_km":     ordersPerKm(m),
	}
}

// writeSpans writes the span file: one JSON object per line, in start order.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return f.Close()
}
