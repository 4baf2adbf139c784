package engine

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/roadnet"
)

// engineObs bundles the engine's observability instruments beyond the
// lifecycle counters (histograms, gauges, the order tracer, router timing):
// direct pointers into an obs.Registry, resolved once at construction so
// hot-path recording is a handful of atomic adds with no registry lookups
// and no new locks on the round path. A nil *engineObs (Config.DisableObs)
// disables that recording — every obs instrument method is
// nil-receiver-safe, but the engine still guards with `if eo != nil` to skip
// the time.Now() calls too. The counters are kept either way.
type engineObs struct {
	reg    *obs.Registry
	tracer *obs.OrderTracer

	// Round plane.
	roundLatency *obs.Histogram
	phase        map[string]*obs.Histogram // drain/advance/handoff/match/apply/replan/rebuild
	stage        map[string]*obs.Histogram // batch/sparsify/reshuffle/match
	shardAdvance []*obs.Histogram
	shardAssign  []*obs.Histogram
	shardNames   []string

	// Dynamic weight plane.
	pubFull    *obs.Histogram
	pubPatched *obs.Histogram

	// Router query plane (sampled; see timedRouter).
	routerHist func(kind string) *obs.Histogram

	// Queue/pool gauges, sampled at the end of every round.
	gOrderQueue, gPingQueue, gPool *obs.Gauge
	gClock, gEpoch, gShardEpoch    *obs.Gauge
}

// roundPhases and pipelineStages are the fixed phase/stage vocabularies of
// the phased round (round.go) — histogram label values and span names. The
// resplit step is a child span under handoff (like weight publishes), not a
// top-level phase.
var roundPhases = []string{"drain", "advance", "handoff", "match", "apply", "replan", "rebuild"}

var pipelineStages = []string{"batch", "sparsify", "reshuffle", "match"}

func newEngineObs(reg *obs.Registry, shards, traceRing int) *engineObs {
	eo := &engineObs{reg: reg}
	eo.tracer = obs.NewOrderTracer(reg, traceRing)

	eo.roundLatency = reg.Histogram("foodmatch_round_latency_seconds",
		"Wall-clock latency of one full assignment round.", obs.DurationBuckets, nil)
	eo.phase = make(map[string]*obs.Histogram, len(roundPhases))
	for _, p := range roundPhases {
		eo.phase[p] = reg.Histogram("foodmatch_round_phase_seconds",
			"Wall-clock latency of one phase of the phased round.",
			obs.DurationBuckets, obs.Labels{"phase": p})
	}
	eo.stage = make(map[string]*obs.Histogram, len(pipelineStages))
	for _, st := range pipelineStages {
		eo.stage[st] = reg.Histogram("foodmatch_pipeline_stage_seconds",
			"Wall-clock latency of one assignment-pipeline stage (per shard-round).",
			obs.DurationBuckets, obs.Labels{"stage": st})
	}
	for s := 0; s < shards; s++ {
		label := obs.Labels{"shard": fmt.Sprintf("%d", s)}
		eo.shardNames = append(eo.shardNames, fmt.Sprintf("shard%d", s))
		eo.shardAdvance = append(eo.shardAdvance, reg.Histogram("foodmatch_shard_advance_seconds",
			"Per-shard movement-advance critical path.", obs.DurationBuckets, label))
		eo.shardAssign = append(eo.shardAssign, reg.Histogram("foodmatch_shard_assign_seconds",
			"Per-shard matching critical path (rounds where the shard ran).", obs.DurationBuckets, label))
	}

	eo.pubFull = reg.Histogram("foodmatch_weight_publish_seconds",
		"Weight-epoch publish duration, split full rebuild vs incremental patch.",
		obs.DurationBuckets, obs.Labels{"mode": "full"})
	eo.pubPatched = reg.Histogram("foodmatch_weight_publish_seconds", "",
		obs.DurationBuckets, obs.Labels{"mode": "patched"})

	eo.routerHist = func(kind string) *obs.Histogram {
		return reg.Histogram("foodmatch_router_query_seconds",
			"Sampled router Travel() latency by backend kind (1 in 64 queries).",
			obs.QueryBuckets, obs.Labels{"kind": kind})
	}

	eo.gOrderQueue = reg.Gauge("foodmatch_queue_depth",
		"Ingestion queue depth sampled at the end of the last round.",
		obs.Labels{"queue": "orders"})
	eo.gPingQueue = reg.Gauge("foodmatch_queue_depth", "", obs.Labels{"queue": "pings"})
	eo.gPool = reg.Gauge("foodmatch_pool_depth",
		"Unassigned orders pooled across all zone shards.", nil)
	eo.gClock = reg.Gauge("foodmatch_clock_sim_seconds",
		"Engine simulation clock (seconds since midnight).", nil)
	eo.gEpoch = reg.Gauge("foodmatch_weight_epoch",
		"Currently served weight epoch (0 = static base weights).", nil)
	eo.gShardEpoch = reg.Gauge("foodmatch_shard_epoch",
		"Current shard-partition generation (0 = initial node-balanced KD split).", nil)
	return eo
}

// recordPhases observes the round's phase, per-shard and pipeline-stage
// histograms and builds the span tree published on RoundStats.Phases.
// Called once per round after every duration is measured; recording is
// atomic adds only, and the span tree is a handful of small allocations
// whose names are the static phase vocabulary.
func (eo *engineObs) recordPhases(ph []phase1Out, work []shardWork,
	drainSec, advanceSec, handoffSec, pubSec, resplitSec, matchSec, applySec, replanSec, rebuildSec float64) []obs.Phase {

	eo.phase["drain"].Observe(drainSec)
	eo.phase["advance"].Observe(advanceSec)
	eo.phase["handoff"].Observe(handoffSec)
	eo.phase["match"].Observe(matchSec)
	eo.phase["apply"].Observe(applySec)
	eo.phase["replan"].Observe(replanSec)
	eo.phase["rebuild"].Observe(rebuildSec)

	advance := obs.Phase{Name: "advance", DurSec: advanceSec}
	for si := range ph {
		eo.shardAdvance[si].Observe(ph[si].advanceSec)
		advance.Children = append(advance.Children,
			obs.Phase{Name: eo.shardNames[si], DurSec: ph[si].advanceSec})
	}
	handoff := obs.Phase{Name: "handoff", DurSec: handoffSec}
	if pubSec > 0 {
		handoff.Children = append(handoff.Children, obs.Phase{Name: "publish", DurSec: pubSec})
	}
	if resplitSec > 0 {
		handoff.Children = append(handoff.Children, obs.Phase{Name: "resplit", DurSec: resplitSec})
	}
	match := obs.Phase{Name: "match", DurSec: matchSec}
	for si := range work {
		sw := &work[si]
		if len(sw.orders) == 0 || len(sw.vehicles) == 0 {
			continue // shard skipped this round: no assign critical path
		}
		eo.shardAssign[si].Observe(sw.sec)
		child := obs.Phase{Name: eo.shardNames[si], DurSec: sw.sec}
		if ps := sw.pstats; ps != nil {
			eo.stage["batch"].Observe(ps.BatchSec)
			eo.stage["sparsify"].Observe(ps.SparsifySec)
			eo.stage["reshuffle"].Observe(ps.ReshuffleSec)
			eo.stage["match"].Observe(ps.MatchSec)
			child.Children = []obs.Phase{
				{Name: "batch", DurSec: ps.BatchSec},
				{Name: "sparsify", DurSec: ps.SparsifySec},
				{Name: "reshuffle", DurSec: ps.ReshuffleSec},
				{Name: "match", DurSec: ps.MatchSec},
			}
		}
		match.Children = append(match.Children, child)
	}
	return []obs.Phase{
		{Name: "drain", DurSec: drainSec},
		advance,
		handoff,
		match,
		{Name: "apply", DurSec: applySec},
		{Name: "replan", DurSec: replanSec},
		{Name: "rebuild", DurSec: rebuildSec},
	}
}

// timedRouter decorates a shard's Router with sampled query timing: every
// 64th Travel() is bracketed with time.Now(). Router instances are driven by
// a single shard goroutine at a time (the engine's ownership contract), so
// the sample counter needs no atomics; the histogram it feeds is atomic.
type timedRouter struct {
	inner roadnet.Router
	hist  *obs.Histogram
	n     uint32
}

const routerSampleEvery = 64

func (t *timedRouter) Travel(from, to roadnet.NodeID, at float64) float64 {
	t.n++
	if t.n%routerSampleEvery != 0 {
		return t.inner.Travel(from, to, at)
	}
	start := time.Now()
	d := t.inner.Travel(from, to, at)
	t.hist.Observe(time.Since(start).Seconds())
	return d
}

// TravelMany forwards the batched query path (sampled like Travel, one
// observation per batch) so the decorator never degrades a many-to-many
// backend to per-pair queries.
func (t *timedRouter) TravelMany(from roadnet.NodeID, targets []roadnet.NodeID, at float64) []float64 {
	t.n++
	if t.n%routerSampleEvery != 0 {
		return roadnet.TravelMany(t.inner, from, targets, at)
	}
	start := time.Now()
	d := roadnet.TravelMany(t.inner, from, targets, at)
	t.hist.Observe(time.Since(start).Seconds())
	return d
}

// Reset forwards to the inner router's cache reset (slot boundaries).
func (t *timedRouter) Reset() {
	if r, ok := t.inner.(roadnet.Resettable); ok {
		r.Reset()
	}
}

// RouterKind forwards the inner backend's kind.
func (t *timedRouter) RouterKind() string { return routerKind(t.inner) }

// Unwrap exposes the decorated backend (tests, diagnostics).
func (t *timedRouter) Unwrap() roadnet.Router { return t.inner }

// routerKind names a router backend for the query-latency label set.
func routerKind(r roadnet.Router) string {
	if k, ok := r.(roadnet.Kinded); ok {
		return k.RouterKind()
	}
	return fmt.Sprintf("%T", r)
}

// timeRouter wraps a freshly built shard router (including every epoch
// rebuild through SwapRouter's factory) with the sampled timing decorator.
func (eo *engineObs) timeRouter(r roadnet.Router) roadnet.Router {
	return &timedRouter{inner: r, hist: eo.routerHist(routerKind(r))}
}

// Obs returns the engine's metrics registry (the one behind foodmatchd's
// GET /metrics.prom), or nil when Config.DisableObs was set.
func (e *Engine) Obs() *obs.Registry {
	if e.eo == nil {
		return nil
	}
	return e.eo.reg
}

// TraceTail returns up to n of the most recent order-lifecycle events from
// the bounded event ring, oldest first. Nil unless Config.TraceRing > 0.
func (e *Engine) TraceTail(n int) []obs.OrderEvent {
	if e.eo == nil {
		return nil
	}
	return e.eo.tracer.Tail(n)
}

// Ready reports whether the engine has started its window clock and
// completed at least one assignment round — foodmatchd's readiness
// condition. Lock-free on the round path.
func (e *Engine) Ready() bool {
	e.runMu.Lock()
	running := e.stopCh != nil
	e.runMu.Unlock()
	if !running {
		return false
	}
	return e.totals.rounds.Value() > 0
}
