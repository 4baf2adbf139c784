// Package engine is the online dispatch engine: a concurrent, long-running
// assignment service that wraps the offline FOODMATCH pipeline (batching →
// FoodGraph → KM matching → reshuffling) behind an event-driven API.
//
// The Engine ingests live order placements and vehicle location pings
// through bounded queues, accumulates them into ∆-second assignment windows,
// and at every window boundary runs the assignment round — partitioned into
// K geographic zone shards, each with its own policy instance and distance
// cache, matched in parallel. Assignment and reshuffle decisions are
// published on a channel-based AssignmentStream together with per-round
// engine metrics (queue depth, round latency, orders/sec).
//
// The Engine can be driven two ways: Start launches the real-time window
// clock (wall-clock ticks mapped onto simulation seconds by a time-scale
// factor), while Step advances the engine to an explicit instant — the mode
// replay drivers and tests use for determinism. The offline Simulator
// (offline.go) is such a driver: it replays a pre-generated order stream
// through a single-shard engine and collects the paper's metrics.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/spindex"
	"repro/internal/trace"
	"repro/internal/wal"
)

// NewHubLabelRouter returns a Config.NewRouter factory for the hub-label
// backend: each zone shard (and each published weight epoch — SwapRouter
// rebuilds through the same factory) gets a spindex.AsyncRouter whose
// per-slot labels build in the background while a bounded-SSSP cache
// answers in the meantime. spBound caps that fallback's expansions in
// seconds; 0 defaults to 2×DefaultConfig().MaxFirstMile — when the engine
// runs a non-default Pipeline.MaxFirstMile, pass 2×that value so the
// fallback's reachability horizon matches the rest of the engine. The
// first query of a slot also pre-builds the next slot — wrapping 23 → 0 at
// midnight — so label builds stay ahead of the replay clock.
//
// syncBuild builds labels synchronously on first touch instead: replays
// become deterministic (no fallback-to-label switchover mid-window) at the
// cost of one build stall per (epoch, slot).
func NewHubLabelRouter(spBound float64, syncBuild bool) func(*roadnet.Graph) roadnet.Router {
	return func(g *roadnet.Graph) roadnet.Router {
		bound := spBound
		if bound <= 0 {
			bound = 2 * model.DefaultConfig().MaxFirstMile
		}
		return spindex.NewAsyncRouter(g, roadnet.NewBoundedRouter(g, bound), syncBuild)
	}
}

// NewCCHRouter returns a Config.NewRouter factory for the customizable
// contraction hierarchy backend. One stateful factory backs every shard and
// every published weight epoch: topology preprocessing runs once, each
// epoch's metric customizes lazily per slot, and epochs produced by the
// learner's incremental PatchReweighted publishes re-customize only the
// arcs their dirty cells reach (Graph.PatchProvenance) instead of the whole
// hierarchy. Shards publishing the same snapshot share one metric, so the
// customization cost is per epoch, not per shard.
func NewCCHRouter() func(*roadnet.Graph) roadnet.Router {
	f := roadnet.NewCCHFactory()
	return f.NewRouter
}

// Errors surfaced to producers. A full queue is backpressure, not failure:
// callers decide whether to retry, shed, or block.
var (
	ErrQueueFull  = errors.New("engine: ingestion queue full")
	ErrStopped    = errors.New("engine: stopped")
	ErrNotRunning = errors.New("engine: not running")
	ErrRunning    = errors.New("engine: already running")
)

// Config tunes the online engine.
type Config struct {
	// Pipeline is the assignment-pipeline operating point (∆, MAXO, …).
	Pipeline *model.Config
	// NewPolicy constructs one policy instance per shard; policies are not
	// required to be internally synchronised (see policy.Policy), so the
	// engine never shares an instance across shards. Nil = full FOODMATCH.
	NewPolicy func() policy.Policy
	// Shards is the zone-shard count K; values < 2 run unsharded.
	Shards int
	// QueueSize bounds each ingestion queue (orders, vehicle pings);
	// 0 defaults to 4096. Producers get ErrQueueFull beyond it.
	QueueSize int
	// NewRouter constructs the shortest-path backend one zone shard's
	// pipeline consumes (called once per shard, so instances need not be
	// safe for concurrent use). Nil defaults to a bounded-SSSP distance
	// cache capped at 2×Pipeline.MaxFirstMile — swap in hub labels, CCH or
	// plain Dijkstra per workload. SDT admission reads that default cache
	// when it serves the true graph (no NewRouter, Learner or
	// DecisionGraph); otherwise each shard keeps a separate bounded cache
	// (same cap) over the true graph for SDT.
	NewRouter func(g *roadnet.Graph) roadnet.Router
	// Workers bounds the goroutines advancing vehicle movement between
	// rounds; 0 defaults to GOMAXPROCS. The budget is split across zone
	// shards in proportion to their resident fleets by largest-remainder
	// allocation (shares sum to min(Workers, fleet) — a hotspot zone gets
	// the workers its share warrants, and no share is silently lost to
	// flooring); Workers=1 makes movement — and so the learner's
	// observation order — fully deterministic.
	Workers int
	// Trace receives the engine event stream (nil = discard). The sink must
	// be safe for concurrent use: shards emit from their own goroutines.
	Trace trace.Sink

	// DecisionGraph, when set, is the road network the assignment pipeline
	// *believes*: every shard Router and pipeline stage runs over it, while
	// vehicle movement and SDT admission stay on the true graph — the
	// paper's protocol of learning weights on past days and driving on
	// reality. Must share the true graph's topology. Nil = the true graph.
	DecisionGraph *roadnet.Graph
	// Learner, when set, turns on the live traffic plane: every finished
	// edge traversal streams into it (the mover's Edge hook — the
	// simulated analogue of driver GPS pings), node-snapped vehicle pings
	// feed it at drain time, and every WeightRefreshSec of simulation time
	// the engine materialises the learned estimates over the decision
	// graph and hot-swaps each zone shard's Router onto the new epoch.
	Learner *gps.StreamLearner
	// WeightRefreshSec is the simulation-time period between weight-epoch
	// publishes; 0 defaults to 900 (one publish per quarter hour).
	WeightRefreshSec float64
	// MinSamples withholds learned cells with fewer observations from a
	// published epoch (they fall back to the decision graph's prior);
	// 0 defaults to 3.
	MinSamples int
	// ResplitSec is the simulation-time cadence of demand-driven shard
	// re-splits: every ResplitSec the handoff barrier rebuilds the KD
	// partition weighted by observed order arrivals per node and migrates
	// vehicles, pools, caches and policies onto the new zones exactly-once
	// (see round.go's maybeResplit). 0 (the default) disables re-splitting
	// and keeps the static node-balanced partition; values < 2 shards
	// always no-op.
	ResplitSec float64

	// Obs is the metrics registry the engine records into (round latency
	// histograms, per-phase spans, pipeline-stage timings, router query
	// latency — see internal/obs) and the only store of its lifecycle
	// counters, which Snapshot and checkpoints read back: use one engine per
	// registry. Nil creates a private registry; either way it is served by
	// Engine.Obs() and foodmatchd's GET /metrics.prom. Share a registry with
	// other components (the WAL) to co-expose them on one scrape endpoint.
	Obs *obs.Registry
	// DisableObs turns the observability plane off: no histograms, spans,
	// lifecycle tracer or router timing, and Engine.Obs() is nil. The
	// lifecycle counters behind Snapshot still count, in a private registry
	// (never in Obs). The baseline arm of BenchmarkObsOverhead; production
	// keeps it on.
	DisableObs bool
	// TraceRing bounds the order-lifecycle NDJSON event ring served by
	// Engine.TraceTail / foodmatchd's GET /trace/orders; 0 (the default)
	// disables the ring while keeping the transition histograms.
	TraceRing int
	// SlowRoundSec is the slow-round log threshold: a round whose wall-clock
	// latency exceeds it triggers OnSlowRound with the full round stats —
	// span tree included — so a single slow round can be reconstructed
	// post-hoc. 0 disables.
	SlowRoundSec float64
	// OnSlowRound receives threshold-exceeding rounds. Called synchronously
	// at the end of the round (after stats are final, outside any engine
	// lock the callback could want); keep it cheap or hand off.
	OnSlowRound func(RoundStats)

	// WAL, when set, is the ingestion write-ahead log: every accepted order
	// and ping is appended (durably, per the log's sync policy) *before* it
	// is enqueued, so a crash between acceptance and the next checkpoint
	// loses nothing — ReplayWAL re-delivers the tail past the checkpoint's
	// drained high-waters. The engine owns the append path but not the log's
	// lifecycle: callers Open/Rotate/TruncateThrough/Close it (see
	// Engine.CheckpointState for the truncation bound).
	WAL *wal.Log

	// phaseHook, when set (in-package tests only), is called at the start of
	// each round phase with its name (drain, advance, handoff, resplit,
	// match, apply, replan, rebuild; resplit fires only when a demand-driven
	// re-split actually executes) — the fault-injection seam: a hook that panics
	// simulates a crash at exactly that phase, with roundMu released by
	// StepContext's deferred unlock and only the on-disk WAL + checkpoint
	// surviving.
	phaseHook func(phase string)
}

// vehiclePing is one queued location/status update.
type vehiclePing struct {
	id   model.VehicleID
	node roadnet.NodeID
	// shift updates, seconds since midnight; NaN = leave unchanged.
	activeFrom, activeTo float64
	// seq is the ping's WAL sequence number (0 when no WAL is configured).
	seq uint64
}

// queuedOrder is one queued order placement with its WAL sequence number
// (0 when no WAL is configured).
type queuedOrder struct {
	o   *model.Order
	seq uint64
}

// motionRt wraps one vehicle's movement state with its shard residency: the
// zone shard currently owning it and its index in that shard's motion list
// (swap-removal bookkeeping for O(1) cross-shard handoff).
type motionRt struct {
	mo    *sim.Motion
	shard int32
	pos   int32
}

// shardTiming tracks one shard's per-round wall-clock costs (written at the
// round barrier, read by Snapshot).
type shardTiming struct {
	rounds          int64
	advanceSecTotal float64
	assignSecTotal  float64
	lastAdvanceSec  float64
	lastAssignSec   float64
}

// shardState is the per-shard resident world state: the vehicles currently
// homed in the zone, the zone's order pool, its own policy instance, mover
// and epoch-swapped Router. During a round's parallel phases each shard's
// state is owned exclusively by its own goroutine; cross-shard movement
// happens only in the serial handoff barrier, so the hot path needs no
// locks at all. The small mutex below guards only the statistics surfaces
// concurrent readers (Snapshot, /metrics) sample mid-round.
type shardState struct {
	id     int
	pol    policy.Policy
	router *roadnet.SwapRouter
	slot   int // slot the memoised rows of router and sdt belong to

	motions []*motionRt    // vehicles homed in this zone
	pool    []*model.Order // placed, unassigned orders homed in this zone
	mover   *sim.Mover     // per-shard mover: hooks book into ledger

	// newOrders holds this round's freshly admitted orders awaiting their
	// SDT lower bound, computed in the shard's parallel phase on the true
	// graph — admission-time Dijkstra work stays off the serial drain path.
	// sdt is a bounded cache over the true graph, kept only when router's
	// rows are not the true graph's bounded rows (a custom NewRouter, a
	// Learner or a DecisionGraph); nil means SDT reads router, so the
	// shard holds one distance memo.
	newOrders []*model.Order
	sdt       *roadnet.DistCache
	// sdtOrders / sdtTargets are round-scratch for grouping newOrders by
	// (restaurant, slot) so each group's SDTs resolve through one batched
	// row query; retained across rounds to keep the hot path alloc-free.
	sdtOrders  []*model.Order
	sdtTargets []roadnet.NodeID

	// poolLen / vehLen mirror len(pool) / len(motions) for lock-free
	// Snapshot reads while a round is mutating the real slices.
	poolLen atomic.Int64
	vehLen  atomic.Int64

	// hookMu guards ledger (written by this shard's movement workers,
	// admission and rejection) and timing (written at the round barrier);
	// both are read by Snapshot. The ledger is the shard's share of the
	// paper's Section V metrics — the offline Simulator returns shard 0's.
	hookMu sync.Mutex
	ledger *sim.Metrics
	timing shardTiming
	slaSec float64 // > 0: deliveries slower than this are SLA violations (NewSimulator only)
}

// Engine is the online dispatcher. All exported methods are safe for
// concurrent use.
type Engine struct {
	g *roadnet.Graph
	// decG is the decision plane's base graph (what epoch 0 serves);
	// see Config.DecisionGraph.
	decG *roadnet.Graph
	dyn  *dynamicState // nil = static road network
	cfg  Config
	sh   *sharder
	// canonSh is the boot-time node-balanced partition, kept as the fixed
	// relabelling reference for demand-driven re-splits (see
	// sharder.relabelToMatch): every rebuilt partition names its zones to
	// maximise overlap with this one, so re-splits migrate only the nodes
	// whose zone genuinely changed.
	canonSh *sharder
	mover   *sim.Mover // hook-less: plan swaps and relocations
	shards  []*shardState
	// pol is the prototype instance answering Reshuffles/SingleOrderMode
	// (identical across shards by construction).
	pol policy.Policy

	orderCh chan queuedOrder
	pingCh  chan vehiclePing

	// walMu makes WAL-append + channel-send + ingested count atomic per
	// producer: with the consumer only ever shrinking the channels, a
	// capacity check under the mutex guarantees the send cannot block, and
	// the atomicity guarantees channel order equals WAL sequence order per
	// kind — the invariant the drained high-waters (walOrderSeq/walPingSeq,
	// owned by roundMu) rely on for exact-once replay — and lets a
	// checkpoint leave the still-queued records out of its ingested totals.
	walMu sync.Mutex
	// walOrderSeq / walPingSeq are the per-kind drained high-waters: every
	// WAL record of that kind with seq <= the high-water has been applied to
	// engine state. Owned by roundMu (updated at drain, captured by
	// CheckpointState, advanced by ReplayWAL).
	walOrderSeq uint64
	walPingSeq  uint64

	// roundMu serialises rounds and whole-world reads (Idle). World state is
	// shard-resident: during a round's parallel phases each shard goroutine
	// owns its shardState outright, and roundMu is what keeps the serial
	// sections (queue drain, cross-shard handoff barrier, application) from
	// interleaving with another round. Unlike the old engine-wide world
	// mutex, nothing on the metrics plane (Snapshot, Clock, Roadnet) ever
	// takes it.
	roundMu sync.Mutex
	motions []*sim.Motion // stable fleet order (owned by roundMu)
	byID    map[model.VehicleID]*sim.Motion
	rtByID  map[model.VehicleID]*motionRt
	future  []*model.Order // ingested with PlacedAt beyond the clock
	clock   float64
	slot    int
	// pingHandoffs counts ping relocations that re-homed a vehicle across a
	// zone boundary since the last round closed (folded into that round's
	// VehicleHandoffs; owned by roundMu).
	pingHandoffs int

	// demand counts order admissions per restaurant node since the last
	// re-split (halved, not zeroed, at each re-split so the signal tracks a
	// moving average of recent load); demandTotal is its sum. partDemand is
	// the demand vector the *current* partition was built from (nil while
	// the initial node-balanced partition stands) — checkpointed so restore
	// rebuilds the identical sharder. lastResplitT is the simulation time of
	// the last re-split decision (-Inf before the first). All owned by
	// roundMu.
	demand       []int64
	demandTotal  int64
	partDemand   []int64
	lastResplitT float64

	// shardEpoch counts executed re-splits; atomic so Snapshot and the
	// /roadnet surface read it lock-free.
	shardEpoch atomic.Uint64

	// clockBits mirrors clock for lock-free readers (Clock and Roadnet
	// must not wait out a round).
	clockBits atomic.Uint64
	// futureLen mirrors len(future) for lock-free Snapshot reads
	// (Metrics.ScheduledDepth).
	futureLen atomic.Int64

	// totals are the lifecycle counters (atomic, lock-free); statMu guards
	// the round aggregates no counter carries. The movement-plane counters
	// live per shard.
	totals counters
	statMu sync.Mutex
	stats  roundTotals

	// eo is the observability plane (nil when Config.DisableObs): instrument
	// pointers resolved once at New, recorded into with atomics only.
	eo *engineObs

	subs subscribers

	// runMu serialises Start/Stop.
	runMu  sync.Mutex
	stopCh chan struct{}
	doneCh chan struct{}
}

// New builds an engine over a road network and a fleet. The fleet is owned
// by the engine from here on: callers must not mutate the vehicles while the
// engine runs.
func New(g *roadnet.Graph, fleet []*model.Vehicle, cfg Config) (*Engine, error) {
	if cfg.Pipeline == nil {
		cfg.Pipeline = model.DefaultConfig()
	}
	if err := cfg.Pipeline.Validate(); err != nil {
		return nil, err
	}
	if cfg.NewPolicy == nil {
		cfg.NewPolicy = func() policy.Policy { return policy.NewFoodMatch() }
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.Discard
	}
	spBound := 2 * cfg.Pipeline.MaxFirstMile
	defaultRouter := cfg.NewRouter == nil
	if cfg.NewRouter == nil {
		cfg.NewRouter = func(g *roadnet.Graph) roadnet.Router {
			return roadnet.NewBoundedRouter(g, spBound)
		}
	}
	decG := cfg.DecisionGraph
	if decG == nil {
		decG = g
	} else if decG.NumNodes() != g.NumNodes() {
		return nil, fmt.Errorf("engine: decision graph has %d nodes, true graph %d",
			decG.NumNodes(), g.NumNodes())
	}
	if cfg.WeightRefreshSec <= 0 {
		cfg.WeightRefreshSec = 900
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 3
	}

	reg := cfg.Obs
	if reg == nil || cfg.DisableObs {
		reg = obs.NewRegistry()
	}
	var eo *engineObs
	if !cfg.DisableObs {
		eo = newEngineObs(reg, cfg.Shards, cfg.TraceRing)
		// Chain the lifecycle tracer in front of the caller's sink (shards
		// emit concurrently; the tracer stripes its locks) and decorate every
		// shard router — including SwapRouter's per-epoch rebuilds — with
		// sampled query timing. Both are read-only observers: neither can
		// perturb a decision, which the golden-trace guard pins.
		cfg.Trace = trace.NewLifecycleSink(eo.tracer, cfg.Trace)
		innerNR := cfg.NewRouter
		cfg.NewRouter = func(g *roadnet.Graph) roadnet.Router {
			return eo.timeRouter(innerNR(g))
		}
	}

	e := &Engine{
		g:            g,
		decG:         decG,
		cfg:          cfg,
		sh:           newSharder(g, cfg.Shards),
		canonSh:      newSharder(g, cfg.Shards),
		pol:          cfg.NewPolicy(),
		orderCh:      make(chan queuedOrder, cfg.QueueSize),
		pingCh:       make(chan vehiclePing, cfg.QueueSize),
		byID:         make(map[model.VehicleID]*sim.Motion, len(fleet)),
		rtByID:       make(map[model.VehicleID]*motionRt, len(fleet)),
		slot:         -1,
		demand:       make([]int64, g.NumNodes()),
		lastResplitT: math.Inf(-1),
		totals:       newCounters(reg),
		eo:           eo,
	}
	if cfg.Learner != nil {
		e.dyn = &dynamicState{
			learner:    cfg.Learner,
			refresh:    cfg.WeightRefreshSec,
			minSamples: cfg.MinSamples,
			lastT:      math.Inf(-1),
		}
	}
	for s := 0; s < cfg.Shards; s++ {
		st := &shardState{
			id:     s,
			pol:    cfg.NewPolicy(),
			router: roadnet.NewSwapRouter(decG, cfg.NewRouter),
			slot:   -1,
			ledger: sim.NewMetrics(cfg.Pipeline.MaxO),
		}
		// The default router's rows are exactly what an SDT cache would
		// hold unless the decision plane runs another graph or epochs.
		if !defaultRouter || cfg.Learner != nil || decG != g {
			st.sdt = roadnet.NewBoundedRouter(g, spBound)
		}
		// Each shard advances its own vehicles with its own mover: its
		// hooks book into the shard's own ledger, so the parallel
		// movement phase shares no statistics mutex across zones.
		st.mover = sim.NewMover(g, cfg.Trace)
		st.mover.Hooks = e.ledgerHooks(st)
		if cfg.Learner != nil {
			// Finished edge traversals are the engine's GPS plane: each one
			// is a perfectly map-matched sample of the *true* graph's β. The
			// hook runs on the shard's movement workers; the learner
			// synchronises internally.
			st.mover.Hooks.Edge = func(_ *model.Vehicle, from, to roadnet.NodeID, tEnter, sec float64) {
				cfg.Learner.ObserveEdge(from, to, tEnter, sec)
			}
		}
		e.shards = append(e.shards, st)
	}
	e.mover = sim.NewMover(g, cfg.Trace)
	for _, v := range fleet {
		if v.Node < 0 || int(v.Node) >= g.NumNodes() {
			return nil, fmt.Errorf("engine: vehicle %d parked at invalid node %d", v.ID, v.Node)
		}
		if _, dup := e.byID[v.ID]; dup {
			return nil, fmt.Errorf("engine: duplicate vehicle id %d", v.ID)
		}
		if len(v.DistByLoad) < cfg.Pipeline.MaxO+1 {
			v.DistByLoad = make([]float64, cfg.Pipeline.MaxO+1)
		}
		mo := sim.NewMotion(v)
		e.motions = append(e.motions, mo)
		e.byID[v.ID] = mo
		rt := &motionRt{mo: mo}
		e.rtByID[v.ID] = rt
		e.homeMotion(rt, e.sh.shardOf(v.Node))
	}
	return e, nil
}

// homeMotion appends a motion to a shard's resident list (initial homing and
// the receiving half of a cross-shard handoff).
func (e *Engine) homeMotion(rt *motionRt, shard int) {
	st := e.shards[shard]
	rt.shard = int32(shard)
	rt.pos = int32(len(st.motions))
	st.motions = append(st.motions, rt)
	st.vehLen.Store(int64(len(st.motions)))
}

// unhomeMotion removes a motion from its current shard's list in O(1)
// (swap-removal; residency order within a shard is not semantically
// meaningful across handoffs).
func (e *Engine) unhomeMotion(rt *motionRt) {
	st := e.shards[rt.shard]
	last := len(st.motions) - 1
	moved := st.motions[last]
	st.motions[rt.pos] = moved
	moved.pos = rt.pos
	st.motions = st.motions[:last]
	st.vehLen.Store(int64(last))
}

// SubmitOrder enqueues an order placement. Orders with PlacedAt <= 0 are
// stamped with the engine clock at admission; orders with PlacedAt beyond
// the clock are held until the window that covers them (scheduled orders).
// Returns ErrQueueFull when the bounded queue is saturated — callers should
// shed or retry with backoff.
func (e *Engine) SubmitOrder(o *model.Order) error {
	if err := e.checkOrder(o); err != nil {
		return err
	}
	if e.cfg.WAL != nil {
		return e.submitOrderWAL(o)
	}
	select {
	case e.orderCh <- queuedOrder{o: o}:
		e.totals.ingested.Inc()
		return nil
	default:
		e.totals.shedOrders.Inc()
		return ErrQueueFull
	}
}

// checkOrder rejects an order the road network cannot place — a bad node is
// an error at the door, not a panic inside Dijkstra.
func (e *Engine) checkOrder(o *model.Order) error {
	if o == nil {
		return errors.New("engine: nil order")
	}
	if o.Restaurant < 0 || int(o.Restaurant) >= e.g.NumNodes() {
		return fmt.Errorf("engine: order %d restaurant at invalid node %d", o.ID, o.Restaurant)
	}
	if o.Customer < 0 || int(o.Customer) >= e.g.NumNodes() {
		return fmt.Errorf("engine: order %d customer at invalid node %d", o.ID, o.Customer)
	}
	return nil
}

// submitOrderWAL is the durable accept path: under walMu the bounded queue's
// free capacity is checked first (the round drain only ever shrinks it, so a
// send after a successful check cannot block), then the order is appended to
// the log, then enqueued. Append-before-enqueue means an acknowledged order
// is on disk; the capacity pre-check means a shed order is *not* (no ghost
// replays of placements the client saw rejected).
func (e *Engine) submitOrderWAL(o *model.Order) error {
	e.walMu.Lock()
	if len(e.orderCh) == cap(e.orderCh) {
		e.walMu.Unlock()
		e.totals.shedOrders.Inc()
		return ErrQueueFull
	}
	seq, err := e.cfg.WAL.AppendOrder(wal.OrderRecord{
		ID:         int64(o.ID),
		Restaurant: int64(o.Restaurant),
		Customer:   int64(o.Customer),
		PlacedAt:   o.PlacedAt,
		Items:      o.Items,
		PrepSec:    o.Prep,
	})
	if err != nil {
		e.walMu.Unlock()
		return fmt.Errorf("engine: order %d wal append: %w", o.ID, err)
	}
	e.orderCh <- queuedOrder{o: o, seq: seq}
	e.totals.ingested.Inc()
	e.walMu.Unlock()
	return nil
}

// PingVehicle enqueues a location update for a vehicle. The engine owns
// movement while a vehicle executes a plan, so pings relocate only idle
// vehicles; they always refresh liveness.
func (e *Engine) PingVehicle(id model.VehicleID, node roadnet.NodeID) error {
	return e.ping(vehiclePing{id: id, node: node, activeFrom: math.NaN(), activeTo: math.NaN()})
}

// SetVehicleShift enqueues a shift-window update (seconds since midnight);
// pass NaN to leave a bound unchanged.
func (e *Engine) SetVehicleShift(id model.VehicleID, from, to float64) error {
	return e.ping(vehiclePing{id: id, node: roadnet.Invalid, activeFrom: from, activeTo: to})
}

func (e *Engine) ping(p vehiclePing) error {
	if _, ok := e.byID[p.id]; !ok { // byID is immutable after New
		return fmt.Errorf("engine: unknown vehicle %d", p.id)
	}
	if p.node != roadnet.Invalid && (p.node < 0 || int(p.node) >= e.g.NumNodes()) {
		return fmt.Errorf("engine: vehicle %d ping at invalid node %d", p.id, p.node)
	}
	if e.cfg.WAL != nil {
		return e.pingWAL(p)
	}
	select {
	case e.pingCh <- p:
		e.totals.pingsIngested.Inc()
		return nil
	default:
		e.totals.shedPings.Inc()
		return ErrQueueFull
	}
}

// pingWAL is the durable accept path for vehicle updates; same protocol as
// submitOrderWAL (capacity check, append, enqueue — atomically under walMu).
func (e *Engine) pingWAL(p vehiclePing) error {
	rec := wal.PingRecord{Vehicle: int64(p.id), Node: int64(p.node)}
	if !math.IsNaN(p.activeFrom) {
		v := p.activeFrom
		rec.ActiveFrom = &v
	}
	if !math.IsNaN(p.activeTo) {
		v := p.activeTo
		rec.ActiveTo = &v
	}
	e.walMu.Lock()
	if len(e.pingCh) == cap(e.pingCh) {
		e.walMu.Unlock()
		e.totals.shedPings.Inc()
		return ErrQueueFull
	}
	seq, err := e.cfg.WAL.AppendPing(rec)
	if err != nil {
		e.walMu.Unlock()
		return fmt.Errorf("engine: vehicle %d wal append: %w", p.id, err)
	}
	p.seq = seq
	e.pingCh <- p
	e.totals.pingsIngested.Inc()
	e.walMu.Unlock()
	return nil
}

// Clock returns the engine's simulation clock (the end of the last round).
// Lock-free: reads the atomic clock mirror, so it never waits out a round.
func (e *Engine) Clock() float64 {
	return math.Float64frombits(e.clockBits.Load())
}

// Idle reports whether no work remains anywhere: ingestion queues drained,
// no pooled or scheduled orders, and every vehicle empty. Replay drivers use
// it to decide when the post-stream drain phase may stop. It takes the round
// mutex (a consistent whole-world read), so it waits out an in-flight round.
func (e *Engine) Idle() bool {
	if len(e.orderCh) > 0 || len(e.pingCh) > 0 {
		return false
	}
	e.roundMu.Lock()
	defer e.roundMu.Unlock()
	if len(e.future) > 0 {
		return false
	}
	for _, s := range e.shards {
		if len(s.pool) > 0 {
			return false
		}
	}
	for _, mo := range e.motions {
		if mo.V.OrderCount() > 0 {
			return false
		}
	}
	return true
}

// Start launches the real-time window clock at simulation time startSim
// (seconds since midnight). Every ∆/timeScale wall seconds the engine
// advances the simulation clock by ∆ and runs an assignment round;
// timeScale 60 replays a minute of city time per wall second. Stop halts
// the loop.
func (e *Engine) Start(startSim, timeScale float64) error {
	return e.StartContext(context.Background(), startSim, timeScale)
}

// StartContext is Start with cancellation/deadline propagation: the context
// halts the window clock when it is done and is threaded into every round
// (and from there into every pipeline stage). Cancellation stops ticking
// but leaves the engine state intact — call Stop to close the assignment
// streams and release subscribers, typically after draining them.
func (e *Engine) StartContext(ctx context.Context, startSim, timeScale float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.stopCh != nil {
		return ErrRunning
	}
	e.roundMu.Lock()
	e.clock = startSim
	e.clockBits.Store(math.Float64bits(startSim))
	e.roundMu.Unlock()
	e.stopCh = make(chan struct{})
	e.doneCh = make(chan struct{})
	period := time.Duration(float64(time.Second) * e.cfg.Pipeline.Delta / timeScale)
	if period <= 0 {
		period = time.Millisecond
	}
	go e.run(ctx, startSim, period, e.stopCh, e.doneCh)
	return nil
}

func (e *Engine) run(ctx context.Context, startSim float64, period time.Duration, stopCh <-chan struct{}, doneCh chan<- struct{}) {
	defer close(doneCh)
	tick := time.NewTicker(period)
	defer tick.Stop()
	now := startSim
	for {
		select {
		case <-stopCh:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			now += e.cfg.Pipeline.Delta
			e.StepContext(ctx, now)
		}
	}
}

// Stop halts the window clock (no-op when not running) and closes every
// subscription stream.
func (e *Engine) Stop() {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if e.stopCh == nil {
		return
	}
	close(e.stopCh)
	<-e.doneCh
	e.stopCh, e.doneCh = nil, nil
	e.subs.closeAll()
}
