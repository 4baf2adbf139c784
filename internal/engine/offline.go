package engine

import (
	"context"
	"sort"

	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// drainCapSec bounds the post-stream drain phase: how long the simulator
// keeps running windows after `end` to let in-flight deliveries finish.
const drainCapSec = 7200

// SimOptions tunes the offline Simulator beyond the model.Config.
type SimOptions struct {
	// Trace receives the simulation event stream (nil = discard).
	Trace trace.Sink
	// DecisionGraph, when set, is the network the *policy* sees: its edge
	// weights answer every marginal-cost and batching query, while vehicle
	// movement and SDT (the metric lower bound) stay on the true graph.
	// This models the paper's evaluation protocol, where travel times are
	// learned from five days of GPS pings and the sixth day is driven on
	// reality (Section V-B); pair it with the gps package's SpeedLearner.
	DecisionGraph *roadnet.Graph
	// Router, when set, is the shortest-path backend the *policy* queries
	// (hub labels, CCH, plain Dijkstra, …); nil defaults to a bounded-SSSP
	// distance cache over the decision graph. Vehicle movement and SDT
	// always stay on the true graph. The router is driven by one goroutine
	// at a time.
	Router roadnet.Router
	// Learner, when set, receives every finished edge traversal on the
	// true graph (via the mover's Edge hook) — the offline form of the
	// Section V-A learn-from-driving loop. Run a day, export
	// Learner.Weights, reweight a graph, and replay the next day with it
	// as DecisionGraph. Unlike Config.Learner it never publishes weights
	// mid-run.
	Learner *gps.StreamLearner
	// SLASec, when positive, counts every delivery whose realised duration
	// exceeds it as an SLA violation (Metrics.SLAViolations) — the
	// service-level lens the multi-day experiment harness reports next to
	// XDT. It becomes the shard's threshold, so the engine's own Deliver
	// hook books the violation into the ledger. 0 disables the counter.
	SLASec float64
	// OnRound, when set, receives every window's RoundStats, span tree
	// included. The callback runs on the simulation goroutine; the
	// observability plane is only switched on when it is non-nil, so the
	// default run pays nothing.
	OnRound func(RoundStats)
}

// Simulator replays a pre-generated order stream under a replayed clock and
// collects the paper's evaluation metrics. It is a driver, not a second
// dispatcher: every window is one StepContext of a private single-shard,
// single-worker Engine, so offline tables and online decisions come from the
// same round, and offline tables and the engine's Snapshot read the same
// ledger. One shard and one worker keep the run on one goroutine at a time,
// which is what makes the float sums in Metrics bit-reproducible.
type Simulator struct {
	e       *Engine
	onRound func(RoundStats)
}

// NewSimulator builds a simulator. Orders must carry PlacedAt/Items/Prep
// (PlacedAt is honoured verbatim, including 0); SDT is computed at
// admission. Vehicles should be parked at valid nodes.
func NewSimulator(g *roadnet.Graph, orders []*model.Order, fleet []*model.Vehicle, pol policy.Policy, cfg *model.Config, opts SimOptions) (*Simulator, error) {
	ecfg := Config{
		Pipeline: cfg,
		// The same instance on purpose: observers hung on the caller's
		// policy (FoodMatch.RankObserver) must keep firing.
		NewPolicy:     func() policy.Policy { return pol },
		Shards:        1,
		Workers:       1,
		Trace:         opts.Trace,
		DecisionGraph: opts.DecisionGraph,
		DisableObs:    opts.OnRound == nil,
	}
	if opts.Router != nil {
		ecfg.NewRouter = func(*roadnet.Graph) roadnet.Router { return opts.Router }
	}
	e, err := New(g, fleet, ecfg)
	if err != nil {
		return nil, err
	}

	// The stream goes straight into the scheduled-order buffer: SubmitOrder
	// would stamp PlacedAt <= 0 with the clock and needs a queue sized to
	// the stream.
	e.future = make([]*model.Order, len(orders))
	copy(e.future, orders)
	for _, o := range e.future {
		if err := e.checkOrder(o); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(e.future, func(i, j int) bool { return e.future[i].PlacedAt < e.future[j].PlacedAt })
	e.futureLen.Store(int64(len(e.future)))

	// The engine's own mover hooks book the paper metrics into the shard's
	// ledger; the simulator only adds the SLA threshold and the learner.
	st := e.shards[0]
	st.slaSec = opts.SLASec
	if learner := opts.Learner; learner != nil {
		st.mover.Hooks.Edge = func(_ *model.Vehicle, from, to roadnet.NodeID, tEnter, sec float64) {
			learner.ObserveEdge(from, to, tEnter, sec)
		}
	}
	return &Simulator{e: e, onRound: opts.OnRound}, nil
}

// Metrics exposes the engine's shard ledger — the one Snapshot and
// /metrics read — live during Run.
func (s *Simulator) Metrics() *sim.Metrics { return s.e.shards[0].ledger }

// Run simulates [start, end) plus a drain phase and returns the metrics.
func (s *Simulator) Run(start, end float64) *sim.Metrics {
	return s.RunContext(context.Background(), start, end)
}

// RunContext is Run with cancellation/deadline propagation: the context is
// checked at every window boundary and threaded into every policy stage
// call. On cancellation the loop stops early and the metrics account every
// unfinished order as rejected or stranded — partial but internally
// consistent.
func (s *Simulator) RunContext(ctx context.Context, start, end float64) *sim.Metrics {
	if ctx == nil {
		ctx = context.Background()
	}
	e, m := s.e, s.Metrics()
	for now := start; now < end+drainCapSec && ctx.Err() == nil; {
		now += e.cfg.Pipeline.Delta
		s.recordRound(e.StepContext(ctx, now))
		if now >= end && e.Idle() {
			break
		}
	}
	// Anything still undelivered at drain end was never served.
	st := e.shards[0]
	for _, o := range st.pool {
		e.reject(st, o, e.clock)
	}
	st.pool = st.pool[:0]
	st.poolLen.Store(0)
	for _, mo := range e.motions {
		for _, held := range [2][]*model.Order{mo.V.Onboard, mo.V.Pending} {
			for _, o := range held {
				if o.State != model.OrderDelivered {
					o.State = model.OrderRejected
					st.mover.Hooks.Strand(o)
				}
			}
		}
	}
	m.Reassignments = int(e.Snapshot().Reassigned)
	return m
}

// recordRound books one window's RoundStats into the per-window metrics.
func (s *Simulator) recordRound(rs RoundStats) {
	m, cfg := s.Metrics(), s.e.cfg.Pipeline
	slot := roadnet.Slot(rs.T - cfg.Delta/2) // attribute to the window's interior
	m.Windows++
	m.SlotWindows[slot]++
	m.AssignSecTotal += rs.AssignSecMax
	m.SlotAssignSecSum[slot] += rs.AssignSecMax
	if rs.AssignSecMax > m.AssignSecMax {
		m.AssignSecMax = rs.AssignSecMax
	}
	if cfg.ComputeBudget > 0 && rs.AssignSecMax > cfg.ComputeBudget {
		m.OverflownWindows++
		m.SlotOverflown[slot]++
	}
	if s.onRound != nil {
		s.onRound(rs)
	}
}
