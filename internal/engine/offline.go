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
	// XDT. 0 disables the counter.
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
// same round. One shard and one worker keep the run on one goroutine at a
// time, which is what makes the float sums in Metrics bit-reproducible.
type Simulator struct {
	e       *Engine
	onRound func(RoundStats)
	metrics *sim.Metrics
}

// NewSimulator builds a simulator. Orders must carry PlacedAt/Items/Prep
// (PlacedAt is honoured verbatim, including 0); SDT is computed at
// admission. Vehicles should be parked at valid nodes.
func NewSimulator(g *roadnet.Graph, orders []*model.Order, fleet []*model.Vehicle, pol policy.Policy, cfg *model.Config, opts SimOptions) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err // before MaxO sizes the metrics
	}
	m := sim.NewMetrics(cfg.MaxO)
	ecfg := Config{
		Pipeline: cfg,
		// The same instance on purpose: observers hung on the caller's
		// policy (FoodMatch.RankObserver) must keep firing.
		NewPolicy:     func() policy.Policy { return pol },
		Shards:        1,
		Workers:       1,
		Trace:         newMetricsSink(m, cfg.Omega, opts.Trace),
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

	slaSec, learner := opts.SLASec, opts.Learner
	e.shards[0].mover.Hooks = sim.MoveHooks{
		Wait: func(_ *model.Vehicle, sec, t float64) {
			m.WaitSec += sec
			m.SlotWaitSec[roadnet.Slot(t)] += sec
		},
		Deliver: func(o *model.Order, _ *model.Vehicle, _ float64) {
			m.Delivered++
			m.DeliverySec += o.DeliveryTime()
			if slaSec > 0 && o.DeliveryTime() > slaSec {
				m.SLAViolations++
			}
			xdt := o.XDT()
			m.XDTSec += xdt
			slot := roadnet.Slot(o.PlacedAt)
			m.SlotXDTSec[slot] += xdt
			m.SlotDelivered[slot]++
		},
		Distance: func(_ *model.Vehicle, meters float64, load int, t float64) {
			m.DistM += meters
			if load < len(m.LoadDistM) {
				m.LoadDistM[load] += meters
			}
			slot := roadnet.Slot(t)
			m.SlotDistM[slot] += meters
			m.SlotLoadDistM[slot] += float64(load) * meters
		},
		Strand: func(*model.Order) { m.Stranded++ },
	}
	if learner != nil {
		e.shards[0].mover.Hooks.Edge = func(_ *model.Vehicle, from, to roadnet.NodeID, tEnter, sec float64) {
			learner.ObserveEdge(from, to, tEnter, sec)
		}
	}
	return &Simulator{e: e, onRound: opts.OnRound, metrics: m}, nil
}

// Metrics exposes the metric sink (live during Run).
func (s *Simulator) Metrics() *sim.Metrics { return s.metrics }

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
	e, m := s.e, s.metrics
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
		o.State = model.OrderRejected
		e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderRejected, T: e.clock, Order: o.ID})
	}
	st.pool = st.pool[:0]
	st.poolLen.Store(0)
	for _, mo := range e.motions {
		for _, held := range [2][]*model.Order{mo.V.Onboard, mo.V.Pending} {
			for _, o := range held {
				if o.State != model.OrderDelivered {
					o.State = model.OrderRejected
					m.Stranded++
				}
			}
		}
	}
	m.Reassignments = int(e.Snapshot().Reassigned)
	return m
}

// recordRound books one window's RoundStats into the per-window metrics.
func (s *Simulator) recordRound(rs RoundStats) {
	m, cfg := s.metrics, s.e.cfg.Pipeline
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

// metricsSink books placements and rejections into the paper metrics on
// their way to the caller's sink. Rejections are attributed to the order's
// placement slot, which only the OrderPlaced event carries.
type metricsSink struct {
	m          *sim.Metrics
	omega      float64
	placedSlot map[model.OrderID]int
	next       trace.Sink
}

func newMetricsSink(m *sim.Metrics, omega float64, next trace.Sink) *metricsSink {
	if next == nil {
		next = trace.Discard
	}
	return &metricsSink{m: m, omega: omega, placedSlot: make(map[model.OrderID]int), next: next}
}

func (k *metricsSink) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.OrderPlaced:
		slot := roadnet.Slot(ev.T)
		k.placedSlot[ev.Order] = slot
		k.m.TotalOrders++
		k.m.SlotOrders[slot]++
	case trace.OrderRejected:
		k.m.Rejected++
		k.m.RejectionPenaltySec += k.omega
		k.m.SlotRejectionSec[k.placedSlot[ev.Order]] += k.omega
	}
	k.next.Emit(ev)
}
