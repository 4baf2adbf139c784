// Package sim is the discrete-event food-delivery simulator: it replays an
// order stream against a fleet of vehicles on a time-dependent road network,
// invoking an assignment policy at the end of every accumulation window
// (Section II / Fig. 5 pipeline) and collecting the paper's evaluation
// metrics.
//
// Within a window the simulator moves every vehicle continuously along its
// route plan — edge by edge, each edge traversed at the β(e,t) of its entry
// time — handling restaurant waits (food not ready), pickups and dropoffs.
// At the window boundary it rejects stale orders, optionally reshuffles
// assigned-but-unpicked orders back into the pool, builds the policy input
// and applies the returned assignments.
package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/foodgraph"
	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// Options tunes simulator behaviour beyond the model.Config.
type Options struct {
	// SPBound caps single-source expansions of the shared distance cache in
	// seconds; 0 defaults to 2×MaxFirstMile.
	SPBound float64
	// DrainCap bounds the post-stream drain phase in seconds (how long the
	// simulator keeps running windows after the last order to let in-flight
	// deliveries finish); 0 defaults to 2 h.
	DrainCap float64
	// Quiet suppresses progress output (always true in tests).
	Quiet bool
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
	// distance cache (SPBound) over the decision graph.
	// Vehicle movement and SDT always stay on the true graph. The router is
	// driven from the simulation goroutine only.
	Router roadnet.Router
	// Learner, when set, receives every finished edge traversal on the
	// true graph (via the mover's Edge hook) — the offline form of the
	// Section V-A learn-from-driving loop. Run a day, export
	// Learner.Weights, reweight a graph, and replay the next day with it
	// as DecisionGraph.
	Learner *gps.StreamLearner
	// SLASec, when positive, counts every delivery whose realised duration
	// exceeds it as an SLA violation (Metrics.SLAViolations) — the
	// service-level lens the multi-day experiment harness reports next to
	// XDT. 0 disables the counter.
	SLASec float64
	// OnRound, when set, receives one RoundTelemetry per window — the
	// offline span tree (inject/advance/assign/apply/replan, with
	// pipeline-stage children under assign when the policy records stage
	// stats). The callback runs on the simulation goroutine; phase timing
	// is only measured when it is non-nil, so the default run pays nothing.
	OnRound func(RoundTelemetry)
}

// Simulator replays one day of orders under a policy.
type Simulator struct {
	g *roadnet.Graph
	// cache answers metric queries (SDT) on the true graph; decRouter
	// answers the policy's queries, possibly on a learned graph (decCache
	// is its backing store when the backend is the internal bounded cache).
	cache     *roadnet.DistCache
	decCache  *roadnet.DistCache
	decRouter roadnet.Router
	decG      *roadnet.Graph
	pol       policy.Policy
	cfg       *model.Config
	opts      Options
	orders    []*model.Order // sorted by PlacedAt
	mover     *Mover
	vrts      []*Motion
	byID      map[model.VehicleID]*Motion

	pool    []*model.Order // placed, unassigned
	nextOrd int
	clock   float64 // last processed simulation instant (for event stamps)
	metrics *Metrics
}

// New builds a simulator. Orders must carry PlacedAt/Items/Prep; SDT is
// computed at injection. Vehicles should be parked at valid nodes.
func New(g *roadnet.Graph, orders []*model.Order, vehicles []*model.Vehicle, pol policy.Policy, cfg *model.Config, opts Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.SPBound <= 0 {
		opts.SPBound = 2 * cfg.MaxFirstMile
	}
	if opts.DrainCap <= 0 {
		opts.DrainCap = 7200
	}
	if opts.Trace == nil {
		opts.Trace = trace.Discard
	}
	sorted := make([]*model.Order, len(orders))
	copy(sorted, orders)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PlacedAt < sorted[j].PlacedAt })
	cache := roadnet.NewBoundedRouter(g, opts.SPBound)
	s := &Simulator{
		g:       g,
		cache:   cache,
		pol:     pol,
		cfg:     cfg,
		opts:    opts,
		orders:  sorted,
		metrics: NewMetrics(cfg.MaxO),
	}
	s.decCache, s.decG = cache, g
	if opts.DecisionGraph != nil {
		if opts.DecisionGraph.NumNodes() != g.NumNodes() {
			return nil, fmt.Errorf("sim: decision graph has %d nodes, true graph %d",
				opts.DecisionGraph.NumNodes(), g.NumNodes())
		}
		s.decG = opts.DecisionGraph
		if opts.Router == nil {
			s.decCache = roadnet.NewBoundedRouter(opts.DecisionGraph, opts.SPBound)
		}
	}
	s.decRouter = s.decCache
	if opts.Router != nil {
		// Injected backend: the policy's distance substrate is the caller's
		// (over the decision graph when one is set — the caller builds the
		// router over whichever graph it wants the policy to see).
		s.decRouter = opts.Router
		s.decCache = nil
	}
	s.mover = NewMover(g, opts.Trace)
	s.mover.Hooks = MoveHooks{
		Wait: func(_ *model.Vehicle, sec, t float64) {
			s.metrics.WaitSec += sec
			s.metrics.SlotWaitSec[roadnet.Slot(t)] += sec
		},
		Deliver: func(o *model.Order, _ *model.Vehicle, _ float64) {
			m := s.metrics
			m.Delivered++
			m.DeliverySec += o.DeliveryTime()
			if opts.SLASec > 0 && o.DeliveryTime() > opts.SLASec {
				m.SLAViolations++
			}
			xdt := o.XDT()
			m.XDTSec += xdt
			slot := roadnet.Slot(o.PlacedAt)
			m.SlotXDTSec[slot] += xdt
			m.SlotDelivered[slot]++
		},
		Distance: func(_ *model.Vehicle, meters float64, load int, t float64) {
			m := s.metrics
			m.DistM += meters
			if load < len(m.LoadDistM) {
				m.LoadDistM[load] += meters
			}
			slot := roadnet.Slot(t)
			m.SlotDistM[slot] += meters
			m.SlotLoadDistM[slot] += float64(load) * meters
		},
		Strand: func(*model.Order) { s.metrics.Stranded++ },
	}
	if opts.Learner != nil {
		s.mover.Hooks.Edge = func(_ *model.Vehicle, from, to roadnet.NodeID, tEnter, sec float64) {
			opts.Learner.ObserveEdge(from, to, tEnter, sec)
		}
	}
	s.byID = make(map[model.VehicleID]*Motion, len(vehicles))
	for _, v := range vehicles {
		if int(v.Node) >= g.NumNodes() || v.Node < 0 {
			return nil, fmt.Errorf("sim: vehicle %d parked at invalid node %d", v.ID, v.Node)
		}
		if len(v.DistByLoad) < cfg.MaxO+1 {
			v.DistByLoad = make([]float64, cfg.MaxO+1)
		}
		mo := NewMotion(v)
		s.vrts = append(s.vrts, mo)
		s.byID[v.ID] = mo
	}
	return s, nil
}

// Metrics exposes the metric sink (live during Run).
func (s *Simulator) Metrics() *Metrics { return s.metrics }

// Run simulates [start, end) plus a drain phase and returns the metrics.
func (s *Simulator) Run(start, end float64) *Metrics {
	return s.RunContext(context.Background(), start, end)
}

// RunContext is Run with cancellation/deadline propagation: the context is
// checked at every window boundary and threaded into every policy stage
// call. On cancellation the loop stops early and the metrics account every
// unfinished order as stranded — partial but internally consistent.
func (s *Simulator) RunContext(ctx context.Context, start, end float64) *Metrics {
	if ctx == nil {
		ctx = context.Background()
	}
	now := start
	drainEnd := end + s.opts.DrainCap
	slot := roadnet.Slot(now)
	for now < drainEnd && ctx.Err() == nil {
		wEnd := now + s.cfg.Delta
		// Weights change at slot boundaries; old-slot cache rows are never
		// consulted again, so drop them to bound memory on long runs.
		if ns := roadnet.Slot(now); ns != slot {
			slot = ns
			s.cache.Reset()
			if s.decCache != nil && s.decCache != s.cache {
				s.decCache.Reset()
			} else if s.decCache == nil {
				if r, ok := s.decRouter.(roadnet.Resettable); ok {
					r.Reset()
				}
			}
		}
		var phT time.Time
		var injectSec, advanceSec float64
		if s.opts.OnRound != nil {
			phT = time.Now()
		}
		s.injectOrders(wEnd)
		if s.opts.OnRound != nil {
			injectSec = time.Since(phT).Seconds()
			phT = time.Now()
		}
		for _, vr := range s.vrts {
			s.mover.Advance(vr, now, wEnd)
		}
		if s.opts.OnRound != nil {
			advanceSec = time.Since(phT).Seconds()
		}
		s.clock = wEnd
		s.rejectStale(wEnd)
		s.window(ctx, wEnd, injectSec, advanceSec)
		now = wEnd
		if now >= end && s.idle() {
			break
		}
	}
	// Anything still undelivered at drain end was never served.
	for _, o := range s.pool {
		s.reject(o)
	}
	s.pool = nil
	for _, vr := range s.vrts {
		for _, o := range append(append([]*model.Order{}, vr.V.Onboard...), vr.V.Pending...) {
			if o.State != model.OrderDelivered {
				o.State = model.OrderRejected
				s.metrics.Stranded++
			}
		}
	}
	return s.metrics
}

// idle reports whether no work remains anywhere.
func (s *Simulator) idle() bool {
	if len(s.pool) > 0 || s.nextOrd < len(s.orders) {
		return false
	}
	for _, vr := range s.vrts {
		if vr.V.OrderCount() > 0 {
			return false
		}
	}
	return true
}

// injectOrders admits orders placed before wEnd into the pool, computing
// their SDT lower bound on admission.
func (s *Simulator) injectOrders(wEnd float64) {
	for s.nextOrd < len(s.orders) && s.orders[s.nextOrd].PlacedAt < wEnd {
		o := s.orders[s.nextOrd]
		s.nextOrd++
		o.State = model.OrderPlaced
		o.AssignedTo = -1
		o.SDT = o.Prep + s.cache.Travel(o.Restaurant, o.Customer, o.PlacedAt)
		s.metrics.TotalOrders++
		s.metrics.SlotOrders[roadnet.Slot(o.PlacedAt)]++
		s.pool = append(s.pool, o)
		s.opts.Trace.Emit(trace.Event{Kind: trace.OrderPlaced, T: o.PlacedAt, Order: o.ID})
	}
}

// rejectStale drops orders unallocated longer than RejectAfter.
func (s *Simulator) rejectStale(now float64) {
	keep := s.pool[:0]
	for _, o := range s.pool {
		if now-o.PlacedAt > s.cfg.RejectAfter {
			s.reject(o)
		} else {
			keep = append(keep, o)
		}
	}
	s.pool = keep
}

func (s *Simulator) reject(o *model.Order) {
	o.State = model.OrderRejected
	s.metrics.Rejected++
	s.metrics.RejectionPenaltySec += s.cfg.Omega
	s.metrics.SlotRejectionSec[roadnet.Slot(o.PlacedAt)] += s.cfg.Omega
	s.opts.Trace.Emit(trace.Event{Kind: trace.OrderRejected, T: s.clock, Order: o.ID})
}

// world returns the shared round-application view of the simulator state
// (the logic in window.go that the online engine reuses).
func (s *Simulator) world() *RoundWorld {
	return &RoundWorld{
		ByID:    s.byID,
		Motions: s.vrts,
		Mover:   s.mover,
		Cfg:     s.cfg,
		Trace:   s.opts.Trace,
		Router:  s.decRouter,
	}
}

// window performs the end-of-window assignment round at time now.
// injectSec/advanceSec are the already-measured leading phases of the
// window's telemetry span tree (0 when Options.OnRound is unset).
func (s *Simulator) window(ctx context.Context, now float64, injectSec, advanceSec float64) {
	w := s.world()

	// Build O(ℓ): the pool plus — when reshuffling — every vehicle's
	// assigned-but-unpicked orders, returned to the pool (Section IV-D2).
	orders := make([]*model.Order, 0, len(s.pool))
	orders = append(orders, s.pool...)
	var stripped map[model.VehicleID]bool
	prevVehicle := make(map[model.OrderID]model.VehicleID)
	if s.cfg.Reshuffle && s.pol.Reshuffles() {
		orders, prevVehicle, stripped = w.StripPending(now, orders)
	}
	if len(orders) == 0 {
		s.recordWindow(now, 0)
		w.ReplanStripped(now, stripped, nil, nil)
		if s.opts.OnRound != nil {
			s.opts.OnRound(RoundTelemetry{T: now, Phases: []obs.Phase{
				{Name: "inject", DurSec: injectSec},
				{Name: "advance", DurSec: advanceSec},
			}})
		}
		return
	}

	// Build V(ℓ). Single-order policies (the paper's vanilla KM) admit a
	// vehicle only once it is empty; everything else admits any on-shift
	// vehicle with spare MAXO/MAXI capacity (Definition 4).
	singleOrder := s.pol.SingleOrderMode(s.cfg)
	var vss []*foodgraph.VehicleState
	for _, vr := range s.vrts {
		v := vr.V
		if !v.Active(now) {
			continue
		}
		if singleOrder && v.OrderCount() > 0 {
			continue
		}
		if v.OrderCount() >= s.cfg.MaxO || v.ItemCount() >= s.cfg.MaxI {
			continue
		}
		vss = append(vss, &foodgraph.VehicleState{
			Vehicle: v,
			Node:    v.Node,
			Dest:    vr.NextNode(),
			Onboard: v.Onboard,
			Keep:    v.Pending,
		})
	}

	in := &policy.WindowInput{
		G:         s.decG,
		Router:    s.decRouter,
		Now:       now,
		Orders:    orders,
		Vehicles:  vss,
		Incumbent: prevVehicle,
		Cfg:       s.cfg,
	}
	t0 := time.Now()
	assignments := s.pol.Assign(ctx, in)
	assignSec := time.Since(t0).Seconds()
	s.recordWindow(now, assignSec)
	s.opts.Trace.Emit(trace.Event{
		Kind: trace.WindowClosed, T: now,
		PoolSize: len(orders), Vehicles: len(vss),
		Assignments: len(assignments), AssignSec: assignSec,
	})

	var phT time.Time
	if s.opts.OnRound != nil {
		phT = time.Now()
	}
	assignedVehicles := make(map[model.VehicleID]bool, len(assignments))
	assignedOrders := make(map[model.OrderID]bool)
	for _, ap := range w.ApplyAssignments(now, assignments, prevVehicle, assignedOrders, assignedVehicles) {
		s.metrics.Reassignments += ap.ReassignedOrders
	}
	restored := w.RestoreToIncumbent(now, orders, prevVehicle, assignedOrders)
	s.pool = RebuildPool(orders, assignedOrders, s.pool[:0])
	var applySec float64
	if s.opts.OnRound != nil {
		applySec = time.Since(phT).Seconds()
		phT = time.Now()
	}
	w.ReplanStripped(now, stripped, assignedVehicles, restored)
	if s.opts.OnRound != nil {
		s.opts.OnRound(RoundTelemetry{
			T: now, PoolSize: len(orders), Vehicles: len(vss),
			Assigned: len(assignments), LatencySec: assignSec,
			Phases: []obs.Phase{
				{Name: "inject", DurSec: injectSec},
				{Name: "advance", DurSec: advanceSec},
				assignSpan(assignSec, s.pol),
				{Name: "apply", DurSec: applySec},
				{Name: "replan", DurSec: time.Since(phT).Seconds()},
			},
		})
	}
}

func (s *Simulator) recordWindow(now, assignSec float64) {
	m := s.metrics
	slot := roadnet.Slot(now - s.cfg.Delta/2) // attribute to the window's interior
	m.Windows++
	m.SlotWindows[slot]++
	m.AssignSecTotal += assignSec
	m.SlotAssignSecSum[slot] += assignSec
	if assignSec > m.AssignSecMax {
		m.AssignSecMax = assignSec
	}
	if s.cfg.ComputeBudget > 0 && assignSec > s.cfg.ComputeBudget {
		m.OverflownWindows++
		m.SlotOverflown[slot]++
	}
}
