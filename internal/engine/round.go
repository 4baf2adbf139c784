package engine

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/foodgraph"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Step advances the engine to simulation time `now` and runs one assignment
// round. It returns the round's statistics and is the deterministic entry
// point replay drivers and tests use; the Start loop calls it once per ∆
// tick.
//
// A round is structured around the shard-resident world state:
//
//	serial   drain queues (pings re-home idle vehicles, orders land in
//	         their restaurant's zone pool)
//	parallel per shard: advance movement, reject stale pool orders,
//	         strip reshuffleable orders, build the zone's vehicle set
//	serial   handoff barrier: publish due weight epochs, re-home vehicles
//	         that crossed a zone boundary, run a due demand-driven shard
//	         re-split (migrating residency exactly-once and warming the new
//	         zones' distance caches), partition the round's orders
//	         (pressure-based boundary handoff)
//	parallel per shard: the assignment pipeline (batching → FoodGraph →
//	         matching) on the shard's pinned weight epoch
//	serial   apply decisions, restore unplaced reshuffled orders
//	parallel per shard: replan restored/stripped vehicles
//	serial   rebuild zone pools, publish stats
func (e *Engine) Step(now float64) RoundStats {
	return e.StepContext(context.Background(), now)
}

// StepContext is Step with cancellation/deadline propagation into every
// zone shard's pipeline stages. A cancelled context makes the round apply
// only the decisions already made; world state stays consistent.
func (e *Engine) StepContext(ctx context.Context, now float64) RoundStats {
	if ctx == nil {
		ctx = context.Background()
	}
	e.roundMu.Lock()
	defer e.roundMu.Unlock()
	t0 := time.Now()

	if now < e.clock {
		now = e.clock // the clock never runs backwards
	}
	e.phase("drain")
	e.drainPings(now)
	e.drainOrders(now)
	drainSec := time.Since(t0).Seconds()

	// Slot boundary: weights changed, memoised distance rows are stale
	// (each shard resets its own caches lazily against this slot).
	if s := roadnet.Slot(now); s != e.slot {
		e.slot = s
	}

	prevClock := e.clock
	e.clock = now
	e.clockBits.Store(math.Float64bits(now))

	stats := e.runRound(ctx, prevClock, now, drainSec)
	stats.LatencySec = time.Since(t0).Seconds()
	stats.OrderQueueDepth = len(e.orderCh)
	stats.PingQueueDepth = len(e.pingCh)

	if eo := e.eo; eo != nil {
		eo.roundLatency.Observe(stats.LatencySec)
		eo.gOrderQueue.Set(float64(stats.OrderQueueDepth))
		eo.gPingQueue.Set(float64(stats.PingQueueDepth))
		eo.gPool.Set(float64(stats.PoolCarried))
		eo.gClock.Set(now)
	}

	c := &e.totals
	c.assigned.Add(int64(stats.AssignedOrders))
	c.rejected.Add(int64(stats.Rejected))
	c.handoffs.Add(int64(stats.Handoffs))
	c.vehHandoffs.Add(int64(stats.VehicleHandoffs))
	e.statMu.Lock()
	if c.rounds.Value() == 0 {
		e.stats.simStart = now - e.cfg.Pipeline.Delta
	}
	c.rounds.Inc()
	e.stats.roundSecTotal += stats.LatencySec
	if stats.LatencySec > e.stats.roundSecMax {
		e.stats.roundSecMax = stats.LatencySec
	}
	e.stats.lastRound = stats
	e.statMu.Unlock()

	e.subs.publish(StreamEvent{Round: &stats})
	if e.cfg.SlowRoundSec > 0 && stats.LatencySec > e.cfg.SlowRoundSec && e.cfg.OnSlowRound != nil {
		// Threshold-triggered slow-round dump: the full stats — span tree
		// included — reach the callback after everything is final, outside
		// the stat mutex (roundMu is still held; the callback must not
		// re-enter the engine's round path).
		e.cfg.OnSlowRound(stats)
	}
	return stats
}

// drainOrders admits queued orders. Orders placed beyond `now` wait in the
// future buffer until the window that covers them.
func (e *Engine) drainOrders(now float64) {
	arrived := false
	for {
		select {
		case qo := <-e.orderCh:
			o := qo.o
			if o.PlacedAt <= 0 {
				o.PlacedAt = now
			}
			e.future = append(e.future, o)
			arrived = true
			if qo.seq > e.walOrderSeq {
				e.walOrderSeq = qo.seq
			}
		default:
			e.bumpHighWater(&e.walOrderSeq, func() bool { return len(e.orderCh) == 0 })
			e.admitFuture(now, arrived)
			return
		}
	}
}

// bumpHighWater advances a drained high-water to cover the whole log when
// the channel is verifiably empty: under walMu no append/enqueue is in
// flight, so an empty channel means every appended record of this kind has
// been drained — the high-water can jump to the newest assigned sequence
// even if the last drained record of this kind is older. This keeps both
// high-waters tight (and so WAL truncation effective) when one kind is idle.
func (e *Engine) bumpHighWater(hw *uint64, empty func() bool) {
	if e.cfg.WAL == nil {
		return
	}
	e.walMu.Lock()
	if empty() {
		if f := e.cfg.WAL.NextSeq() - 1; f > *hw {
			*hw = f
		}
	}
	e.walMu.Unlock()
}

// admitFuture moves matured orders from the future buffer into their
// restaurant's zone pool, computing their SDT lower bound at admission. The
// buffer is kept sorted by placement time; removal preserves that, so
// re-sorting is only needed when this round's drain appended new arrivals.
func (e *Engine) admitFuture(now float64, arrived bool) {
	if arrived {
		sort.SliceStable(e.future, func(i, j int) bool {
			return e.future[i].PlacedAt < e.future[j].PlacedAt
		})
	}
	n := 0
	for _, o := range e.future {
		if o.PlacedAt >= now {
			e.future[n] = o
			n++
			continue
		}
		o.State = model.OrderPlaced
		o.AssignedTo = -1
		// The SDT lower bound (a bounded single-source search) is computed
		// in the shard's parallel phase, not here on the serial drain path.
		s := e.shards[e.sh.shardOf(o.Restaurant)]
		s.pool = append(s.pool, o)
		s.newOrders = append(s.newOrders, o)
		s.poolLen.Store(int64(len(s.pool)))
		// Admission is the demand signal the elastic sharder re-splits on.
		e.demand[o.Restaurant]++
		e.demandTotal++
		e.totals.admitted.Inc()
		e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderPlaced, T: o.PlacedAt, Order: o.ID})
		// Admission is stamped with the round clock (OrderPlaced carries the
		// placement time): the gap between the two is the submit-queue plus
		// scheduled-order wait, the first lifecycle transition.
		e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderAdmitted, T: now, Order: o.ID})
	}
	e.future = e.future[:n]
	e.futureLen.Store(int64(n))
}

// drainPings applies queued vehicle updates. Pings relocate only idle
// vehicles: while a plan is live, position comes from simulated movement.
// A relocation that lands in another zone re-homes the vehicle immediately.
// When the live traffic plane is on, every location ping also streams into
// the speed learner (stamped with the round clock — the drain is the first
// instant the engine observes it).
func (e *Engine) drainPings(now float64) {
	for {
		select {
		case p := <-e.pingCh:
			e.applyPing(p, now)
			if p.seq > e.walPingSeq {
				e.walPingSeq = p.seq
			}
		default:
			e.bumpHighWater(&e.walPingSeq, func() bool { return len(e.pingCh) == 0 })
			return
		}
	}
}

// applyPing is the drain-side effect of one vehicle update (shared with WAL
// replay, which applies recovered pings at the restored clock). roundMu held.
func (e *Engine) applyPing(p vehiclePing, now float64) {
	rt := e.rtByID[p.id]
	if rt == nil {
		return
	}
	mo := rt.mo
	if !math.IsNaN(p.activeFrom) {
		mo.V.ActiveFrom = p.activeFrom
	}
	if !math.IsNaN(p.activeTo) {
		mo.V.ActiveTo = p.activeTo
	}
	if p.node != roadnet.Invalid {
		if e.dyn != nil {
			e.dyn.learner.ObserveNode(int64(p.id), now, p.node)
		}
		if e.mover.Relocate(mo, p.node) {
			if s := e.sh.shardOf(mo.V.Node); s != int(rt.shard) {
				e.unhomeMotion(rt)
				e.homeMotion(rt, s)
				e.pingHandoffs++
			}
		}
	}
}

// phase1Out is what one shard's parallel pre-match phase hands to the
// barrier.
type phase1Out struct {
	advanceSec float64
	rejected   int
	// orders is the shard's contribution to O(ℓ): its pool (post-reject)
	// followed by the orders stripped from its resident vehicles.
	orders []*model.Order
	// incumbent / strippedVeh record the reshuffle release (order -> the
	// vehicle it was stripped from; vehicles that lost pending orders).
	incumbent   map[model.OrderID]model.VehicleID
	strippedVeh map[model.VehicleID]bool
	// vehicles is V(ℓ) for the shard's residents that did NOT cross a zone
	// boundary; emigrants carries the crossers with their target zone.
	vehicles  []*foodgraph.VehicleState
	emigrants []emigrant
}

type emigrant struct {
	rt     *motionRt
	target int
	vs     *foodgraph.VehicleState // nil when the vehicle is not available
}

// shardWork is the input/output of one zone's matching goroutine.
type shardWork struct {
	orders   []*model.Order
	vehicles []*foodgraph.VehicleState
	res      []policy.Assignment
	sec      float64
	epoch    uint64          // weight epoch the shard's round was pinned to
	pstats   *pipeline.Stats // non-nil iff the shard ran and records stats
}

// runRound executes the phased assignment round at time now. roundMu is
// held; ingestion keeps flowing into the channels, but the world state
// belongs to this round until it returns.
func (e *Engine) runRound(ctx context.Context, t0, now, drainSec float64) RoundStats {
	cfg := e.cfg.Pipeline
	eo := e.eo
	stats := RoundStats{T: now, Shards: make([]ShardRoundStats, len(e.shards))}
	reshuffle := cfg.Reshuffle && e.pol.Reshuffles()
	singleOrder := e.pol.SingleOrderMode(cfg)

	// ---- Parallel phase 1: advance / reject / strip / collect, each shard
	// on its own goroutine owning its own state. Workers=1 runs the shards
	// serially in id order instead: movement (and so the order of the
	// learner's float accumulations and of rejection events) stays fully
	// deterministic across runs, honouring the Config.Workers contract even
	// at Shards>1.
	e.phase("advance")
	phT := time.Now()
	// The movement-worker budget is allocated across shards serially, before
	// the fan-out, so the shares see a consistent fleet census.
	sizes := make([]int, len(e.shards))
	for i, s := range e.shards {
		sizes[i] = len(s.motions)
	}
	shares := advanceShares(e.cfg.Workers, sizes)
	ph := make([]phase1Out, len(e.shards))
	e.forEachShard(e.cfg.Workers > 1, func(s *shardState) {
		ph[s.id] = e.shardPhase1(s, shares[s.id], t0, now, reshuffle, singleOrder)
	})
	advanceSec := time.Since(phT).Seconds()

	// ---- Serial handoff barrier. A weight publish due this round lands
	// first, so the matching phase below already pins the fresh epoch (the
	// learner has seen all of this round's traversals by now).
	e.phase("handoff")
	phT = time.Now()
	pubSec := e.maybeRefreshWeights(now)
	stats.Epoch = e.currentEpoch()

	work := make([]shardWork, len(e.shards))
	var orders []*model.Order
	prevVehicle := make(map[model.OrderID]model.VehicleID)
	stripped := make(map[model.VehicleID]bool)
	stats.VehicleHandoffs += e.pingHandoffs // ping re-homes since last round
	e.pingHandoffs = 0
	for si := range ph {
		out := &ph[si]
		stats.Rejected += out.rejected
		orders = append(orders, out.orders...)
		for id, v := range out.incumbent {
			prevVehicle[id] = v
		}
		for id := range out.strippedVeh {
			stripped[id] = true
		}
	}
	// Re-home the boundary crossers: the vehicle leaves its old zone's
	// resident list for the zone its node is in — a crosser is matched by
	// exactly one shard. Counted against the pre-re-split partition.
	for si := range ph {
		for _, em := range ph[si].emigrants {
			e.unhomeMotion(em.rt)
			e.homeMotion(em.rt, em.target)
			stats.VehicleHandoffs++
		}
	}

	// A due demand-driven re-split executes here: after boundary re-homing,
	// before V(ℓ)/O(ℓ) bucketing — so the match phase below already runs on
	// the new zones and this round's pool rebuild re-buckets through the new
	// sharder (pools migrate without a dedicated pass).
	resplit, resplitMoves, resplitSec := e.maybeResplit(now)
	stats.ShardEpoch = e.shardEpoch.Load()
	stats.ResplitMoves = resplitMoves

	// Bucket V(ℓ) by each available vehicle's current zone: stay-homes in
	// shard order, then emigrants in shard order — identical slice contents
	// to the pre-elastic direct assignment whenever no re-split ran.
	availTotal := 0
	for si := range ph {
		for _, vs := range ph[si].vehicles {
			t := e.sh.shardOf(vs.Node)
			work[t].vehicles = append(work[t].vehicles, vs)
			availTotal++
		}
	}
	for si := range ph {
		for _, em := range ph[si].emigrants {
			if em.vs != nil {
				t := e.sh.shardOf(em.vs.Node)
				work[t].vehicles = append(work[t].vehicles, em.vs)
				availTotal++
			}
		}
	}
	stats.PoolSize = len(orders)
	stats.AvailableVehicles = availTotal

	// Partition O(ℓ) by restaurant zone with the cross-shard handoff rule.
	if len(orders) > 0 && availTotal > 0 {
		stats.Handoffs = e.partitionOrders(orders, work)
	}
	if resplit {
		// Fresh zones start with cold distance rows; warm them by parallel
		// bounded SSSP before the match phase queries them.
		e.warmShards(work, now)
	}
	handoffSec := time.Since(phT).Seconds()

	// ---- Parallel phase 2: every zone's pipeline on its own policy
	// instance, distance cache and pinned weight epoch.
	e.phase("match")
	phT = time.Now()
	var wg sync.WaitGroup
	for s := range e.shards {
		if len(work[s].orders) == 0 || len(work[s].vehicles) == 0 {
			continue
		}
		wg.Add(1)
		go func(sr *shardState, w *shardWork) {
			defer wg.Done()
			// Pin the current weight epoch for the whole round: the
			// snapshot's graph and Router stay mutually consistent even if
			// a weight publish lands mid-round (the next round picks the
			// new epoch up), and the per-query hot path pays no atomic
			// load at all.
			snap, router := sr.router.Acquire()
			w.epoch = snap.Epoch
			if sr.slot != e.slot {
				sr.slot = e.slot
				if r, ok := router.(roadnet.Resettable); ok {
					r.Reset()
				}
			}
			t0 := time.Now()
			w.res = sr.pol.Assign(ctx, &policy.WindowInput{
				G:         snap.Graph,
				Router:    router,
				Now:       now,
				Orders:    w.orders,
				Vehicles:  w.vehicles,
				Incumbent: prevVehicle,
				Cfg:       cfg,
			})
			w.sec = time.Since(t0).Seconds()
			if src, ok := sr.pol.(pipeline.StatsSource); ok {
				ps := src.LastStats()
				w.pstats = &ps
			}
		}(e.shards[s], &work[s])
	}
	wg.Wait()
	matchSec := time.Since(phT).Seconds()

	// ---- Serial application: each assignment's orders attach to its
	// vehicle, whose plan is replaced. Zones hold disjoint vehicles, so
	// decisions never conflict; sequential application keeps the world
	// state single-writer.
	e.phase("apply")
	phT = time.Now()
	assignedVehicles := make(map[model.VehicleID]bool)
	assignedOrders := make(map[model.OrderID]bool)
	for s := range work {
		sw := &work[s]
		stats.Shards[s] = ShardRoundStats{
			Orders:      len(sw.orders),
			Vehicles:    len(sw.vehicles),
			Assignments: len(sw.res),
			AssignSec:   sw.sec,
			AdvanceSec:  ph[s].advanceSec,
			Epoch:       sw.epoch,
			Pipeline:    sw.pstats,
		}
		if sw.epoch > stats.Epoch {
			stats.Epoch = sw.epoch
		}
		if sw.pstats != nil {
			stats.Pipeline.Accumulate(*sw.pstats)
		}
		if sw.sec > stats.AssignSecMax {
			stats.AssignSecMax = sw.sec
		}
		for _, a := range sw.res {
			v := a.Vehicle
			assignedVehicles[v.ID] = true
			ids := make([]model.OrderID, 0, len(a.Orders))
			reassigned := 0
			for _, o := range a.Orders {
				o.State = model.OrderAssigned
				if prev, had := prevVehicle[o.ID]; had && prev != v.ID {
					reassigned++
				}
				o.AssignedTo = v.ID
				o.AssignedAt = now
				assignedOrders[o.ID] = true
				v.Pending = append(v.Pending, o)
				ids = append(ids, o.ID)
				e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderAssigned, T: now, Order: o.ID, Vehicle: v.ID})
			}
			if mo := e.byID[v.ID]; mo != nil {
				e.mover.SetPlan(mo, a.Plan)
			}
			e.totals.reassigned.Add(int64(reassigned))
			stats.AssignedOrders += len(ids)
			e.subs.publish(StreamEvent{Decision: &Decision{
				T: now, Vehicle: v.ID, Orders: ids, Shard: s, Reassigned: reassigned > 0,
			}})
		}
	}

	applySec := time.Since(phT).Seconds()

	// Give unplaced reshuffled orders back to their incumbents (decision is
	// serial and deterministic), then fan the expensive replanning out per
	// zone: each restored or stripped vehicle replans on the distance cache
	// of the zone its node is in, one goroutine per zone.
	e.phase("replan")
	phT = time.Now()
	restored := e.restoreUnplaced(now, orders, prevVehicle, assignedOrders)
	e.replanParallel(now, stripped, assignedVehicles, restored)
	replanSec := time.Since(phT).Seconds()

	// Rebuild the zone pools from the unassigned remainder (orders return
	// to their restaurant's home zone).
	e.phase("rebuild")
	phT = time.Now()
	for _, s := range e.shards {
		s.pool = s.pool[:0]
	}
	carried := 0
	for _, o := range orders {
		if !assignedOrders[o.ID] && o.State == model.OrderPlaced {
			s := e.shards[e.sh.shardOf(o.Restaurant)]
			s.pool = append(s.pool, o)
			carried++
		}
	}
	for _, s := range e.shards {
		s.poolLen.Store(int64(len(s.pool)))
	}
	stats.PoolCarried = carried

	// Shard-resident round timings for the metrics plane.
	for s := range e.shards {
		st := e.shards[s]
		st.hookMu.Lock()
		st.timing.rounds++
		st.timing.advanceSecTotal += ph[s].advanceSec
		st.timing.assignSecTotal += work[s].sec
		st.timing.lastAdvanceSec = ph[s].advanceSec
		st.timing.lastAssignSec = work[s].sec
		st.hookMu.Unlock()
	}
	rebuildSec := time.Since(phT).Seconds()

	if eo != nil {
		stats.Phases = eo.recordPhases(ph, work,
			drainSec, advanceSec, handoffSec, pubSec, resplitSec, matchSec, applySec, replanSec, rebuildSec)
	}

	e.cfg.Trace.Emit(trace.Event{
		Kind: trace.WindowClosed, T: now,
		PoolSize: stats.PoolSize, Vehicles: availTotal,
		Assignments: stats.AssignedOrders, AssignSec: stats.AssignSecMax,
	})
	return stats
}

// phase announces a round-phase boundary to the fault-injection hook (no-op
// in production: the hook is settable only from in-package tests).
func (e *Engine) phase(name string) {
	if e.cfg.phaseHook != nil {
		e.cfg.phaseHook(name)
	}
}

// forEachShard runs fn over every shard — one goroutine each when parallel,
// inline in shard-id order otherwise (single shard, or a caller that needs
// cross-shard determinism).
func (e *Engine) forEachShard(parallel bool, fn func(s *shardState)) {
	if !parallel || len(e.shards) == 1 {
		for _, s := range e.shards {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		go func(s *shardState) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// shardPhase1 is one zone's parallel pre-match phase: advance resident
// vehicles through [t0, t1), reject stale pool orders, strip reshuffleable
// pending orders, and classify residents into stay-home vehicle states vs
// boundary-crossing emigrants. It runs on the shard's own goroutine and
// touches only shard-resident state (trace sinks, stream subscribers and
// the learner synchronise internally).
func (e *Engine) shardPhase1(s *shardState, advWorkers int, t0, t1 float64, reshuffle, singleOrder bool) phase1Out {
	cfg := e.cfg.Pipeline
	var out phase1Out

	// SDT lower bounds for this round's freshly admitted orders, on the
	// shard's own bounded distance cache (values depend only on the static
	// true graph and the order's placement time, so computing them here —
	// in parallel, per shard — is exact).
	if s.sdtSlot != e.slot {
		s.sdtSlot = e.slot
		s.sdt.Reset()
	}
	// Group same-(restaurant, slot) orders so each group's SDTs resolve
	// through one batched row read. Values are identical to per-order point
	// queries (same memoised row); the grouping only collapses the lookups.
	s.sdtOrders = append(s.sdtOrders[:0], s.newOrders...)
	sort.SliceStable(s.sdtOrders, func(i, j int) bool {
		a, b := s.sdtOrders[i], s.sdtOrders[j]
		if a.Restaurant != b.Restaurant {
			return a.Restaurant < b.Restaurant
		}
		return roadnet.Slot(a.PlacedAt) < roadnet.Slot(b.PlacedAt)
	})
	for i := 0; i < len(s.sdtOrders); {
		o := s.sdtOrders[i]
		j := i + 1
		for j < len(s.sdtOrders) && s.sdtOrders[j].Restaurant == o.Restaurant &&
			roadnet.Slot(s.sdtOrders[j].PlacedAt) == roadnet.Slot(o.PlacedAt) {
			j++
		}
		if j-i == 1 {
			o.SDT = o.Prep + s.sdt.Travel(o.Restaurant, o.Customer, o.PlacedAt)
		} else {
			s.sdtTargets = s.sdtTargets[:0]
			for _, q := range s.sdtOrders[i:j] {
				s.sdtTargets = append(s.sdtTargets, q.Customer)
			}
			d := s.sdt.TravelMany(o.Restaurant, s.sdtTargets, o.PlacedAt)
			for k, q := range s.sdtOrders[i:j] {
				q.SDT = q.Prep + d[k]
			}
		}
		i = j
	}
	s.newOrders = s.newOrders[:0]

	adv := time.Now()
	e.advanceShard(s, advWorkers, t0, t1)
	out.advanceSec = time.Since(adv).Seconds()

	// Reject pool orders unallocated longer than RejectAfter.
	keep := s.pool[:0]
	for _, o := range s.pool {
		if t1-o.PlacedAt > cfg.RejectAfter {
			o.State = model.OrderRejected
			out.rejected++
			e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderRejected, T: t1, Order: o.ID})
			e.subs.publish(StreamEvent{Rejection: &Rejection{T: t1, Order: o.ID}})
		} else {
			keep = append(keep, o)
		}
	}
	s.pool = keep
	s.poolLen.Store(int64(len(s.pool)))

	// O(ℓ) contribution: the zone pool, then — when reshuffling — every
	// resident vehicle's assigned-but-unpicked orders, released back to the
	// pool (Section IV-D2).
	out.orders = append(out.orders, s.pool...)
	if reshuffle {
		out.incumbent = make(map[model.OrderID]model.VehicleID)
		out.strippedVeh = make(map[model.VehicleID]bool)
		for _, rt := range s.motions {
			v := rt.mo.V
			if len(v.Pending) == 0 {
				continue
			}
			for _, o := range v.Pending {
				out.incumbent[o.ID] = o.AssignedTo
				e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderReleased, T: t1, Order: o.ID, Vehicle: o.AssignedTo})
				o.State = model.OrderPlaced
				o.AssignedTo = -1
				out.orders = append(out.orders, o)
			}
			v.Pending = v.Pending[:0]
			out.strippedVeh[v.ID] = true
		}
	}

	// V(ℓ) and emigrants: availability is judged post-strip (a stripped
	// vehicle's capacity is free again), zone membership by the node the
	// vehicle advanced to.
	for _, rt := range s.motions {
		v := rt.mo.V
		var vs *foodgraph.VehicleState
		if v.Active(t1) &&
			!(singleOrder && v.OrderCount() > 0) &&
			v.OrderCount() < cfg.MaxO && v.ItemCount() < cfg.MaxI {
			vs = &foodgraph.VehicleState{
				Vehicle: v,
				Node:    v.Node,
				Dest:    rt.mo.NextNode(),
				Onboard: v.Onboard,
				Keep:    v.Pending,
			}
		}
		if target := e.sh.shardOf(v.Node); target != s.id {
			out.emigrants = append(out.emigrants, emigrant{rt: rt, target: target, vs: vs})
			continue
		}
		if vs != nil {
			out.vehicles = append(out.vehicles, vs)
		}
	}
	return out
}

// advanceShares splits the movement-worker budget across shards in
// proportion to their resident fleets by largest remainder: integer quotas
// budget·sizeᵢ/Σsize floor first, then the leftover goes one-by-one to the
// largest fractional remainders (lowest shard id on ties), capped at each
// shard's fleet size. Shares always sum to min(budget, Σsize) — the old
// per-shard floor could silently sum to well under the budget on skewed
// fleets (e.g. budget 7 over fleets 3/3/3/3 ran only 4 workers).
func advanceShares(budget int, sizes []int) []int {
	shares := make([]int, len(sizes))
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total == 0 || budget <= 0 {
		return shares
	}
	if budget > total {
		budget = total
	}
	type rem struct{ frac, id int }
	rems := make([]rem, 0, len(sizes))
	allocated := 0
	for i, n := range sizes {
		q := budget * n / total
		shares[i] = q
		allocated += q
		rems = append(rems, rem{frac: budget*n - q*total, id: i})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].id < rems[b].id
	})
	for _, r := range rems {
		if allocated >= budget {
			break
		}
		if shares[r.id] < sizes[r.id] {
			shares[r.id]++
			allocated++
		}
	}
	return shares
}

// advanceShard moves the shard's resident vehicles through [t0, t1) on the
// shard's own mover, fanning its motions out over `workers` goroutines from
// the engine-wide budget (allocated by advanceShares at the top of the
// round: a dinner-peak hotspot zone gets the workers its fleet share
// warrants, not an even 1/K slice). Each vehicle is touched by exactly one
// goroutine; the graph is read-only; hooks and the trace sink synchronise
// internally. Shares of 0 or 1 run inline on the shard's own goroutine.
func (e *Engine) advanceShard(s *shardState, workers int, t0, t1 float64) {
	if t1 <= t0 || len(s.motions) == 0 {
		return
	}
	if workers > len(s.motions) {
		workers = len(s.motions)
	}
	if workers <= 1 {
		for _, rt := range s.motions {
			s.mover.Advance(rt.mo, t0, t1)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan *sim.Motion, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for mo := range next {
				s.mover.Advance(mo, t0, t1)
			}
		}()
	}
	for _, rt := range s.motions {
		next <- rt.mo
	}
	close(next)
	wg.Wait()
}

// restoreUnplaced gives a reshuffled order the matching did not place
// anywhere back to its previous vehicle — reshuffling looks for *better*
// vehicles, it never strands an order that already had one. The incumbent
// may have received a new batch this round; restore only while capacity
// allows. Returns the restored-vehicle set for replanParallel.
func (e *Engine) restoreUnplaced(now float64, orders []*model.Order,
	incumbent map[model.OrderID]model.VehicleID, assignedOrders map[model.OrderID]bool) map[model.VehicleID]bool {
	cfg := e.cfg.Pipeline
	restored := make(map[model.VehicleID]bool)
	for _, o := range orders {
		if assignedOrders[o.ID] || o.State != model.OrderPlaced {
			continue
		}
		prev, had := incumbent[o.ID]
		if !had {
			continue
		}
		mo := e.byID[prev]
		if mo == nil || !mo.V.Active(now) {
			continue
		}
		v := mo.V
		if v.OrderCount()+1 > cfg.MaxO || v.ItemCount()+o.Items > cfg.MaxI {
			continue
		}
		o.State = model.OrderAssigned
		o.AssignedTo = v.ID
		v.Pending = append(v.Pending, o)
		assignedOrders[o.ID] = true
		restored[v.ID] = true
		e.cfg.Trace.Emit(trace.Event{Kind: trace.OrderAssigned, T: now, Order: o.ID, Vehicle: v.ID})
	}
	return restored
}

// replanParallel rebuilds plans for restored and stripped-but-unmatched
// vehicles — the Dijkstra-heavy tail of the round — fanned out per zone so
// each zone's distance cache is driven by exactly one goroutine. Vehicles
// are grouped by the zone their node is in (the cache that can answer
// their queries). A restored vehicle gets a full quickest plan over its
// onboard dropoffs and pending pickups; a stripped-but-unmatched one a
// dropoff-only plan, or an empty one when nothing is onboard. A failed
// optimisation keeps the old plan.
func (e *Engine) replanParallel(now float64, stripped, assigned, restored map[model.VehicleID]bool) {
	if len(stripped) == 0 && len(restored) == 0 {
		return
	}
	buckets := make([][]*sim.Motion, len(e.shards))
	for _, mo := range e.motions {
		v := mo.V
		if !restored[v.ID] && !(stripped[v.ID] && !assigned[v.ID]) {
			continue
		}
		z := e.sh.shardOf(v.Node)
		buckets[z] = append(buckets[z], mo)
	}
	e.forEachShard(e.cfg.Workers > 1, func(s *shardState) {
		for _, mo := range buckets[s.id] {
			v := mo.V
			var pickups []*model.Order
			if restored[v.ID] {
				pickups = v.Pending
			} else if len(v.Onboard) == 0 {
				e.mover.SetPlan(mo, &model.RoutePlan{})
				continue
			}
			if plan, _, ok := routing.Optimize(s.router, v.Node, now, v.Onboard, pickups); ok {
				e.mover.SetPlan(mo, plan)
			}
		}
	})
}

// partitionOrders distributes O(ℓ) across the zone shards: every order goes
// to its restaurant's home zone unless it straddles a boundary (restaurant
// within BoundaryM of a neighbouring zone) and the neighbour is under less
// pressure — fewer orders queued per available vehicle — in which case it is
// handed off. Returns the handoff count.
//
// The pressure score feeds back on work[s].orders as the loop assigns, so
// the visit order must be canonical or an order's handoff decision would
// depend on its position in the pool slice (phase-1 collection order):
// orders are visited in ascending order id. Ties are explicit: the home
// zone wins at equal pressure (strict <), and among eligible neighbours the
// lowest shard id wins (nearShards iterates ascending; the first winner at
// a given pressure stands).
func (e *Engine) partitionOrders(orders []*model.Order, work []shardWork) int {
	if len(work) == 1 {
		work[0].orders = orders
		return 0
	}
	seq := make([]*model.Order, len(orders))
	copy(seq, orders)
	sort.Slice(seq, func(a, b int) bool { return seq[a].ID < seq[b].ID })
	handoffs := 0
	var near []int
	for _, o := range seq {
		home := e.sh.shardOf(o.Restaurant)
		best := home
		if len(work[home].vehicles) == 0 || len(work[home].orders) >= len(work[home].vehicles) {
			// Home zone is starved or saturated: consider neighbours the
			// restaurant can plausibly be served from.
			near = e.sh.nearShards(near[:0], e.g.Point(o.Restaurant), home, e.cfg.BoundaryM)
			bestScore := pressure(&work[home])
			for _, s := range near {
				if len(work[s].vehicles) == 0 {
					continue
				}
				if sc := pressure(&work[s]); sc < bestScore {
					best, bestScore = s, sc
				}
			}
		}
		if best != home {
			handoffs++
		}
		work[best].orders = append(work[best].orders, o)
	}
	return handoffs
}

// maybeResplit executes a demand-driven shard re-split when the cadence is
// due: it rebuilds the KD partition weighted by order arrivals per node
// (demandWeights) and migrates every vehicle onto the new zones
// exactly-once. It runs inside the serial handoff barrier — roundMu held,
// no parallel phase in flight — so residency moves need no synchronisation
// beyond the atomic length mirrors. Pools need no dedicated migration pass:
// this round's rebuild phase re-buckets the unassigned remainder through
// the new sharder, and admissions/replans route through shardOf from here
// on. Movers, DistCaches, routers and policy instances are zone-scoped (the
// zone's *meaning* changes, the instance stays), so they move with the
// shard slot; the caller warms the distance caches for the new zone
// geometry. Returns whether a re-split executed, how many vehicles changed
// zones, and the wall-clock cost.
func (e *Engine) maybeResplit(now float64) (bool, int, float64) {
	if e.cfg.ResplitSec <= 0 || len(e.shards) < 2 {
		return false, 0, 0
	}
	if now-e.lastResplitT < e.cfg.ResplitSec {
		return false, 0, 0
	}
	// Too little signal to beat the node-balanced prior: skip the churn and
	// wait out a full cadence period (mirrors maybeRefreshWeights's
	// quiet-period handling).
	if e.demandTotal < int64(4*len(e.shards)) {
		e.lastResplitT = now
		return false, 0, 0
	}
	e.phase("resplit")
	t0 := time.Now()
	e.lastResplitT = now
	part := make([]int64, len(e.demand))
	copy(part, e.demand)
	e.partDemand = part
	sh := newSharderWeighted(e.g, e.cfg.Shards, demandWeights(part))
	sh.relabelToMatch(e.canonSh)
	e.sh = sh
	// Halve (don't zero) the live counters: the next re-split sees an
	// exponentially decayed moving average of arrivals, not only the last
	// period's.
	var total int64
	for i, d := range e.demand {
		e.demand[i] = d >> 1
		total += d >> 1
	}
	e.demandTotal = total
	moves := e.rehomeAll()
	e.shardEpoch.Add(1)
	e.totals.resplits.Inc()
	e.totals.resplitMoves.Add(int64(moves))
	if e.eo != nil {
		e.eo.gShardEpoch.Set(float64(e.shardEpoch.Load()))
	}
	return true, moves, time.Since(t0).Seconds()
}

// demandWeights converts a per-node demand vector into KD split weights:
// raw counts plus a small uniform prior (total/(4n) per node) so
// zero-demand spans still carry weight — demand dominates once the city is
// warm, the prior keeps cold corners from collapsing into slivers. Pure
// and deterministic: checkpoint restore rebuilds the identical partition
// from the persisted vector.
func demandWeights(demand []int64) []float64 {
	var total int64
	for _, d := range demand {
		total += d
	}
	prior := float64(total) / float64(4*len(demand))
	w := make([]float64, len(demand))
	for i, d := range demand {
		w[i] = float64(d) + prior
	}
	return w
}

// rehomeAll rebuilds every shard's resident list against the current
// sharder in stable fleet order (deterministic regardless of the swap-
// removal history), returning how many vehicles changed zones.
func (e *Engine) rehomeAll() int {
	moves := 0
	for _, s := range e.shards {
		s.motions = s.motions[:0]
	}
	for _, mo := range e.motions {
		rt := e.rtByID[mo.V.ID]
		target := e.sh.shardOf(mo.V.Node)
		if target != int(rt.shard) {
			moves++
		}
		st := e.shards[target]
		rt.shard = int32(target)
		rt.pos = int32(len(st.motions))
		st.motions = append(st.motions, rt)
	}
	for _, s := range e.shards {
		s.vehLen.Store(int64(len(s.motions)))
	}
	return moves
}

// warmShards pre-builds the distance rows freshly re-split zones will need:
// one bounded SSSP per distinct restaurant in each zone's order partition,
// on both the zone's SDT admission cache and its router's memoised backend,
// in parallel across shards before the match phase reads them. Warming is
// pure cache fill — rows are exact, so no decision can change; the slot
// reset below replicates exactly what the match goroutine (router) and next
// round's phase 1 (SDT) would do, so the warmed rows are not dropped later.
func (e *Engine) warmShards(work []shardWork, now float64) {
	e.forEachShard(e.cfg.Workers > 1, func(s *shardState) {
		if s.sdtSlot != e.slot {
			s.sdtSlot = e.slot
			s.sdt.Reset()
		}
		_, router := s.router.Acquire()
		if s.slot != e.slot {
			s.slot = e.slot
			if r, ok := router.(roadnet.Resettable); ok {
				r.Reset()
			}
		}
		seen := make(map[roadnet.NodeID]bool, len(work[s.id].orders))
		for _, o := range work[s.id].orders {
			if seen[o.Restaurant] {
				continue
			}
			seen[o.Restaurant] = true
			s.sdt.Row(o.Restaurant, now)
			router.Travel(o.Restaurant, o.Restaurant, now)
		}
	})
}

// pressure scores a zone's load for the handoff rule: queued orders per
// available vehicle (+Inf when the zone has no vehicles).
func pressure(w *shardWork) float64 {
	if len(w.vehicles) == 0 {
		return math.Inf(1)
	}
	return float64(len(w.orders)+1) / float64(len(w.vehicles))
}
