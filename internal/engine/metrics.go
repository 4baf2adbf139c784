package engine

import (
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// PipelineStats is the per-stage timing/size breakdown of an assignment
// round (alias of pipeline.Stats): batching, FoodGraph construction,
// reshuffle weighting and matching, with the intermediate cardinalities.
// The paper's Section V ablations fall out of these numbers directly.
type PipelineStats = pipeline.Stats

// counters is the engine's lifecycle totals: one registry counter per
// total and no other copy. Snapshot, Roadnet, Ready and the checkpoint read
// and write these same instruments, and GET /metrics.prom exposes them, so
// the JSON and Prometheus views cannot disagree (restore included). Every
// total only grows, which is what lets Snapshot read them without a lock.
type counters struct {
	ingested, admitted, shedOrders  *obs.Counter // accepted; moved queue → pool; ErrQueueFull
	pingsIngested, shedPings        *obs.Counter
	assigned, reassigned, rejected  *obs.Counter // rejected: unallocated past RejectAfter
	handoffs, vehHandoffs           *obs.Counter // orders / vehicles crossing a zone boundary
	rounds                          *obs.Counter
	resplits, resplitMoves          *obs.Counter // re-splits; vehicles they migrated
	publishesFull, publishesPatched *obs.Counter // weight epochs; imports count as full
	// delivered and stranded are the one mirrored pair: the parallel
	// movement workers book them per shard (shardState.ledger), which the
	// per-zone rows and the JSON totals read, and
	// foodmatch_orders_total{event="delivered"|"stranded"} mirror their sum.
	delivered, stranded *obs.Counter
}

func newCounters(reg *obs.Registry) counters {
	orders := func(event string) *obs.Counter {
		return reg.Counter("foodmatch_orders_total",
			"Order lifecycle totals by event.", obs.Labels{"event": event})
	}
	pings := func(event string) *obs.Counter {
		return reg.Counter("foodmatch_pings_total",
			"Vehicle ping totals by event.", obs.Labels{"event": event})
	}
	return counters{
		ingested:      orders("ingested"),
		admitted:      orders("admitted"),
		shedOrders:    orders("shed"),
		pingsIngested: pings("ingested"),
		shedPings:     pings("shed"),
		assigned:      orders("assigned"),
		reassigned:    orders("reassigned"),
		rejected:      orders("rejected"),
		handoffs:      orders("handoff"),
		vehHandoffs: reg.Counter("foodmatch_vehicle_handoffs_total",
			"Vehicles re-homed across a zone boundary.", nil),
		rounds: reg.Counter("foodmatch_rounds_total",
			"Completed assignment rounds.", nil),
		resplits: reg.Counter("foodmatch_resplits_total",
			"Demand-driven shard re-splits executed at the handoff barrier.", nil),
		resplitMoves: reg.Counter("foodmatch_resplit_moves_total",
			"Vehicles migrated across zone boundaries by shard re-splits.", nil),
		publishesFull: reg.Counter("foodmatch_weight_publishes_total",
			"Published weight epochs by publish mode.", obs.Labels{"mode": "full"}),
		publishesPatched: reg.Counter("foodmatch_weight_publishes_total", "",
			obs.Labels{"mode": "patched"}),
		delivered: orders("delivered"),
		stranded:  orders("stranded"),
	}
}

// roundTotals is what no counter carries, guarded by statMu.
type roundTotals struct {
	roundSecTotal float64
	roundSecMax   float64
	simStart      float64 // clock before the first round (for throughput)
	lastRound     RoundStats
}

// ShardRoundStats is one zone's share of a round.
type ShardRoundStats struct {
	Orders      int     `json:"orders"`
	Vehicles    int     `json:"vehicles"`
	Assignments int     `json:"assignments"`
	AssignSec   float64 `json:"assign_sec"`
	// AdvanceSec is the zone's movement-phase wall time this round (the
	// parallel advance of its resident vehicles).
	AdvanceSec float64 `json:"advance_sec"`
	// Epoch is the weight epoch the shard's round pinned (0 when the
	// shard was skipped or the road network is static).
	Epoch uint64 `json:"epoch,omitempty"`
	// Pipeline is the zone's per-stage breakdown (nil when the zone was
	// skipped this round or its policy does not record stage stats).
	Pipeline *PipelineStats `json:"pipeline,omitempty"`
}

// RoundStats summarises one assignment round.
type RoundStats struct {
	// T is the simulation clock the round closed at.
	T float64 `json:"t"`
	// Epoch is the road-network weight epoch the round ran under (the
	// newest epoch any shard pinned; 0 = static base weights).
	Epoch uint64 `json:"epoch,omitempty"`
	// PoolSize is |O(ℓ)|: pooled plus reshuffled orders matched this round.
	PoolSize int `json:"pool"`
	// PoolCarried is how many orders stayed unassigned into the next round.
	PoolCarried int `json:"pool_carried"`
	// AvailableVehicles is |V(ℓ)| across every zone.
	AvailableVehicles int `json:"vehicles"`
	// AssignedOrders counts orders attached to vehicles this round.
	AssignedOrders int `json:"assigned"`
	// Rejected counts orders dropped for staleness this round.
	Rejected int `json:"rejected"`
	// Handoffs counts orders served by a neighbouring zone this round;
	// VehicleHandoffs counts vehicles that crossed a zone boundary and were
	// re-homed onto the neighbouring shard at the round barrier.
	Handoffs        int `json:"handoffs"`
	VehicleHandoffs int `json:"vehicle_handoffs"`
	// ShardEpoch is the shard-partition generation the round ran on (bumped
	// by every demand-driven re-split; 0 = the initial node-balanced
	// partition). ResplitMoves counts vehicles migrated by a re-split that
	// executed at this round's barrier (0 on rounds without one).
	ShardEpoch   uint64 `json:"shard_epoch,omitempty"`
	ResplitMoves int    `json:"resplit_moves,omitempty"`
	// LatencySec is the full wall-clock cost of the round (movement,
	// partition, matching, application); AssignSecMax is the slowest
	// zone's matching time — the critical path of the parallel section.
	LatencySec   float64 `json:"latency_sec"`
	AssignSecMax float64 `json:"assign_sec_max"`
	// OrderQueueDepth / PingQueueDepth sample the ingestion backlog at the
	// end of the round.
	OrderQueueDepth int `json:"order_queue"`
	PingQueueDepth  int `json:"ping_queue"`
	// Pipeline aggregates the per-stage timing/size stats across every zone
	// that ran (stage seconds sum over shards; the parallel-section critical
	// path remains AssignSecMax).
	Pipeline PipelineStats `json:"pipeline"`
	// Shards is the per-zone breakdown.
	Shards []ShardRoundStats `json:"shards"`
	// Phases is the round's span tree — one entry per phase of the phased
	// round (drain, advance, handoff, match, apply, replan, rebuild), with
	// per-shard children and, under match, per-stage pipeline grandchildren.
	// Nil when Config.DisableObs. The slow-round structured log and the
	// experiments harness' -obs-out JSONL serialise exactly this.
	Phases []obs.Phase `json:"phases,omitempty"`
}

// ShardMetrics is one zone's resident-state summary on the metrics plane:
// what lives in the shard, what its rounds cost and its ledger's totals.
// Served by Snapshot (and so foodmatchd's GET /metrics) without touching
// the round lock.
type ShardMetrics struct {
	Shard int `json:"shard"`
	// Vehicles / PoolDepth are the shard-resident populations (sampled
	// lock-free; mid-round they reflect the last barrier).
	Vehicles  int `json:"vehicles"`
	PoolDepth int `json:"pool"`
	// Epoch is the weight epoch the shard's router currently serves.
	Epoch uint64 `json:"epoch"`
	// ShardEpoch is the partition generation the zone's geometry belongs to
	// (engine-wide; repeated per shard so each zone row is self-describing).
	ShardEpoch uint64 `json:"shard_epoch,omitempty"`
	// Rounds and the advance/assign timings describe the shard's share of
	// the phased round (totals and most recent round).
	Rounds          int64   `json:"rounds"`
	AdvanceSecTotal float64 `json:"advance_sec_total"`
	AssignSecTotal  float64 `json:"assign_sec_total"`
	LastAdvanceSec  float64 `json:"last_advance_sec"`
	LastAssignSec   float64 `json:"last_assign_sec"`
	// Movement-plane totals from the shard's sim.Metrics ledger, which the
	// offline Simulator returns (shard 0's) as its Section V metrics.
	Delivered int64   `json:"delivered"`
	Stranded  int64   `json:"stranded"`
	XDTSec    float64 `json:"xdt_sec"`
	WaitSec   float64 `json:"wait_sec"`
	DistKm    float64 `json:"dist_km"`
}

// Metrics is a point-in-time snapshot of engine health and throughput.
type Metrics struct {
	Clock  float64 `json:"clock"`
	Shards int     `json:"shards"`
	// WeightEpoch / WeightPublishes summarise the dynamic road network
	// plane (both 0 for a static engine; see Engine.Roadnet for detail).
	WeightEpoch     uint64 `json:"weight_epoch,omitempty"`
	WeightPublishes int64  `json:"weight_publishes,omitempty"`

	// Order lifecycle totals.
	OrdersIngested int64 `json:"orders_ingested"`
	OrdersAdmitted int64 `json:"orders_admitted"`
	OrdersShed     int64 `json:"orders_shed"`
	// PingsIngested / PingsShed are the ping-queue totals — together they
	// make the ping shed ratio computable, symmetrically with orders.
	PingsIngested int64 `json:"pings_ingested"`
	PingsShed     int64 `json:"pings_shed"`
	Assigned      int64 `json:"assigned"`
	Reassigned    int64 `json:"reassigned"`
	Delivered     int64 `json:"delivered"`
	Rejected      int64 `json:"rejected"`
	Stranded      int64 `json:"stranded"`
	Handoffs      int64 `json:"handoffs"`
	// VehicleHandoffs counts vehicles re-homed across zone boundaries.
	VehicleHandoffs int64 `json:"vehicle_handoffs"`
	// ShardEpoch is the current shard-partition generation; Resplits /
	// ResplitMoves total the demand-driven re-splits executed and the
	// vehicles they migrated.
	ShardEpoch   uint64 `json:"shard_epoch,omitempty"`
	Resplits     int64  `json:"resplits,omitempty"`
	ResplitMoves int64  `json:"resplit_moves,omitempty"`

	// Quality aggregates (the paper's metrics, online).
	XDTSec  float64 `json:"xdt_sec"`
	WaitSec float64 `json:"wait_sec"`
	DistKm  float64 `json:"dist_km"`

	// Round latency.
	Rounds          int64   `json:"rounds"`
	RoundSecMean    float64 `json:"round_sec_mean"`
	RoundSecMax     float64 `json:"round_sec_max"`
	OrdersPerSimSec float64 `json:"orders_per_sim_sec"`

	// Queue depths sampled now. ScheduledDepth counts admitted orders whose
	// placement time is still in the future (the scheduled buffer) — after a
	// crash-recovery boot it shows how much replayed work is waiting to open.
	OrderQueueDepth int `json:"order_queue"`
	PingQueueDepth  int `json:"ping_queue"`
	PoolDepth       int `json:"pool"`
	ScheduledDepth  int `json:"scheduled"`

	// PerShard is the zone-by-zone breakdown of the shard-resident state.
	PerShard []ShardMetrics `json:"per_shard"`

	// LastRound echoes the most recent round's statistics.
	LastRound RoundStats `json:"last_round"`
}

// Snapshot captures current engine metrics. It never takes the round lock:
// totals come from the registry counters, populations from lock-free
// per-shard mirrors, the clock from its atomic mirror — so /metrics stays
// responsive even while a long round is in flight. Counters only grow and
// each is read before the totals that bound it from above (per-shard
// delivered before assigned, rejected before admitted, admitted before
// ingested), so those invariants hold in every snapshot without a lock.
func (e *Engine) Snapshot() Metrics {
	m := Metrics{
		Clock:           e.Clock(),
		Shards:          e.cfg.Shards,
		ShardEpoch:      e.shardEpoch.Load(),
		OrderQueueDepth: len(e.orderCh),
		PingQueueDepth:  len(e.pingCh),
		ScheduledDepth:  int(e.futureLen.Load()),
		PerShard:        make([]ShardMetrics, len(e.shards)),
	}
	for i, s := range e.shards {
		sm := ShardMetrics{
			Shard:      s.id,
			Vehicles:   int(s.vehLen.Load()),
			PoolDepth:  int(s.poolLen.Load()),
			Epoch:      s.router.Epoch(),
			ShardEpoch: m.ShardEpoch,
		}
		s.hookMu.Lock()
		sm.Delivered = int64(s.ledger.Delivered)
		sm.Stranded = int64(s.ledger.Stranded)
		sm.XDTSec = s.ledger.XDTSec
		sm.WaitSec = s.ledger.WaitSec
		sm.DistKm = s.ledger.DistM / 1000
		sm.Rounds = s.timing.rounds
		sm.AdvanceSecTotal = s.timing.advanceSecTotal
		sm.AssignSecTotal = s.timing.assignSecTotal
		sm.LastAdvanceSec = s.timing.lastAdvanceSec
		sm.LastAssignSec = s.timing.lastAssignSec
		s.hookMu.Unlock()
		m.PerShard[i] = sm
		m.Delivered += sm.Delivered
		m.Stranded += sm.Stranded
		m.XDTSec += sm.XDTSec
		m.WaitSec += sm.WaitSec
		m.DistKm += sm.DistKm
		m.PoolDepth += sm.PoolDepth
	}
	c := &e.totals
	m.Assigned = c.assigned.Value()
	m.Reassigned = c.reassigned.Value()
	m.Rejected = c.rejected.Value()
	m.Handoffs = c.handoffs.Value()
	m.VehicleHandoffs = c.vehHandoffs.Value()
	m.Resplits = c.resplits.Value()
	m.ResplitMoves = c.resplitMoves.Value()
	m.OrdersAdmitted = c.admitted.Value()
	m.OrdersIngested = c.ingested.Value()
	m.OrdersShed = c.shedOrders.Value()
	m.PingsIngested = c.pingsIngested.Value()
	m.PingsShed = c.shedPings.Value()

	e.statMu.Lock()
	m.Rounds = c.rounds.Value() // written under statMu with the aggregates
	rt := e.stats
	e.statMu.Unlock()
	m.RoundSecMax = rt.roundSecMax
	m.LastRound = rt.lastRound
	if m.Rounds > 0 {
		m.RoundSecMean = rt.roundSecTotal / float64(m.Rounds)
	}
	if e.dyn != nil {
		e.dyn.mu.Lock()
		m.WeightEpoch = e.dyn.epoch
		m.WeightPublishes = c.publishesFull.Value() + c.publishesPatched.Value()
		e.dyn.mu.Unlock()
	}
	if span := rt.lastRound.T - rt.simStart; span > 0 && m.OrdersAdmitted > 0 {
		// Ingest throughput against simulated time; wall-clock throughput
		// depends on the Start time-scale.
		m.OrdersPerSimSec = float64(m.OrdersAdmitted) / span
	}
	return m
}
