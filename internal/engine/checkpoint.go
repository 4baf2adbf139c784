package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/wal"
)

// CheckpointVersion guards the full-checkpoint document format.
const CheckpointVersion = 1

// F64 is a float64 that survives JSON round-trips: ±Inf and NaN are legal
// engine values (open-ended shifts carry ActiveTo=+Inf, unreachable SDTs are
// +Inf) but not legal JSON numbers, so they encode as the strings "+Inf",
// "-Inf" and "NaN".
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = F64(math.Inf(1))
		case "-Inf":
			*f = F64(math.Inf(-1))
		case "NaN":
			*f = F64(math.NaN())
		default:
			return fmt.Errorf("engine: checkpoint float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = F64(v)
	return nil
}

// CheckpointOrder is one live order in the checkpoint: placed (pooled or
// still scheduled in the future buffer), assigned-but-unpicked (reshuffle
// state included via AssignedTo), or on board. Delivered and rejected orders
// have left the engine's world state and are not captured.
type CheckpointOrder struct {
	ID         int64 `json:"id"`
	Restaurant int64 `json:"restaurant"`
	Customer   int64 `json:"customer"`
	PlacedAt   F64   `json:"placed_at"`
	Items      int   `json:"items"`
	Prep       F64   `json:"prep"`
	SDT        F64   `json:"sdt"`
	State      int8  `json:"state"`
	AssignedTo int32 `json:"assigned_to"`
	AssignedAt F64   `json:"assigned_at,omitempty"`
	PickedUpAt F64   `json:"picked_up_at,omitempty"`
}

// CheckpointDemand is one node's order-arrival count — the sparse encoding
// of the demand vectors (nodes ascending, zero counts omitted).
type CheckpointDemand struct {
	Node int64 `json:"node"`
	N    int64 `json:"n"`
}

// CheckpointStop is one route-plan stop (order referenced by ID).
type CheckpointStop struct {
	Node  int64 `json:"node"`
	Order int64 `json:"order"`
	Kind  int8  `json:"kind"`
}

// CheckpointMotion is the vehicle's mid-leg movement bookkeeping
// (sim.MotionState in document form).
type CheckpointMotion struct {
	Path          []int64 `json:"path,omitempty"`
	EdgeRemaining F64     `json:"edge_remaining,omitempty"`
	EdgeTotal     F64     `json:"edge_total,omitempty"`
	EdgeLenM      F64     `json:"edge_len_m,omitempty"`
	EdgeFrom      int64   `json:"edge_from,omitempty"`
	EdgeEnterT    F64     `json:"edge_enter_t,omitempty"`
}

// CheckpointVehicle is one vehicle's full runtime state.
type CheckpointVehicle struct {
	ID           int32            `json:"id"`
	Node         int64            `json:"node"`
	EdgeTo       int64            `json:"edge_to"`
	EdgeProgress F64              `json:"edge_progress,omitempty"`
	Plan         []CheckpointStop `json:"plan,omitempty"`
	Onboard      []int64          `json:"onboard,omitempty"`
	Pending      []int64          `json:"pending,omitempty"`
	ActiveFrom   F64              `json:"active_from"`
	ActiveTo     F64              `json:"active_to"`
	DistM        F64              `json:"dist_m,omitempty"`
	DistByLoad   []F64            `json:"dist_by_load,omitempty"`
	WaitSec      F64              `json:"wait_sec,omitempty"`
	Motion       CheckpointMotion `json:"motion"`
}

// CheckpointCounters carries the engine-global statistics so a restored
// engine's /metrics continues where the killed one stopped. The movement
// plane (delivered, stranded, XDT, wait, distance) is summed over the shard
// ledgers here and restored into shard 0's ledger — totals are exact, the
// per-shard split is not (shard counts may even differ across the restart).
// Restore carries totals only: the ledger's per-slot and per-load series
// restart at zero. Ingested and PingsIngested leave out records still queued
// at the cut: ReplayWAL re-applies and re-counts exactly those.
type CheckpointCounters struct {
	Ingested      int64 `json:"ingested"`
	Admitted      int64 `json:"admitted"`
	ShedOrders    int64 `json:"shed_orders"`
	PingsIngested int64 `json:"pings_ingested"`
	ShedPings     int64 `json:"shed_pings"`
	Assigned      int64 `json:"assigned"`
	Reassigned    int64 `json:"reassigned"`
	Rejected      int64 `json:"rejected"`
	Handoffs      int64 `json:"handoffs"`
	VehHandoffs   int64 `json:"veh_handoffs"`
	Rounds        int64 `json:"rounds"`
	Resplits      int64 `json:"resplits,omitempty"`
	ResplitMoves  int64 `json:"resplit_moves,omitempty"`
	RoundSecTotal F64   `json:"round_sec_total,omitempty"`
	RoundSecMax   F64   `json:"round_sec_max,omitempty"`
	SimStart      F64   `json:"sim_start,omitempty"`
	Delivered     int64 `json:"delivered"`
	Stranded      int64 `json:"stranded"`
	XDTSec        F64   `json:"xdt_sec,omitempty"`
	WaitSec       F64   `json:"wait_sec,omitempty"`
	DistM         F64   `json:"dist_m,omitempty"`
}

// Checkpoint is the full engine state as one versioned document: every live
// order, every vehicle's position/plan/motion, the clock, the weight epoch
// and learner accumulators, the engine counters, and the WAL drained
// high-waters that anchor replay. It is captured under the round lock — a
// consistent cut at a round boundary, where shard pools are final, no SDT
// computation is pending and vehicle residency matches vehicle position.
//
// Orders are sorted by ID; Future and Pool list order IDs in their exact
// buffer order (future buffer and zone-pool order feed matching inputs, so
// preserving them keeps a restored replay decision-identical). Vehicles are
// in fleet order. Identical engine states serialise to identical bytes.
type Checkpoint struct {
	Version int    `json:"version"`
	Clock   F64    `json:"clock"`
	Slot    int    `json:"slot"`
	Epoch   uint64 `json:"epoch,omitempty"`
	// WALOrderSeq / WALPingSeq: every WAL record of that kind with sequence
	// <= the high-water is reflected in this checkpoint; replay applies only
	// records past them (see Engine.ReplayWAL, Checkpoint.WALTruncateSeq).
	WALOrderSeq  uint64 `json:"wal_order_seq,omitempty"`
	WALPingSeq   uint64 `json:"wal_ping_seq,omitempty"`
	PingHandoffs int    `json:"ping_handoffs,omitempty"`
	// Elastic-sharding plane: the partition generation, the simulation time
	// of the last re-split decision (absent = never), the live per-node
	// demand accumulator, and the demand vector the current partition was
	// built from (absent while the initial node-balanced partition stands).
	// Restore rebuilds the identical weighted sharder from PartDemand before
	// re-homing pools and vehicles, so a crashed-after-re-split engine
	// resumes on the same zones. All omitempty: pre-elastic documents parse
	// as a never-re-split engine.
	ShardEpoch  uint64              `json:"shard_epoch,omitempty"`
	LastResplit *F64                `json:"last_resplit,omitempty"`
	Demand      []CheckpointDemand  `json:"demand,omitempty"`
	PartDemand  []CheckpointDemand  `json:"part_demand,omitempty"`
	Orders      []CheckpointOrder   `json:"orders"`
	Future      []int64             `json:"future,omitempty"`
	Pool        []int64             `json:"pool,omitempty"`
	Vehicles    []CheckpointVehicle `json:"vehicles"`
	Counters    CheckpointCounters  `json:"counters"`
	Learner     *gps.LearnerState   `json:"learner,omitempty"`
}

// WALTruncateSeq is the highest WAL sequence this checkpoint provably
// covers regardless of record kind — the safe TruncateThrough bound. Both
// high-waters advance to the newest assigned sequence whenever their queue
// drains empty, so the bound stays tight even when one kind is idle.
func (c *Checkpoint) WALTruncateSeq() uint64 {
	if c.WALOrderSeq < c.WALPingSeq {
		return c.WALOrderSeq
	}
	return c.WALPingSeq
}

// CheckpointState captures a full engine checkpoint. It takes the round
// lock, so the cut is consistent (between rounds, or blocking until an
// in-flight round's barrier work completes); the capture itself is a plain
// struct build — marshalling happens on the caller's time, outside the lock.
// Safe to call on a running engine.
func (e *Engine) CheckpointState() *Checkpoint {
	e.roundMu.Lock()
	defer e.roundMu.Unlock()
	c := e.checkpointLocked()

	// Counters are atomics and the round aggregates and learner state have
	// their own locks, but all are read here under roundMu so no round can
	// land between the world capture and the bookkeeping capture (the
	// established lock order is roundMu → statMu/hookMu/dyn.mu, the same
	// nesting the round itself uses).
	e.statMu.Lock()
	st := e.stats
	e.statMu.Unlock()
	tc := &e.totals
	// Queued records are not in the cut. On the WAL path every accept
	// counts itself inside walMu, so the totals and the queue lengths read
	// here are one cut; without a WAL queued records die with the process.
	e.walMu.Lock()
	ingested := tc.ingested.Value() - int64(len(e.orderCh))
	pingsIngested := tc.pingsIngested.Value() - int64(len(e.pingCh))
	e.walMu.Unlock()
	c.Counters = CheckpointCounters{
		Ingested:      ingested,
		Admitted:      tc.admitted.Value(),
		ShedOrders:    tc.shedOrders.Value(),
		PingsIngested: pingsIngested,
		ShedPings:     tc.shedPings.Value(),
		Assigned:      tc.assigned.Value(),
		Reassigned:    tc.reassigned.Value(),
		Rejected:      tc.rejected.Value(),
		Handoffs:      tc.handoffs.Value(),
		VehHandoffs:   tc.vehHandoffs.Value(),
		Rounds:        tc.rounds.Value(),
		Resplits:      tc.resplits.Value(),
		ResplitMoves:  tc.resplitMoves.Value(),
		RoundSecTotal: F64(st.roundSecTotal),
		RoundSecMax:   F64(st.roundSecMax),
		SimStart:      F64(st.simStart),
	}
	for _, s := range e.shards {
		s.hookMu.Lock()
		c.Counters.Delivered += int64(s.ledger.Delivered)
		c.Counters.Stranded += int64(s.ledger.Stranded)
		c.Counters.XDTSec += F64(s.ledger.XDTSec)
		c.Counters.WaitSec += F64(s.ledger.WaitSec)
		c.Counters.DistM += F64(s.ledger.DistM)
		s.hookMu.Unlock()
	}
	if e.dyn != nil {
		e.dyn.mu.Lock()
		c.Epoch = e.dyn.epoch
		e.dyn.mu.Unlock()
		c.Learner = e.dyn.learner.State()
	}
	return c
}

// sparseDemand encodes a dense per-node demand vector sparsely (nodes
// ascending, zero counts omitted); nil in, nil out.
func sparseDemand(demand []int64) []CheckpointDemand {
	var out []CheckpointDemand
	for n, d := range demand {
		if d != 0 {
			out = append(out, CheckpointDemand{Node: int64(n), N: d})
		}
	}
	return out
}

// checkpointLocked builds the world-state half of the document. roundMu held.
func (e *Engine) checkpointLocked() *Checkpoint {
	c := &Checkpoint{
		Version:      CheckpointVersion,
		Clock:        F64(e.clock),
		Slot:         e.slot,
		WALOrderSeq:  e.walOrderSeq,
		WALPingSeq:   e.walPingSeq,
		PingHandoffs: e.pingHandoffs,
		ShardEpoch:   e.shardEpoch.Load(),
		Demand:       sparseDemand(e.demand),
		PartDemand:   sparseDemand(e.partDemand),
	}
	if !math.IsInf(e.lastResplitT, -1) {
		lr := F64(e.lastResplitT)
		c.LastResplit = &lr
	}
	seen := make(map[model.OrderID]bool)
	addOrder := func(o *model.Order) {
		if seen[o.ID] {
			return
		}
		seen[o.ID] = true
		c.Orders = append(c.Orders, CheckpointOrder{
			ID:         int64(o.ID),
			Restaurant: int64(o.Restaurant),
			Customer:   int64(o.Customer),
			PlacedAt:   F64(o.PlacedAt),
			Items:      o.Items,
			Prep:       F64(o.Prep),
			SDT:        F64(o.SDT),
			State:      int8(o.State),
			AssignedTo: int32(o.AssignedTo),
			AssignedAt: F64(o.AssignedAt),
			PickedUpAt: F64(o.PickedUpAt),
		})
	}
	for _, o := range e.future {
		addOrder(o)
		c.Future = append(c.Future, int64(o.ID))
	}
	for _, s := range e.shards {
		for _, o := range s.pool {
			addOrder(o)
			c.Pool = append(c.Pool, int64(o.ID))
		}
	}
	for _, mo := range e.motions {
		for _, o := range mo.V.Pending {
			addOrder(o)
		}
		for _, o := range mo.V.Onboard {
			addOrder(o)
		}
	}
	sort.Slice(c.Orders, func(i, j int) bool { return c.Orders[i].ID < c.Orders[j].ID })

	for _, mo := range e.motions {
		v := mo.V
		cv := CheckpointVehicle{
			ID:           int32(v.ID),
			Node:         int64(v.Node),
			EdgeTo:       int64(v.EdgeTo),
			EdgeProgress: F64(v.EdgeProgress),
			ActiveFrom:   F64(v.ActiveFrom),
			ActiveTo:     F64(v.ActiveTo),
			DistM:        F64(v.DistM),
			WaitSec:      F64(v.WaitSec),
		}
		if v.Plan != nil {
			for _, st := range v.Plan.Stops {
				cv.Plan = append(cv.Plan, CheckpointStop{
					Node: int64(st.Node), Order: int64(st.Order.ID), Kind: int8(st.Kind),
				})
			}
		}
		for _, o := range v.Onboard {
			cv.Onboard = append(cv.Onboard, int64(o.ID))
		}
		for _, o := range v.Pending {
			cv.Pending = append(cv.Pending, int64(o.ID))
		}
		for _, d := range v.DistByLoad {
			cv.DistByLoad = append(cv.DistByLoad, F64(d))
		}
		ms := mo.ExportState()
		for _, n := range ms.Path {
			cv.Motion.Path = append(cv.Motion.Path, int64(n))
		}
		cv.Motion.EdgeRemaining = F64(ms.EdgeRemaining)
		cv.Motion.EdgeTotal = F64(ms.EdgeTotal)
		cv.Motion.EdgeLenM = F64(ms.EdgeLenM)
		cv.Motion.EdgeFrom = int64(ms.EdgeFrom)
		cv.Motion.EdgeEnterT = F64(ms.EdgeEnterT)
		c.Vehicles = append(c.Vehicles, cv)
	}
	return c
}

// WriteCheckpoint captures a full checkpoint and writes it as one JSON
// document (newline-terminated; identical states produce identical bytes).
// The returned document carries the WAL high-waters the caller needs to
// truncate the log (wal.Log.TruncateThrough(c.WALTruncateSeq())). The round
// lock is held only for the in-memory capture, never for the I/O.
func (e *Engine) WriteCheckpoint(w io.Writer) (*Checkpoint, error) {
	c := e.CheckpointState()
	b, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return nil, err
	}
	return c, nil
}

// ReadCheckpoint parses a WriteCheckpoint document.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("engine: checkpoint version %d (want %d)", c.Version, CheckpointVersion)
	}
	return &c, nil
}

// ErrEngineUsed rejects a restore into an engine that has already run.
var ErrEngineUsed = errors.New("engine: restore requires a fresh engine (no rounds run, not started)")

// RestoreCheckpoint loads a full checkpoint into a freshly built engine —
// same graph, same fleet roster, before Start and before any Step. The
// engine resumes exactly where the checkpoint was cut: shard pools, the
// future buffer, vehicle positions/plans/motion, in-flight assignments,
// clock, counters, the learner's accumulators and the weight-epoch floor.
// Call ReplayWAL afterwards to apply the ingestion tail past the
// checkpoint's high-waters.
//
// Structural problems (unknown vehicles, dangling order references, nodes
// outside the graph) fail before any state is modified; on a later error the
// engine must be discarded.
func (e *Engine) RestoreCheckpoint(c *Checkpoint) error {
	if c == nil {
		return errors.New("engine: nil checkpoint")
	}
	if c.Version != CheckpointVersion {
		return fmt.Errorf("engine: checkpoint version %d (want %d)", c.Version, CheckpointVersion)
	}
	if c.Learner != nil && e.dyn == nil {
		return fmt.Errorf("engine: checkpoint carries learner state: %w", ErrStaticRoadnet)
	}
	e.runMu.Lock()
	running := e.stopCh != nil
	e.runMu.Unlock()
	if running {
		return ErrEngineUsed
	}
	e.roundMu.Lock()
	defer e.roundMu.Unlock()
	if e.totals.rounds.Value() > 0 {
		return ErrEngineUsed
	}

	// ---- Validate structure before touching anything.
	nodes := e.g.NumNodes()
	byID := make(map[int64]*CheckpointOrder, len(c.Orders))
	for i := range c.Orders {
		co := &c.Orders[i]
		if byID[co.ID] != nil {
			return fmt.Errorf("engine: checkpoint order %d duplicated", co.ID)
		}
		if co.Restaurant < 0 || co.Restaurant >= int64(nodes) || co.Customer < 0 || co.Customer >= int64(nodes) {
			return fmt.Errorf("engine: checkpoint order %d has nodes outside the graph", co.ID)
		}
		if s := model.OrderState(co.State); s != model.OrderPlaced && s != model.OrderAssigned && s != model.OrderPickedUp {
			return fmt.Errorf("engine: checkpoint order %d in non-live state %d", co.ID, co.State)
		}
		byID[co.ID] = co
	}
	for _, id := range c.Future {
		if byID[id] == nil {
			return fmt.Errorf("engine: checkpoint future order %d not in order table", id)
		}
	}
	for _, id := range c.Pool {
		if byID[id] == nil {
			return fmt.Errorf("engine: checkpoint pool order %d not in order table", id)
		}
	}
	for _, d := range c.Demand {
		if d.Node < 0 || d.Node >= int64(nodes) || d.N < 0 {
			return fmt.Errorf("engine: checkpoint demand entry at node %d invalid", d.Node)
		}
	}
	for _, d := range c.PartDemand {
		if d.Node < 0 || d.Node >= int64(nodes) || d.N < 0 {
			return fmt.Errorf("engine: checkpoint partition demand entry at node %d invalid", d.Node)
		}
	}
	if len(c.Vehicles) != len(e.motions) {
		return fmt.Errorf("engine: checkpoint has %d vehicles, fleet has %d", len(c.Vehicles), len(e.motions))
	}
	for i := range c.Vehicles {
		cv := &c.Vehicles[i]
		if e.byID[model.VehicleID(cv.ID)] == nil {
			return fmt.Errorf("engine: checkpoint vehicle %d not in fleet", cv.ID)
		}
		if cv.Node < 0 || cv.Node >= int64(nodes) {
			return fmt.Errorf("engine: checkpoint vehicle %d at node %d outside the graph", cv.ID, cv.Node)
		}
		for _, id := range cv.Onboard {
			if byID[id] == nil {
				return fmt.Errorf("engine: checkpoint vehicle %d onboard order %d not in order table", cv.ID, id)
			}
		}
		for _, id := range cv.Pending {
			if byID[id] == nil {
				return fmt.Errorf("engine: checkpoint vehicle %d pending order %d not in order table", cv.ID, id)
			}
		}
		for _, st := range cv.Plan {
			if byID[st.Order] == nil {
				return fmt.Errorf("engine: checkpoint vehicle %d plan references order %d not in order table", cv.ID, st.Order)
			}
			if st.Node < 0 || st.Node >= int64(nodes) {
				return fmt.Errorf("engine: checkpoint vehicle %d plan stop at node %d outside the graph", cv.ID, st.Node)
			}
		}
	}

	// ---- Rebuild the world.
	// The elastic-sharding plane comes first: pools and vehicles below
	// re-home through e.sh.shardOf, so when the checkpointing engine had
	// re-split, the identical weighted partition must stand before they do
	// (demandWeights is pure and deterministic, so the same PartDemand
	// vector rebuilds the same zones; a post-restore re-split then composes
	// exactly as it would have uncrashed).
	for i := range e.demand {
		e.demand[i] = 0
	}
	e.demandTotal = 0
	for _, d := range c.Demand {
		e.demand[d.Node] = d.N
		e.demandTotal += d.N
	}
	e.partDemand = nil
	if len(c.PartDemand) > 0 {
		part := make([]int64, e.g.NumNodes())
		for _, d := range c.PartDemand {
			part[d.Node] = d.N
		}
		e.partDemand = part
		sh := newSharderWeighted(e.g, e.cfg.Shards, demandWeights(part))
		sh.relabelToMatch(e.canonSh)
		e.sh = sh
	}
	e.lastResplitT = math.Inf(-1)
	if c.LastResplit != nil {
		e.lastResplitT = float64(*c.LastResplit)
	}
	e.shardEpoch.Store(c.ShardEpoch)
	if e.eo != nil {
		e.eo.gShardEpoch.Set(float64(c.ShardEpoch))
	}

	orders := make(map[int64]*model.Order, len(byID))
	for id, co := range byID {
		orders[id] = &model.Order{
			ID:         model.OrderID(co.ID),
			Restaurant: roadnet.NodeID(co.Restaurant),
			Customer:   roadnet.NodeID(co.Customer),
			PlacedAt:   float64(co.PlacedAt),
			Items:      co.Items,
			Prep:       float64(co.Prep),
			SDT:        float64(co.SDT),
			State:      model.OrderState(co.State),
			AssignedTo: model.VehicleID(co.AssignedTo),
			AssignedAt: float64(co.AssignedAt),
			PickedUpAt: float64(co.PickedUpAt),
		}
	}

	e.future = e.future[:0]
	for _, id := range c.Future {
		e.future = append(e.future, orders[id])
	}
	e.futureLen.Store(int64(len(e.future)))

	for _, s := range e.shards {
		s.pool = s.pool[:0]
		s.newOrders = s.newOrders[:0]
	}
	for _, id := range c.Pool {
		o := orders[id]
		s := e.shards[e.sh.shardOf(o.Restaurant)]
		s.pool = append(s.pool, o)
	}
	for _, s := range e.shards {
		s.poolLen.Store(int64(len(s.pool)))
	}

	maxLoad := e.cfg.Pipeline.MaxO + 1
	for i := range c.Vehicles {
		cv := &c.Vehicles[i]
		mo := e.byID[model.VehicleID(cv.ID)]
		v := mo.V
		v.Node = roadnet.NodeID(cv.Node)
		v.EdgeTo = roadnet.NodeID(cv.EdgeTo)
		v.EdgeProgress = float64(cv.EdgeProgress)
		v.ActiveFrom = float64(cv.ActiveFrom)
		v.ActiveTo = float64(cv.ActiveTo)
		v.DistM = float64(cv.DistM)
		v.WaitSec = float64(cv.WaitSec)
		v.DistByLoad = make([]float64, maxLoad)
		for li, d := range cv.DistByLoad {
			if li < maxLoad {
				v.DistByLoad[li] = float64(d)
			}
		}
		v.Onboard = nil
		for _, id := range cv.Onboard {
			v.Onboard = append(v.Onboard, orders[id])
		}
		v.Pending = nil
		for _, id := range cv.Pending {
			v.Pending = append(v.Pending, orders[id])
		}
		v.Plan = nil
		if len(cv.Plan) > 0 {
			plan := &model.RoutePlan{}
			for _, st := range cv.Plan {
				plan.Stops = append(plan.Stops, model.Stop{
					Node:  roadnet.NodeID(st.Node),
					Order: orders[st.Order],
					Kind:  model.StopKind(st.Kind),
				})
			}
			v.Plan = plan
		}
		ms := sim.MotionState{
			EdgeRemaining: float64(cv.Motion.EdgeRemaining),
			EdgeTotal:     float64(cv.Motion.EdgeTotal),
			EdgeLenM:      float64(cv.Motion.EdgeLenM),
			EdgeFrom:      roadnet.NodeID(cv.Motion.EdgeFrom),
			EdgeEnterT:    float64(cv.Motion.EdgeEnterT),
		}
		for _, n := range cv.Motion.Path {
			ms.Path = append(ms.Path, roadnet.NodeID(n))
		}
		if err := mo.ImportState(ms, e.g); err != nil {
			return err
		}
		// Re-home to the zone the restored node belongs to (the sharder is a
		// pure function of the graph, but the restoring engine may run a
		// different shard count than the checkpointing one).
		rt := e.rtByID[v.ID]
		if target := e.sh.shardOf(v.Node); target != int(rt.shard) {
			e.unhomeMotion(rt)
			e.homeMotion(rt, target)
		}
	}

	e.clock = float64(c.Clock)
	e.clockBits.Store(math.Float64bits(e.clock))
	e.slot = c.Slot
	e.pingHandoffs = c.PingHandoffs
	e.walOrderSeq = c.WALOrderSeq
	e.walPingSeq = c.WALPingSeq

	// No round has run (checked above), so adding the checkpointed totals
	// continues them — in the same counters /metrics.prom exposes.
	cc := &c.Counters
	tc := &e.totals
	tc.ingested.Add(cc.Ingested)
	tc.admitted.Add(cc.Admitted)
	tc.shedOrders.Add(cc.ShedOrders)
	tc.pingsIngested.Add(cc.PingsIngested)
	tc.shedPings.Add(cc.ShedPings)
	tc.assigned.Add(cc.Assigned)
	tc.reassigned.Add(cc.Reassigned)
	tc.rejected.Add(cc.Rejected)
	tc.handoffs.Add(cc.Handoffs)
	tc.vehHandoffs.Add(cc.VehHandoffs)
	tc.rounds.Add(cc.Rounds)
	tc.resplits.Add(cc.Resplits)
	tc.resplitMoves.Add(cc.ResplitMoves)
	tc.delivered.Add(cc.Delivered)
	tc.stranded.Add(cc.Stranded)
	e.statMu.Lock()
	e.stats = roundTotals{
		roundSecTotal: float64(cc.RoundSecTotal),
		roundSecMax:   float64(cc.RoundSecMax),
		simStart:      float64(cc.SimStart),
	}
	e.statMu.Unlock()
	if len(e.shards) > 0 {
		s0 := e.shards[0]
		s0.hookMu.Lock()
		s0.ledger.Delivered = int(cc.Delivered)
		s0.ledger.Stranded = int(cc.Stranded)
		s0.ledger.XDTSec = float64(cc.XDTSec)
		s0.ledger.WaitSec = float64(cc.WaitSec)
		s0.ledger.DistM = float64(cc.DistM)
		s0.hookMu.Unlock()
	}

	if e.dyn != nil {
		if c.Learner != nil {
			if err := e.dyn.learner.RestoreState(c.Learner); err != nil {
				return err
			}
		}
		e.dyn.mu.Lock()
		// Epoch floor: restored shards must never serve an epoch number a
		// pre-crash subscriber already saw paired with different weights.
		if c.Epoch > e.dyn.epoch {
			e.dyn.epoch = c.Epoch
		}
		if c.Learner != nil {
			e.publishWeightsLocked(e.clock)
		}
		e.dyn.mu.Unlock()
	}
	return nil
}

// ReplayWAL applies recovered write-ahead-log records to a restored engine:
// every record whose sequence lies past the checkpoint's drained high-water
// for its kind is re-delivered — orders into the future buffer (the next
// round admits them exactly as a live drain would), pings through the same
// relocation/shift logic as the drain, at the restored clock. Records at or
// below the high-waters are already reflected in the checkpoint and are
// skipped, which is what makes replay idempotent: replaying the same log
// twice is a no-op.
//
// Call after RestoreCheckpoint (or on a fresh engine with no checkpoint, in
// which case every record replays). Returns how many orders and pings were
// applied.
func (e *Engine) ReplayWAL(recs []wal.Record) (orders, pings int, err error) {
	e.roundMu.Lock()
	defer e.roundMu.Unlock()
	nodes := int64(e.g.NumNodes())
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case wal.KindOrder:
			if rec.Seq <= e.walOrderSeq {
				continue
			}
			or := rec.Order
			if or.Restaurant < 0 || or.Restaurant >= nodes || or.Customer < 0 || or.Customer >= nodes {
				return orders, pings, fmt.Errorf("engine: wal order %d (seq %d) has nodes outside the graph", or.ID, rec.Seq)
			}
			o := &model.Order{
				ID:         model.OrderID(or.ID),
				Restaurant: roadnet.NodeID(or.Restaurant),
				Customer:   roadnet.NodeID(or.Customer),
				PlacedAt:   or.PlacedAt,
				Items:      or.Items,
				Prep:       or.PrepSec,
				AssignedTo: -1,
			}
			if o.PlacedAt <= 0 {
				// The live drain would have stamped the round clock; the
				// restored clock is the closest consistent stand-in.
				o.PlacedAt = e.clock
			}
			e.future = append(e.future, o)
			e.walOrderSeq = rec.Seq
			orders++
			e.totals.ingested.Inc()
		case wal.KindPing:
			if rec.Seq <= e.walPingSeq {
				continue
			}
			pr := rec.Ping
			node := roadnet.NodeID(pr.Node)
			if node != roadnet.Invalid && (pr.Node < 0 || pr.Node >= nodes) {
				return orders, pings, fmt.Errorf("engine: wal ping for vehicle %d (seq %d) at node %d outside the graph", pr.Vehicle, rec.Seq, pr.Node)
			}
			p := vehiclePing{
				id:         model.VehicleID(pr.Vehicle),
				node:       node,
				activeFrom: math.NaN(),
				activeTo:   math.NaN(),
				seq:        rec.Seq,
			}
			if pr.ActiveFrom != nil {
				p.activeFrom = *pr.ActiveFrom
			}
			if pr.ActiveTo != nil {
				p.activeTo = *pr.ActiveTo
			}
			e.applyPing(p, e.clock)
			e.walPingSeq = rec.Seq
			pings++
			e.totals.pingsIngested.Inc()
		default:
			return orders, pings, fmt.Errorf("engine: wal record seq %d has unknown kind %q", rec.Seq, rec.Kind)
		}
	}
	// admitFuture relies on the buffer being sorted by placement time
	// between drains; replayed arrivals land at the tail.
	sort.SliceStable(e.future, func(i, j int) bool {
		return e.future[i].PlacedAt < e.future[j].PlacedAt
	})
	e.futureLen.Store(int64(len(e.future)))
	return orders, pings, nil
}
