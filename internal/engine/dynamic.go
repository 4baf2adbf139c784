package engine

import (
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/gps"
	"repro/internal/roadnet"
)

// ErrStaticRoadnet is returned by RestoreCheckpoint when the checkpoint
// carries learner state but the engine runs without a learner.
var ErrStaticRoadnet = errors.New("engine: static road network (no learner configured)")

// dynamicState is the engine side of the live traffic plane: bookkeeping
// for the periodic weight publishes that turn the streaming learner's
// estimates into router epochs. Epochs are minted only under roundMu — at
// the round's handoff barrier and by RestoreCheckpoint — so a round's
// shards always see the epoch its barrier left; the mutex lets the metrics
// plane (Snapshot, Roadnet, CheckpointState) read it without waiting out a
// round.
type dynamicState struct {
	learner    *gps.StreamLearner
	refresh    float64
	minSamples int

	mu           sync.Mutex
	epoch        uint64
	lastT        float64 // sim clock of the last publish attempt
	learnedEdges int
	learnedCells int
	// lastGraph / lastW anchor the incremental publish chain: the graph of
	// the newest epoch and the cumulative SlotWeights table it serves. Nil
	// until the first publish, which must be a full rebuild.
	lastGraph *roadnet.Graph
	lastW     *roadnet.SlotWeights
}

// maybeRefreshWeights publishes a new weight epoch when the refresh period
// has elapsed; called once per round with the round clock, under roundMu.
// Returns the publish's wall-clock cost (0 when nothing was published) —
// the handoff barrier's "publish" span child.
func (e *Engine) maybeRefreshWeights(now float64) float64 {
	if e.dyn == nil {
		return 0
	}
	e.dyn.mu.Lock()
	defer e.dyn.mu.Unlock()
	if now-e.dyn.lastT < e.dyn.refresh {
		return 0
	}
	start := time.Now()
	if !e.publishWeightsLocked(now) {
		return 0
	}
	return time.Since(start).Seconds()
}

// publishWeightsLocked materialises the learner's current estimates over
// the decision graph and swaps every zone shard onto the new epoch. Called
// with roundMu and dyn.mu held. Reports whether an epoch was published:
// nothing is while the learner has no cell above the sample floor, nor
// when the epoch would be weight-identical to the served one — routers
// should not cold-rebuild for zero change.
//
// Only the first epoch pays a full O(|E|·slots) Reweighted. Every later
// publish takes the learner's dirty set — the cells touched since the
// previous publish — and patches the previous epoch's graph, copying only
// the touched slot rows and sharing everything else, so steady-state
// publish cost scales with how much the city actually changed.
func (e *Engine) publishWeightsLocked(now float64) bool {
	d := e.dyn
	d.lastT = now
	start := time.Now()

	var (
		g2      *roadnet.Graph
		patched bool
		dirtyN  int
	)
	if d.lastGraph != nil {
		delta, dirty := d.learner.WeightsDirty(d.minSamples)
		dirtyN = dirty.Cells()
		if dirtyN == 0 || deltaMatchesPublished(delta, dirty, d.lastW) {
			// Nothing touched, or every touched cell is either still below
			// the sample floor or left its published mean unchanged — the
			// patch would be an identity (withheld cells re-mark themselves
			// dirty on the sample that tips them over).
			return false
		}
		var err error
		if g2, err = e.decG.PatchReweighted(d.lastGraph, delta, dirty); err == nil {
			patched = true
			// Fold the delta rows into the cumulative table so the
			// learned-cell provenance stays exact at O(dirty) cost.
			dirty.Range(func(u, v roadnet.NodeID, _ uint32) {
				if row, ok := delta.Row(u, v); ok {
					_ = d.lastW.PutRow(u, v, row)
				}
			})
		}
	}
	if !patched {
		// The first epoch (or, defensively, a chain anchor gone stale):
		// full table, full rebuild.
		w := d.learner.WeightsFull(d.minSamples)
		if w.Cells() == 0 {
			return false
		}
		g2 = e.decG.Reweighted(w)
		d.lastW = w
	}
	d.lastGraph = g2
	d.epoch++
	snap := roadnet.Snapshot{
		Epoch:        d.epoch,
		Graph:        g2,
		LearnedEdges: d.lastW.Edges(),
		LearnedCells: d.lastW.Cells(),
		PublishedAt:  now,
		Patched:      patched,
		DirtyCells:   dirtyN,
	}
	for _, sr := range e.shards {
		sr.router.Publish(snap)
	}
	if patched {
		e.totals.publishesPatched.Inc()
	} else {
		e.totals.publishesFull.Inc()
	}
	d.learnedEdges = d.lastW.Edges()
	d.learnedCells = d.lastW.Cells()
	if eo := e.eo; eo != nil {
		dur := time.Since(start).Seconds()
		if patched {
			eo.pubPatched.Observe(dur)
		} else {
			eo.pubFull.Observe(dur)
		}
		eo.gEpoch.Set(float64(d.epoch))
	}
	return true
}

// deltaMatchesPublished reports whether every dirty edge's delta row is
// identical to its row in the cumulative published table — i.e. the patch
// would change nothing a router can observe. O(dirty) row compares.
func deltaMatchesPublished(delta *roadnet.SlotWeights, dirty *roadnet.DirtyCells, published *roadnet.SlotWeights) bool {
	same := true
	dirty.Range(func(u, v roadnet.NodeID, _ uint32) {
		if !same {
			return
		}
		dRow, dOK := delta.Row(u, v)
		pRow, pOK := published.Row(u, v)
		if dOK != pOK || dRow != pRow {
			same = false
		}
	})
	return same
}

// currentEpoch reports the weight epoch the engine currently serves (0 for
// a static road network).
func (e *Engine) currentEpoch() uint64 {
	if e.dyn == nil {
		return 0
	}
	e.dyn.mu.Lock()
	defer e.dyn.mu.Unlock()
	return e.dyn.epoch
}

// RoadnetStatus is a point-in-time view of the dynamic road network plane,
// served by foodmatchd's GET /roadnet.
type RoadnetStatus struct {
	// Dynamic reports whether a learner is attached; a static engine
	// serves epoch 0 forever.
	Dynamic bool `json:"dynamic"`
	// Epoch is the current weight epoch; Slot the current hourly slot.
	Epoch uint64  `json:"epoch"`
	Slot  int     `json:"slot"`
	Clock float64 `json:"clock"`
	// LearnedEdges / LearnedCells describe the last published epoch.
	LearnedEdges int `json:"learned_edges"`
	LearnedCells int `json:"learned_cells"`
	// Publishes counts epochs ever published; PatchedPublishes how many of
	// them went through the incremental O(dirty) patch path rather than a
	// full O(|E|·slots) rebuild. LastPublish is the sim clock of the most
	// recent publish attempt (-1 before the first).
	Publishes        int64   `json:"publishes"`
	PatchedPublishes int64   `json:"patched_publishes"`
	LastPublish      float64 `json:"last_publish"`
	RefreshSec       float64 `json:"refresh_sec"`
	MinSamples       int     `json:"min_samples"`
	// ShardEpoch counts demand-driven re-splits of the zone sharder since
	// boot (0 = the initial node-balanced KD split is still live); Resplits
	// is the same event as a monotone counter, and ResplitSec the configured
	// cadence (0 = elastic re-splitting disabled). Sharding is a property of
	// the decision plane, not the learner, so these are populated for static
	// engines too.
	ShardEpoch uint64  `json:"shard_epoch"`
	Resplits   int64   `json:"resplits"`
	ResplitSec float64 `json:"resplit_sec"`
	// Learner is the streaming learner's throughput (nil when static).
	Learner *gps.StreamStats `json:"learner,omitempty"`
	// Router names the active shortest-path backend kind serving shard 0's
	// current epoch ("bounded", "dijkstra", "hublabel", "cch", …).
	Router string `json:"router"`
	// Metric carries the backend's customization counters when the backend
	// tracks them (the CCH router: full vs incremental re-customizations).
	Metric *roadnet.MetricStats `json:"metric,omitempty"`
}

// metricStatser unwraps decorator layers (timedRouter et al.) until it finds
// a backend reporting customization stats.
func metricStatser(r roadnet.Router) (roadnet.MetricStatser, bool) {
	for {
		if ms, ok := r.(roadnet.MetricStatser); ok {
			return ms, true
		}
		u, ok := r.(interface{ Unwrap() roadnet.Router })
		if !ok {
			return nil, false
		}
		r = u.Unwrap()
	}
}

// Roadnet snapshots the dynamic road network plane. Safe to call from any
// goroutine, concurrently with rounds.
func (e *Engine) Roadnet() RoadnetStatus {
	clock := math.Float64frombits(e.clockBits.Load())
	st := RoadnetStatus{
		Clock:      clock,
		Slot:       roadnet.Slot(clock),
		ShardEpoch: e.shardEpoch.Load(),
		Resplits:   e.totals.resplits.Value(),
		ResplitSec: e.cfg.ResplitSec,
	}
	if len(e.shards) > 0 {
		_, r := e.shards[0].router.Acquire()
		st.Router = routerKind(r)
		if ms, ok := metricStatser(r); ok {
			m := ms.MetricStats()
			st.Metric = &m
		}
	}
	if e.dyn == nil {
		return st
	}
	e.dyn.mu.Lock()
	st.Dynamic = true
	st.Epoch = e.dyn.epoch
	st.LearnedEdges = e.dyn.learnedEdges
	st.LearnedCells = e.dyn.learnedCells
	st.PatchedPublishes = e.totals.publishesPatched.Value()
	st.Publishes = e.totals.publishesFull.Value() + st.PatchedPublishes
	st.LastPublish = e.dyn.lastT
	if math.IsInf(st.LastPublish, -1) {
		st.LastPublish = -1 // lastT's internal sentinel is not JSON-encodable
	}
	st.RefreshSec = e.dyn.refresh
	st.MinSamples = e.dyn.minSamples
	e.dyn.mu.Unlock()
	ls := e.dyn.learner.Stats()
	st.Learner = &ls
	return st
}
