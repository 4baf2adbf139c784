package gps

import (
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// StreamOptions tunes the streaming learner.
type StreamOptions struct {
	// Match configures the HMM matcher behind ObserveRaw (zero value =
	// DefaultMatchOptions).
	Match MatchOptions
	// ChunkSize is how many raw pings accumulate per vehicle before one
	// map-matching pass runs (0 = 12). Larger chunks give the Viterbi pass
	// more context; smaller chunks learn with less latency.
	ChunkSize int
	// MaxGapSec drops node-aligned observations further apart than this
	// (0 = 600): a vehicle silent for ten minutes did not necessarily drive
	// the shortest path between its pings.
	MaxGapSec float64
	// MaxHops bounds the interpolated path between two node-aligned
	// observations (0 = 16); longer routes are too ambiguous to attribute
	// per-edge times to.
	MaxHops int
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Match.CandidateRadiusM <= 0 {
		o.Match = DefaultMatchOptions()
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 12
	}
	if o.MaxGapSec <= 0 {
		o.MaxGapSec = 600
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 16
	}
	return o
}

// StreamStats is a point-in-time snapshot of learner throughput.
type StreamStats struct {
	// Pings counts every observation offered (edge, node and raw).
	Pings int64 `json:"pings"`
	// Samples counts (edge, slot) travel-time samples admitted.
	Samples int64 `json:"samples"`
	// Matched counts raw-chunk map-matching passes that succeeded; Unmatched
	// counts passes the HMM rejected.
	Matched   int64 `json:"matched"`
	Unmatched int64 `json:"unmatched"`
	// Dropped counts observations rejected at admission (non-finite time or
	// position, out-of-range node, over-gap pairs).
	Dropped int64 `json:"dropped"`
	// Edges / Cells describe the current estimate table.
	Edges int `json:"edges"`
	Cells int `json:"cells"`
}

// nodeObs is the last node-aligned observation of one vehicle.
type nodeObs struct {
	t    float64
	node roadnet.NodeID
}

// StreamLearner is the online form of the Section V-A weight pipeline: it
// ingests live vehicle observations — exact edge traversals from the
// engine's mover, node-snapped pings, or raw GPS positions that get HMM
// map-matched in chunks — and maintains per-edge per-slot travel-time
// estimates that can be published as a roadnet.SlotWeights table at any
// moment.
//
// All methods are safe for concurrent use: the engine's movement hooks fire
// from several worker goroutines and HTTP ping handlers from arbitrary
// ones, while the weight-publish loop reads estimates concurrently.
type StreamLearner struct {
	mu      sync.Mutex
	g       *roadnet.Graph
	opt     StreamOptions
	base    *SpeedLearner
	matcher *Matcher
	last    map[int64]nodeObs
	raw     map[int64][]Ping
	stats   StreamStats
}

// NewStreamLearner returns an empty streaming learner over g.
func NewStreamLearner(g *roadnet.Graph, opt StreamOptions) *StreamLearner {
	return &StreamLearner{
		g:    g,
		opt:  opt.withDefaults(),
		base: NewSpeedLearner(g),
		last: make(map[int64]nodeObs),
		raw:  make(map[int64][]Ping),
	}
}

// Graph returns the road network the learner observes.
func (l *StreamLearner) Graph() *roadnet.Graph { return l.g }

// ObserveEdge records one exact edge traversal: u→v entered at tEnter,
// taking sec seconds. This is the engine's movement plane — simulated
// vehicles traverse real edges, which is the in-process analogue of a
// perfectly map-matched GPS trail.
func (l *StreamLearner) ObserveEdge(u, v roadnet.NodeID, tEnter, sec float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Pings++
	if math.IsNaN(tEnter) || math.IsInf(tEnter, 0) || math.IsNaN(sec) || math.IsInf(sec, 0) {
		l.stats.Dropped++
		return
	}
	if n := l.base.ObserveDrive([]roadnet.NodeID{u, v}, []float64{tEnter, tEnter + sec}); n > 0 {
		l.stats.Samples += int64(n)
	} else {
		l.stats.Dropped++
	}
}

// ObserveNode records a node-snapped ping for a vehicle at simulation time
// t. Consecutive observations of the same vehicle are interpolated along
// the quickest path between the two nodes, the observed wall time spread
// proportionally over the path's modelled segment times — the standard
// trick for attributing a multi-edge gap to its constituent edges.
func (l *StreamLearner) ObserveNode(vid int64, t float64, node roadnet.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Pings++
	if math.IsNaN(t) || math.IsInf(t, 0) || node < 0 || int(node) >= l.g.NumNodes() {
		l.stats.Dropped++
		return
	}
	prev, ok := l.last[vid]
	l.last[vid] = nodeObs{t: t, node: node}
	if !ok || node == prev.node {
		return
	}
	dt := t - prev.t
	if dt <= 0 || dt > l.opt.MaxGapSec {
		l.stats.Dropped++
		return
	}
	p := roadnet.Path(l.g, prev.node, node, prev.t)
	if p == nil || len(p.Nodes) < 2 || len(p.Nodes)-1 > l.opt.MaxHops {
		l.stats.Dropped++
		return
	}
	modelled := p.Times[len(p.Times)-1] - p.Times[0]
	if modelled <= 0 {
		l.stats.Dropped++
		return
	}
	// Re-time the path so its total equals the observed gap.
	scale := dt / modelled
	times := make([]float64, len(p.Times))
	for i := range times {
		times[i] = prev.t + (p.Times[i]-p.Times[0])*scale
	}
	if n := l.base.ObserveDrive(p.Nodes, times); n > 0 {
		l.stats.Samples += int64(n)
	}
}

// ObserveRaw buffers a raw GPS position for a vehicle; every ChunkSize
// pings the buffered trail is HMM map-matched (Newson–Krumm) and the
// matched trajectory, re-timed by the ping timestamps, feeds the estimate
// table. This is the path real driver GPS takes in the paper's pipeline.
func (l *StreamLearner) ObserveRaw(vid int64, t float64, pos geo.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Pings++
	if math.IsNaN(t) || math.IsInf(t, 0) ||
		math.IsNaN(pos.Lat) || math.IsInf(pos.Lat, 0) ||
		math.IsNaN(pos.Lon) || math.IsInf(pos.Lon, 0) {
		l.stats.Dropped++
		return
	}
	buf := l.raw[vid]
	if n := len(buf); n > 0 {
		if t == buf[n-1].T {
			// Duplicate timestamp (clients stamped with a round-quantized
			// clock send these routinely): skip the ping, keep the trail.
			l.stats.Dropped++
			return
		}
		if t < buf[n-1].T {
			// Genuinely out-of-order: restart the trail rather than feed
			// the HMM a non-monotonic sequence.
			buf = buf[:0]
			l.stats.Dropped++
		}
	}
	buf = append(buf, Ping{T: t, Pos: pos})
	if len(buf) < l.opt.ChunkSize {
		l.raw[vid] = buf
		return
	}
	if l.matcher == nil {
		l.matcher = NewMatcher(l.g, l.opt.Match)
	}
	matched, ok := l.matcher.Match(buf)
	if ok {
		l.stats.Matched++
		times := make([]float64, len(buf))
		for i := range buf {
			times[i] = buf[i].T
		}
		if n := l.base.ObserveDrive(matched, times); n > 0 {
			l.stats.Samples += int64(n)
		}
	} else {
		l.stats.Unmatched++
	}
	// Keep the last ping so the next chunk's trail is continuous.
	l.raw[vid] = append(buf[:0], buf[len(buf)-1])
}

// Weights exports the current estimates as a publishable SlotWeights table
// (cells with fewer than minSamples observations are withheld).
func (l *StreamLearner) Weights(minSamples int) *roadnet.SlotWeights {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Weights(minSamples)
}

// WeightsDirty atomically takes the dirty set accumulated since the last
// WeightsDirty/WeightsFull call (or learner creation) together with the
// complete current rows of every dirty edge — the O(changed) delta the
// engine feeds to Graph.PatchReweighted. Cells below minSamples are
// withheld exactly like Weights; a withheld cell is re-marked dirty by the
// very sample that tips it over the floor, so nothing is ever lost between
// publishes.
func (l *StreamLearner) WeightsDirty(minSamples int) (*roadnet.SlotWeights, *roadnet.DirtyCells) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.base.TakeDirty()
	return l.base.WeightsForDirty(minSamples, d), d
}

// DirtyCells reports how many (edge, slot) cells have been touched since
// the last WeightsDirty/WeightsFull take — the cheap "is there anything to
// publish?" probe the engine's periodic refresh uses to skip weight-
// identical epochs.
func (l *StreamLearner) DirtyCells() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.DirtyCellCount()
}

// WeightsFull atomically exports the full admissible table AND resets the
// dirty set — the publish that starts an incremental patch chain (the
// engine's first epoch).
func (l *StreamLearner) WeightsFull(minSamples int) *roadnet.SlotWeights {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base.TakeDirty()
	return l.base.Weights(minSamples)
}

// Samples returns the observation count for one edge and slot.
func (l *StreamLearner) Samples(u, v roadnet.NodeID, slot int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base.Samples(u, v, slot)
}

// Stats snapshots learner throughput, including the current table size.
func (l *StreamLearner) Stats() StreamStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Edges = l.base.ObservedEdges()
	s.Cells = l.base.ObservedCells()
	return s
}
