// Package roadnet implements the time-dependent road network of Definition 1:
// a weighted directed graph G = (V, E, β) whose edge weight β(e,t) is the
// traversal time of the road segment e at time-of-day t. Weights are resolved
// through 24 one-hour slots, mirroring the paper's per-slot averaging of
// Swiggy GPS pings.
//
// The package also provides the shortest-path machinery the rest of the
// pipeline is built on: a plain time-sliced Dijkstra (with path extraction,
// used when vehicles physically move), a bounded single-source engine with
// epoch-stamped scratch arrays, and a per-window distance cache that memoises
// source expansions so that marginal-cost computation performs each
// single-source search at most once.
package roadnet

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geo"
)

// NodeID identifies a node (road intersection) in a Graph.
type NodeID int32

// Invalid is the sentinel for "no node".
const Invalid NodeID = -1

// SlotsPerDay is the number of time slots used for time-dependent weights;
// one per hour, per Section V-A.
const SlotsPerDay = 24

// SecondsPerDay is the length of one simulated day.
const SecondsPerDay = 86_400.0

// Slot maps a simulation time (seconds since midnight) to an hourly slot.
func Slot(t float64) int {
	s := int(math.Floor(t/3600)) % SlotsPerDay
	if s < 0 {
		s += SlotsPerDay
	}
	return s
}

// Edge is a directed road segment as seen through the adjacency lists.
type Edge struct {
	To      NodeID
	LenM    float32 // segment length in metres
	BaseSec float32 // free-flow traversal time in seconds
	Zone    uint32  // congestion zone selecting the slot multiplier row
}

// Graph is a compact (CSR) directed road network. Construct with
// NewBuilder/Build; a built Graph is immutable and safe for concurrent reads.
type Graph struct {
	pts  []geo.Point
	off  []int32 // out-edge offsets, len = n+1
	edg  []Edge  // out-edges, len = m
	roff []int32 // in-edge offsets (reverse graph), len = n+1
	redg []Edge  // in-edges; Edge.To holds the *source* of the original edge

	// zoneMult[zone][slot] is the congestion multiplier applied to BaseSec.
	// Rows are pointers so derived graphs (Reweighted / PatchReweighted)
	// share untouched rows with their predecessor: an incremental weight
	// publish copies the row-pointer spine and replaces only dirty rows.
	zoneMult []*[SlotsPerDay]float64

	// slotSec, when non-nil, switches the graph to dense weight mode: β is
	// read directly from slotSec[edgeIndex*SlotsPerDay+slot] (each Edge.Zone
	// then holds the edge's own index) instead of BaseSec×zone multiplier.
	// This is the compact edge-indexed layout learned graphs use — one
	// float32 per (edge, slot) cell rather than a dedicated 24-float64 zone
	// row per edge.
	slotSec []float32

	// maxBeta[slot] caches max_e β(e, slot), the normaliser of Eq. 8;
	// maxBetaEdge[slot] remembers an edge index attaining it, which is what
	// lets PatchReweighted keep the maxima exact without a full rescan.
	maxBeta     [SlotsPerDay]float64
	maxBetaEdge [SlotsPerDay]int32

	// rwBase is the graph Reweighted/PatchReweighted derived this one from
	// (nil for a built or scaled graph): the prior that unset weight cells
	// fall back to, and the anchor PatchReweighted validates against.
	rwBase *Graph

	// gid lazily assigns a process-unique identity (see ID). patchPrevGID
	// and patchDirty record PatchReweighted provenance by that identity —
	// an ID rather than a *Graph so a provenance record never pins the whole
	// chain of predecessor epochs in memory.
	gid          atomic.Uint64
	patchPrevGID uint64
	patchDirty   *DirtyCells
}

// graphIDSeq mints process-unique graph identities; 0 is reserved for
// "not yet assigned".
var graphIDSeq atomic.Uint64

// ID returns a process-unique identity for this graph value, assigned
// lazily on first call. Safe for concurrent use.
func (g *Graph) ID() uint64 {
	if id := g.gid.Load(); id != 0 {
		return id
	}
	g.gid.CompareAndSwap(0, graphIDSeq.Add(1))
	return g.gid.Load()
}

// PatchProvenance reports how this graph was derived when it came from
// PatchReweighted: the ID() of the epoch graph it patched and the dirty
// set the patch consumed. ok is false for built, scaled or fully
// reweighted graphs. Incremental router customization (the CCH backend)
// keys on this to re-customize only the touched cells — the routing
// analogue of the patch itself.
func (g *Graph) PatchProvenance() (prevID uint64, dirty *DirtyCells, ok bool) {
	if g.patchPrevGID == 0 {
		return 0, nil, false
	}
	return g.patchPrevGID, g.patchDirty, true
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edg) }

// Point returns the coordinate of node u.
func (g *Graph) Point(u NodeID) geo.Point { return g.pts[u] }

// OutEdges returns the out-adjacency slice of u. The slice aliases internal
// storage and must not be mutated.
func (g *Graph) OutEdges(u NodeID) []Edge {
	return g.edg[g.off[u]:g.off[u+1]]
}

// InEdges returns the in-adjacency of u; each Edge.To is the source node of
// an edge pointing at u, with that edge's length/time attributes.
func (g *Graph) InEdges(u NodeID) []Edge {
	return g.redg[g.roff[u]:g.roff[u+1]]
}

// EdgeTime returns β(e,t) in seconds for edge e entered at time t.
func (g *Graph) EdgeTime(e Edge, t float64) float64 {
	return g.EdgeTimeSlot(e, Slot(t))
}

// EdgeTimeSlot returns β(e,·) for an explicit slot.
func (g *Graph) EdgeTimeSlot(e Edge, slot int) float64 {
	if g.slotSec != nil {
		return float64(g.slotSec[int(e.Zone)*SlotsPerDay+slot])
	}
	return float64(e.BaseSec) * g.zoneMult[e.Zone][slot]
}

// MaxBeta returns max over all edges of β(e,t) for the slot containing t,
// the normalising denominator of the vehicle-sensitive weight (Eq. 8).
func (g *Graph) MaxBeta(t float64) float64 { return g.maxBeta[Slot(t)] }

// ZoneMultiplier returns the congestion multiplier for a zone and slot.
func (g *Graph) ZoneMultiplier(zone uint32, slot int) float64 {
	return g.zoneMult[zone][slot]
}

// OutEdgeOffset returns the index of u's first out-edge in the graph's edge
// numbering: the edge OutEdges(u)[i] has index OutEdgeOffset(u)+i. Edge
// indices are stable for the life of the graph and shared by every derived
// graph (Reweighted, dense learned graphs), which is what dense edge-indexed
// tables key on.
func (g *Graph) OutEdgeOffset(u NodeID) int { return int(g.off[u]) }

// EdgeIndexOf returns the index of the first edge u→v (parallel edges share
// their leading index when aggregating per (u, v) pair), or -1 when no such
// edge exists.
func (g *Graph) EdgeIndexOf(u, v NodeID) int {
	if u < 0 || int(u) >= len(g.pts) {
		return -1
	}
	base := int(g.off[u])
	for i, e := range g.edg[g.off[u]:g.off[u+1]] {
		if e.To == v {
			return base + i
		}
	}
	return -1
}

// recomputeMaxBeta rebuilds the per-slot β maxima (and the edge attaining
// each) with one full scan.
func (g *Graph) recomputeMaxBeta() {
	for slot := 0; slot < SlotsPerDay; slot++ {
		g.recomputeMaxBetaSlot(slot)
	}
}

func (g *Graph) recomputeMaxBetaSlot(slot int) {
	mx, arg := 0.0, int32(-1)
	for i := range g.edg {
		if bt := g.EdgeTimeSlot(g.edg[i], slot); bt > mx {
			mx, arg = bt, int32(i)
		}
	}
	if mx == 0 {
		mx = 1 // empty graph; avoid division by zero in Eq. 8
	}
	g.maxBeta[slot] = mx
	g.maxBetaEdge[slot] = arg
}

// NearestNode returns the node closest (haversine) to p. The paper
// approximates off-network vehicle positions to the closest road node; this
// is that operation. Linear scan — callers that need many lookups should use
// the workload package's grid index instead.
func (g *Graph) NearestNode(p geo.Point) NodeID {
	best := Invalid
	bestD := math.Inf(1)
	for i := range g.pts {
		if d := geo.Haversine(p, g.pts[i]); d < bestD {
			bestD = d
			best = NodeID(i)
		}
	}
	return best
}

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder struct {
	pts   []geo.Point
	from  []NodeID
	edges []Edge
	zones [][SlotsPerDay]float64
}

// NewBuilder returns a Builder with a single identity congestion zone
// (multiplier 1.0 in every slot); add more with AddZone.
func NewBuilder() *Builder {
	b := &Builder{}
	var ident [SlotsPerDay]float64
	for i := range ident {
		ident[i] = 1
	}
	b.zones = append(b.zones, ident)
	return b
}

// AddNode appends a node and returns its id.
func (b *Builder) AddNode(p geo.Point) NodeID {
	b.pts = append(b.pts, p)
	return NodeID(len(b.pts) - 1)
}

// AddZone registers a congestion-multiplier row and returns its zone id.
// Zone ids are 32-bit so per-edge congestion profiles (one zone per edge, as
// the GPS speed learner produces) fit on city-scale graphs.
func (b *Builder) AddZone(mult [SlotsPerDay]float64) uint32 {
	b.zones = append(b.zones, mult)
	return uint32(len(b.zones) - 1)
}

// AddEdge appends a directed edge from u to v.
func (b *Builder) AddEdge(u, v NodeID, lenM, baseSec float64, zone uint32) {
	b.from = append(b.from, u)
	b.edges = append(b.edges, Edge{To: v, LenM: float32(lenM), BaseSec: float32(baseSec), Zone: zone})
}

// Build finalises the graph. It validates ids and zone references and
// computes the CSR layout plus per-slot β maxima.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.pts)
	m := len(b.edges)
	for i, u := range b.from {
		v := b.edges[i].To
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("roadnet: edge %d references invalid node (%d -> %d, n=%d)", i, u, v, n)
		}
		if int(b.edges[i].Zone) >= len(b.zones) {
			return nil, fmt.Errorf("roadnet: edge %d references unknown zone %d", i, b.edges[i].Zone)
		}
		if b.edges[i].BaseSec <= 0 {
			return nil, fmt.Errorf("roadnet: edge %d has non-positive traversal time", i)
		}
	}

	g := &Graph{
		pts:      b.pts,
		zoneMult: make([]*[SlotsPerDay]float64, len(b.zones)),
	}
	for z := range b.zones {
		row := b.zones[z]
		g.zoneMult[z] = &row
	}

	// Forward CSR.
	g.off = make([]int32, n+1)
	for _, u := range b.from {
		g.off[u+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.edg = make([]Edge, m)
	cursor := make([]int32, n)
	for i, u := range b.from {
		g.edg[g.off[u]+cursor[u]] = b.edges[i]
		cursor[u]++
	}

	// Reverse CSR.
	g.roff = make([]int32, n+1)
	for i := range b.edges {
		g.roff[b.edges[i].To+1]++
	}
	for i := 0; i < n; i++ {
		g.roff[i+1] += g.roff[i]
	}
	g.redg = make([]Edge, m)
	rcursor := make([]int32, n)
	for i, u := range b.from {
		e := b.edges[i]
		v := e.To
		rev := e
		rev.To = u
		g.redg[g.roff[v]+rcursor[v]] = rev
		rcursor[v]++
	}

	g.recomputeMaxBeta()
	return g, nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// input is known valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
