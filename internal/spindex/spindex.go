// Package spindex implements a pruned landmark labeling (PLL) index for
// exact point-to-point shortest-path distance queries on a road network.
//
// The paper indexes shortest-path queries with hierarchical hub labeling
// (Delling et al. [18]); PLL is the standard openly reproducible member of
// the same family: both compute, for every node v, a label L(v) of
// (hub, distance) pairs such that every shortest path u→w is "covered" by a
// hub appearing in both L(u) and L(w), making a distance query a linear merge
// of two sorted labels.
//
// Edge weights in the road network are time-dependent per hourly slot but
// static *within* a slot, so the index is built per slot — lazily, since a
// simulation rarely touches all 24 profiles. Directed graphs need two labels
// per node: a forward label (distances from hubs reached by forward edges)
// and a backward label.
package spindex

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/roadnet"
)

// labelEntry is one (hub, distance) pair. The hub is stored by its *rank*
// in the processing order: hubs are processed rank-ascending, so appends keep
// every label sorted by rank and queries are a sorted-merge with no explicit
// sort step.
type labelEntry struct {
	hubRank int32
	dist    float32
}

// slotIndex is the PLL structure for a single time slot.
type slotIndex struct {
	fwd [][]labelEntry // fwd[v]: hubs h with dist(h → v)
	bwd [][]labelEntry // bwd[v]: hubs h with dist(v → h)
}

// Index answers exact SP(u,v,t) queries against a fixed Graph. Slot indexes
// are built lazily on first use and cached; concurrent queries are safe.
// Queries against an already-built slot are lock-free (one atomic load), so
// a long build of one slot never stalls queries in another — the property
// AsyncRouter's fallback-while-building design rests on. Builds themselves
// serialise on a mutex.
type Index struct {
	g     *roadnet.Graph
	order []roadnet.NodeID // vertex processing order (importance-descending)

	mu    sync.Mutex // serialises builds
	slots [roadnet.SlotsPerDay]atomic.Pointer[slotIndex]
}

// New prepares an index for g. No labels are built until the first query;
// use BuildSlot to pre-build.
func New(g *roadnet.Graph) *Index {
	n := g.NumNodes()
	// Order vertices by degree (in+out) descending — the classic PLL
	// heuristic: high-degree "hub-like" vertices first keeps labels small.
	order := make([]roadnet.NodeID, n)
	for i := range order {
		order[i] = roadnet.NodeID(i)
	}
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = len(g.OutEdges(roadnet.NodeID(i))) + len(g.InEdges(roadnet.NodeID(i)))
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := deg[order[a]], deg[order[b]]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return &Index{g: g, order: order}
}

// BuildSlot constructs (or returns the cached) index for one hourly slot.
func (ix *Index) BuildSlot(slot int) {
	ix.slotIndex(slot)
}

func (ix *Index) slotIndex(slot int) *slotIndex {
	if si := ix.slots[slot].Load(); si != nil {
		return si
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if si := ix.slots[slot].Load(); si != nil {
		return si
	}
	si := ix.build(slot)
	ix.slots[slot].Store(si)
	return si
}

// build runs pruned forward+backward Dijkstras from each vertex in order.
// For directed graphs, a forward search from hub h adds (h, d) to fwd labels
// of reached vertices (h can reach them); a backward search adds to bwd
// labels (they can reach h).
func (ix *Index) build(slot int) *slotIndex {
	n := ix.g.NumNodes()
	si := &slotIndex{
		fwd: make([][]labelEntry, n),
		bwd: make([][]labelEntry, n),
	}
	dist := make([]float64, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	// rank[v] = position of v in the processing order; used for pruning by
	// hub priority.
	rank := make([]int, n)
	for i, v := range ix.order {
		rank[v] = i
	}

	type outFn func(roadnet.NodeID) []roadnet.Edge
	prunedDijkstra := func(h roadnet.NodeID, adj outFn, addTo [][]labelEntry, queryOther func(a, b roadnet.NodeID) float64) {
		var heap nodeHeap
		var touched []roadnet.NodeID
		dist[h] = 0
		touched = append(touched, h)
		heap.push(h, 0)
		for !heap.empty() {
			u, du := heap.pop()
			if settled[u] {
				continue
			}
			settled[u] = true
			// Prune: if an existing label pair already certifies a distance
			// ≤ du via a more important hub, u (and everything behind it)
			// does not need hub h.
			if queryOther(h, u) <= du {
				continue
			}
			addTo[u] = append(addTo[u], labelEntry{hubRank: int32(rank[h]), dist: float32(du)})
			for _, e := range adj(u) {
				if settled[e.To] || rank[e.To] < rank[h] {
					// Vertices more important than h already have their own
					// hub labels; do not route through them.
					continue
				}
				nd := du + ix.g.EdgeTimeSlot(e, slot)
				if nd < dist[e.To] {
					if math.IsInf(dist[e.To], 1) {
						touched = append(touched, e.To)
					}
					dist[e.To] = nd
					heap.push(e.To, nd)
				}
			}
		}
		for _, v := range touched {
			dist[v] = math.Inf(1)
			settled[v] = false
		}
	}

	queryFwd := func(h, u roadnet.NodeID) float64 { // dist h→u via existing labels
		return mergeQuery(si.bwd[h], si.fwd[u])
	}
	queryBwd := func(h, u roadnet.NodeID) float64 { // dist u→h via existing labels
		return mergeQuery(si.bwd[u], si.fwd[h])
	}

	for _, h := range ix.order {
		// Forward search: distances from h; populates fwd labels.
		prunedDijkstra(h, ix.g.OutEdges, si.fwd, queryFwd)
		// Backward search: distances to h; populates bwd labels.
		prunedDijkstra(h, ix.g.InEdges, si.bwd, queryBwd)
	}
	return si
}

// mergeQuery returns min over common hubs of bwdU.dist + fwdV.dist: the
// length of the best u→hub→v path certified by the labels. Labels are sorted
// by hub rank by construction.
func mergeQuery(bwdU, fwdV []labelEntry) float64 {
	best := math.Inf(1)
	i, j := 0, 0
	for i < len(bwdU) && j < len(fwdV) {
		switch {
		case bwdU[i].hubRank == fwdV[j].hubRank:
			if d := float64(bwdU[i].dist) + float64(fwdV[j].dist); d < best {
				best = d
			}
			i++
			j++
		case bwdU[i].hubRank < fwdV[j].hubRank:
			i++
		default:
			j++
		}
	}
	return best
}

// Travel implements roadnet.Router: the exact SP(from, to, t) for the slot
// containing t, or +Inf if `to` is unreachable. The index is the hub-label
// backend, safe for concurrent use (slot builds are internally
// synchronised).
func (ix *Index) Travel(from, to roadnet.NodeID, t float64) float64 {
	if from == to {
		return 0
	}
	si := ix.slotIndex(roadnet.Slot(t))
	return mergeQuery(si.bwd[from], si.fwd[to])
}

// TravelMany implements roadnet.ManyRouter: one slot-index load and one
// backward-label fetch serve the entire target set.
func (ix *Index) TravelMany(from roadnet.NodeID, targets []roadnet.NodeID, t float64) []float64 {
	out := make([]float64, len(targets))
	if len(targets) == 0 {
		return out
	}
	si := ix.slotIndex(roadnet.Slot(t))
	bwd := si.bwd[from]
	for i, to := range targets {
		if to == from {
			out[i] = 0
			continue
		}
		out[i] = mergeQuery(bwd, si.fwd[to])
	}
	return out
}

var (
	_ roadnet.Router     = (*Index)(nil)
	_ roadnet.ManyRouter = (*Index)(nil)
)

// LabelStats reports the average and maximum label size for a built slot —
// the usual quality measure of a hub labeling.
func (ix *Index) LabelStats(slot int) (avg float64, max int) {
	si := ix.slotIndex(slot)
	total := 0
	for v := range si.fwd {
		s := len(si.fwd[v]) + len(si.bwd[v])
		total += s
		if s > max {
			max = s
		}
	}
	if len(si.fwd) > 0 {
		avg = float64(total) / float64(len(si.fwd))
	}
	return avg, max
}

// nodeHeap is a local binary min-heap (same layout as roadnet's, duplicated
// to keep the packages decoupled and the hot loop monomorphic).
type nodeHeap struct {
	node []roadnet.NodeID
	dist []float64
}

func (h *nodeHeap) push(u roadnet.NodeID, d float64) {
	h.node = append(h.node, u)
	h.dist = append(h.dist, d)
	i := len(h.node) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.dist[p] <= h.dist[i] {
			break
		}
		h.node[p], h.node[i] = h.node[i], h.node[p]
		h.dist[p], h.dist[i] = h.dist[i], h.dist[p]
		i = p
	}
}

func (h *nodeHeap) pop() (roadnet.NodeID, float64) {
	u, d := h.node[0], h.dist[0]
	last := len(h.node) - 1
	h.node[0], h.dist[0] = h.node[last], h.dist[last]
	h.node = h.node[:last]
	h.dist = h.dist[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.dist[l] < h.dist[s] {
			s = l
		}
		if r < last && h.dist[r] < h.dist[s] {
			s = r
		}
		if s == i {
			break
		}
		h.node[i], h.node[s] = h.node[s], h.node[i]
		h.dist[i], h.dist[s] = h.dist[s], h.dist[i]
		i = s
	}
	return u, d
}

func (h *nodeHeap) empty() bool { return len(h.node) == 0 }
