package roadnet

// DistCache memoises bounded single-source expansions within one
// accumulation window. Both batching (restaurant-to-restaurant and
// restaurant-to-customer queries) and FoodGraph construction
// (vehicle-to-restaurant queries) issue many queries that share a source
// node and a time slot; the cache runs the single-source search once per
// (source, slot) and answers every subsequent query in O(1).
//
// Distances returned are travel times in seconds in the weight profile of
// the slot; sources expanded past the bound report +Inf for unreached
// targets, which callers translate into the rejection penalty Ω.
//
// A DistCache is not safe for concurrent use.
type DistCache struct {
	g      *Graph
	engine *SSSP
	bound  float64
	// entries[slot] maps source -> dense distance slice (len = n).
	entries map[int]map[NodeID][]float64
	// Stats.
	hits, misses int64
}

// NewBoundedRouter returns the bounded single-source backend: one Dijkstra
// expansion per (source, slot) capped at boundSec seconds of travel,
// memoised as a dense row; targets beyond the bound report +Inf. The paper
// bounds useful distances by the 45-min delivery guarantee; pass that (plus
// slack) here. Not safe for concurrent use; build one per goroutine or zone
// shard.
func NewBoundedRouter(g *Graph, boundSec float64) *DistCache {
	return &DistCache{
		g:       g,
		engine:  NewSSSP(g),
		bound:   boundSec,
		entries: make(map[int]map[NodeID][]float64),
	}
}

// Bound returns the expansion bound in seconds.
func (c *DistCache) Bound() float64 { return c.bound }

// Travel implements Router: SP(from, to, t), or +Inf when `to` is farther
// than the bound.
func (c *DistCache) Travel(from, to NodeID, t float64) float64 {
	return c.row(from, Slot(t))[to]
}

// RouterKind implements Kinded.
func (c *DistCache) RouterKind() string { return "bounded" }

// TravelMany implements ManyRouter: one memoised row read serves every
// target (the row itself is built by a single bounded expansion on first
// touch, exactly as per-target Travel would).
func (c *DistCache) TravelMany(from NodeID, targets []NodeID, t float64) []float64 {
	row := c.row(from, Slot(t))
	out := make([]float64, len(targets))
	for i, to := range targets {
		out[i] = row[to]
	}
	return out
}

// Settles reports the cumulative node settles of the cache's SSSP engine —
// row builds only; memoised reads settle nothing.
func (c *DistCache) Settles() int64 { return int64(c.engine.Settles()) }

// Row returns the full distance slice from `from` in the slot of t. The
// slice is owned by the cache; callers must not mutate it.
func (c *DistCache) Row(from NodeID, t float64) []float64 {
	return c.row(from, Slot(t))
}

func (c *DistCache) row(from NodeID, slot int) []float64 {
	bySource, ok := c.entries[slot]
	if !ok {
		bySource = make(map[NodeID][]float64)
		c.entries[slot] = bySource
	}
	if row, ok := bySource[from]; ok {
		c.hits++
		return row
	}
	c.misses++
	view := c.engine.FromSource(from, float64(slot)*3600, c.bound)
	row := make([]float64, c.g.NumNodes())
	for i := range row {
		row[i] = view.Get(NodeID(i)) // +Inf for nodes outside the bound
	}
	bySource[from] = row
	return row
}

// Reset drops all memoised rows (call between accumulation windows if memory
// pressure matters; rows keyed by slot stay valid across windows otherwise
// since weights are static within a slot).
func (c *DistCache) Reset() {
	c.entries = make(map[int]map[NodeID][]float64)
}

// Stats reports cache hits and misses since construction.
func (c *DistCache) Stats() (hits, misses int64) { return c.hits, c.misses }
