// Package batching groups unassigned orders into batches by iterative
// clustering of the order graph (Section IV-B, Algorithm 1).
//
// Each node of the order graph is a batch π with the quickest route plan for
// its order set, the simulated vehicle starting at the plan's first pickup.
// Two batches are connected when merging them respects MAXO and MAXI; the
// edge weight w(i,j) = Cost(π_{ij}) − Cost(π_i) − Cost(π_j) (Eq. 5) is the
// extra delivery time the merge inflicts. The algorithm repeatedly merges
// the minimum-weight edge until the average batch cost (Eq. 6) exceeds the
// quality cutoff η or no mergeable edge remains.
//
// Theorem 2 guarantees w(i,j) ≥ 0, so AvgCost is non-decreasing and the
// process converges; the property is asserted under test.
//
// Note on the stopping rule: Algorithm 1 line 6 in the paper reads
// "AvgCost/|Π(r)| > η", dividing the already-averaged Eq. 6 by |Π| a second
// time; the surrounding prose ("stop when the average quality of batches
// falls below a certain threshold") and the η=60 s operating point only make
// sense for the single division, so we implement AvgCost > η.
package batching

import (
	"container/heap"
	"math"

	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// Options configures a batching run.
type Options struct {
	// Eta is the AvgCost cutoff η in seconds.
	Eta float64
	// AgeNeutral removes each order's sunk queueing delay (the time it has
	// already waited beyond its prep time) from the tracked batch costs, so
	// that η budgets the *detour* a merge inflicts rather than history the
	// clustering cannot influence. Without it, a backlog of old orders
	// pushes AvgCost past η instantly and batching disables itself exactly
	// under the overload it exists to relieve. Merge weights w(i,j) are
	// unaffected (the constants cancel in Eq. 5), so Theorem 2 still holds.
	AgeNeutral bool
	// MaxO / MaxI are the vehicle capacity limits of Definition 4.
	MaxO, MaxI int
	// Radius prunes candidate pairs to those whose first-pickup nodes are
	// within Radius seconds of network travel; +Inf keeps the paper's full
	// O(n²) order graph.
	Radius float64
	// Now is the clock used for route-plan evaluation (window end).
	Now float64
}

// Result is the outcome of one batching run.
type Result struct {
	Batches []*model.Batch
	// Merges is the number of merge iterations performed.
	Merges int
	// AvgCost is the final average batch cost (Eq. 6).
	AvgCost float64
	// AvgCostTrace records AvgCost after each iteration (index 0 = initial
	// singleton graph); used to verify Theorem 2's monotonicity.
	AvgCostTrace []float64
}

// batchNode is a live node of the order graph.
type batchNode struct {
	batch   *model.Batch
	version int  // bumped on every mutation; stale heap entries are skipped
	dead    bool // merged away
}

// mergeEdge is a candidate merge in the lazy-deletion heap.
type mergeEdge struct {
	i, j   int // node indices
	vi, vj int // node versions at insertion
	w      float64
}

type edgeHeap []mergeEdge

func (h edgeHeap) Len() int            { return len(h) }
func (h edgeHeap) Less(a, b int) bool  { return h[a].w < h[b].w }
func (h edgeHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *edgeHeap) Push(x interface{}) { *h = append(*h, x.(mergeEdge)) }
func (h *edgeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run executes Algorithm 1 over the window's unassigned orders and returns
// the order partition U1 (batches with their route plans). Distances come
// from the injected Router.
func Run(rt roadnet.Router, orders []*model.Order, opt Options) *Result {
	res := &Result{}
	if len(orders) == 0 {
		return res
	}

	agePenalty := func(orders []*model.Order) float64 {
		if !opt.AgeNeutral {
			return 0
		}
		p := 0.0
		for _, o := range orders {
			if d := opt.Now - o.ReadyAt(); d > 0 {
				p += d
			}
		}
		return p
	}

	nodes := make([]*batchNode, 0, len(orders))
	sumCost := 0.0 // tracked (possibly age-neutralised) total batch cost
	for _, o := range orders {
		b, ok := singleton(rt, o, opt.Now)
		if !ok {
			// An order whose own restaurant→customer leg is unreachable can
			// never be routed; emit it as a degenerate batch so the caller's
			// rejection machinery deals with it.
			b = &model.Batch{Orders: []*model.Order{o}, Plan: &model.RoutePlan{Stops: []model.Stop{
				{Node: o.Restaurant, Order: o, Kind: model.Pickup},
				{Node: o.Customer, Order: o, Kind: model.Dropoff},
			}}, Cost: math.Inf(1)}
		}
		nodes = append(nodes, &batchNode{batch: b})
		if !math.IsInf(b.Cost, 1) {
			sumCost += b.Cost - agePenalty(b.Orders)
		}
	}
	liveCount := len(nodes)
	res.AvgCostTrace = append(res.AvgCostTrace, sumCost/float64(liveCount))

	// With a finite radius the O(n²) candidate loop probes pairwise
	// first-pickup distances; precompute them with one many-to-many query
	// per distinct restaurant instead of one point query per ordered pair.
	// Merged batches always start at some member order's restaurant, so the
	// table stays closed under merges.
	var radii *radiusTable
	if !math.IsInf(opt.Radius, 1) {
		radii = newRadiusTable(rt, orders, opt.Now)
	}

	h := &edgeHeap{}
	// Initial candidate edges.
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pushEdge(rt, radii, h, nodes, i, j, opt)
		}
	}

	for h.Len() > 0 && liveCount > 1 {
		e := heap.Pop(h).(mergeEdge)
		ni, nj := nodes[e.i], nodes[e.j]
		if ni.dead || nj.dead || ni.version != e.vi || nj.version != e.vj {
			continue // stale
		}
		// Stopping criterion: stop when even the cheapest merge would push
		// the average batch cost past η. (Algorithm 1 as printed checks the
		// *pre-merge* average, which always executes one overshoot merge —
		// systematically one bad merge per window; we peek ahead instead,
		// which is what the prose "stop when the average quality of batches
		// falls below a threshold" asks for.)
		if (sumCost+e.w)/float64(liveCount-1) > opt.Eta {
			break
		}
		merged, ok := mergeBatches(rt, ni.batch, nj.batch, opt.Now)
		if !ok {
			continue
		}
		// Cost(π_ij) = Cost(π_i) + Cost(π_j) + w(i,j); all known — O(1).
		ni.dead, nj.dead = true, true
		liveCount--
		sumCost += merged.Cost - agePenalty(merged.Orders) -
			(ni.batch.Cost - agePenalty(ni.batch.Orders)) -
			(nj.batch.Cost - agePenalty(nj.batch.Orders))
		nodes = append(nodes, &batchNode{batch: merged})
		mi := len(nodes) - 1
		res.Merges++
		res.AvgCostTrace = append(res.AvgCostTrace, sumCost/float64(liveCount))
		// Connect the merged node to all live nodes.
		for k := 0; k < mi; k++ {
			if !nodes[k].dead {
				pushEdge(rt, radii, h, nodes, k, mi, opt)
			}
		}
	}

	for _, n := range nodes {
		if !n.dead {
			res.Batches = append(res.Batches, n.batch)
		}
	}
	res.AvgCost = sumCost / float64(liveCount)
	return res
}

// singleton builds the batch {o} with its (trivial) optimal route plan; the
// simulated vehicle starts at the restaurant, so Cost is the wait-free XDT
// baseline of delivering o alone (0 when prep dominates).
func singleton(rt roadnet.Router, o *model.Order, now float64) (*model.Batch, bool) {
	plan := &model.RoutePlan{Stops: []model.Stop{
		{Node: o.Restaurant, Order: o, Kind: model.Pickup},
		{Node: o.Customer, Order: o, Kind: model.Dropoff},
	}}
	cost, ok := routing.Evaluate(rt, o.Restaurant, now, plan)
	if !ok {
		return nil, false
	}
	return &model.Batch{Orders: []*model.Order{o}, Plan: plan, Cost: cost}, true
}

// radiusTable memoises pairwise travel times between the window's distinct
// restaurant nodes — the universe every batch's first pickup is drawn from —
// with one many-to-many query per node instead of one point query per
// ordered candidate pair.
type radiusTable struct {
	rt   roadnet.Router
	now  float64
	pos  map[roadnet.NodeID]int32
	rows [][]float64
}

func newRadiusTable(rt roadnet.Router, orders []*model.Order, now float64) *radiusTable {
	t := &radiusTable{rt: rt, now: now, pos: make(map[roadnet.NodeID]int32)}
	var nodes []roadnet.NodeID
	for _, o := range orders {
		if _, ok := t.pos[o.Restaurant]; !ok {
			t.pos[o.Restaurant] = int32(len(nodes))
			nodes = append(nodes, o.Restaurant)
		}
	}
	t.rows = make([][]float64, len(nodes))
	for i, u := range nodes {
		t.rows[i] = roadnet.TravelMany(rt, u, nodes, now)
	}
	return t
}

// dist returns SP(u,v,now); nodes outside the table (impossible for batches
// built from this window's orders, but cheap to keep correct) fall back to a
// point query.
func (t *radiusTable) dist(u, v roadnet.NodeID) float64 {
	iu, uok := t.pos[u]
	iv, vok := t.pos[v]
	if uok && vok {
		return t.rows[iu][iv]
	}
	return t.rt.Travel(u, v, t.now)
}

// pushEdge evaluates the merge of nodes i and j and, when feasible, pushes
// the candidate edge onto the heap. radii is non-nil iff opt.Radius is
// finite.
func pushEdge(rt roadnet.Router, radii *radiusTable, h *edgeHeap, nodes []*batchNode, i, j int, opt Options) {
	bi, bj := nodes[i].batch, nodes[j].batch
	if len(bi.Orders)+len(bj.Orders) > opt.MaxO {
		return
	}
	if bi.Items()+bj.Items() > opt.MaxI {
		return
	}
	if math.IsInf(bi.Cost, 1) || math.IsInf(bj.Cost, 1) {
		return
	}
	if radii != nil {
		d := radii.dist(bi.FirstPickupNode(), bj.FirstPickupNode())
		dr := radii.dist(bj.FirstPickupNode(), bi.FirstPickupNode())
		if d > opt.Radius && dr > opt.Radius {
			return
		}
	}
	merged, ok := mergeBatches(rt, bi, bj, opt.Now)
	if !ok {
		return
	}
	w := merged.Cost - bi.Cost - bj.Cost
	heap.Push(h, mergeEdge{i: i, j: j, vi: nodes[i].version, vj: nodes[j].version, w: w})
}

// mergeBatches computes the batch π_i ∪ π_j with its optimal route plan,
// the simulated vehicle starting at the merged plan's first pickup node.
func mergeBatches(rt roadnet.Router, bi, bj *model.Batch, now float64) (*model.Batch, bool) {
	orders := make([]*model.Order, 0, len(bi.Orders)+len(bj.Orders))
	orders = append(orders, bi.Orders...)
	orders = append(orders, bj.Orders...)
	plan, cost, ok := optimizeFromFirstPickup(rt, now, orders)
	if !ok {
		return nil, false
	}
	return &model.Batch{Orders: orders, Plan: plan, Cost: cost}, true
}

// optimizeFromFirstPickup finds the quickest plan over all choices of
// starting restaurant: the simulated vehicle is placed at the first pickup
// of the plan (Section IV-B1: "the initial location of each simulated
// vehicle is the first location in the optimal route plan"), so every
// order's restaurant is tried as the start.
func optimizeFromFirstPickup(rt roadnet.Router, now float64, orders []*model.Order) (*model.RoutePlan, float64, bool) {
	bestCost := math.Inf(1)
	var bestPlan *model.RoutePlan
	tried := make(map[roadnet.NodeID]bool, len(orders))
	for _, first := range orders {
		start := first.Restaurant
		if tried[start] {
			continue
		}
		tried[start] = true
		plan, cost, ok := routing.Optimize(rt, start, now, nil, orders)
		if ok && cost < bestCost {
			bestCost = cost
			bestPlan = plan
		}
	}
	if bestPlan == nil {
		return nil, 0, false
	}
	return bestPlan, bestCost, true
}
