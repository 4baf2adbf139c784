// Package foodgraph builds the bipartite assignment graph of Section IV —
// order batches on one side, available vehicles on the other, edge weights
// the marginal cost mCost(π, v) of Eq. 7 — and its sparsified variant
// constructed by best-first search (Algorithm 2).
//
// The sparsified construction visits batch start nodes in ascending order
// of the vehicle-sensitive edge weight α(v,e,t) (Eq. 8), which blends
// normalised travel time with the angular distance between a candidate node
// and the vehicle's current heading. It stops as soon as the vehicle has
// acquired k true-weight edges; all other batches receive the rejection
// penalty Ω, pruning the quadratic edge-weight computation the paper
// identifies as the scalability bottleneck. A moving vehicle explores the
// road network outward by α; a vehicle with no heading has α proportional to
// travel time, so it walks its first-mile row — the travel times to every
// batch start that pricing its edges reads anyway — in ascending order
// instead of searching.
package foodgraph

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// VehicleState is the assignment-relevant view of one available vehicle.
type VehicleState struct {
	Vehicle *model.Vehicle
	// Node is loc(v,t) approximated to the road network.
	Node roadnet.NodeID
	// Dest is the next node the vehicle is heading to (roadnet.Invalid when
	// idle); it provides the bearing for angular distance.
	Dest roadnet.NodeID
	// Onboard are picked-up orders (immutable dropoff obligations).
	Onboard []*model.Order
	// Keep are assigned-but-unpicked orders the vehicle retains (empty when
	// reshuffling returned them to the order pool).
	Keep []*model.Order
}

// BaseOrders returns the orders already tied to the vehicle for capacity
// accounting (Definition 4).
func (vs *VehicleState) BaseOrders() int { return len(vs.Onboard) + len(vs.Keep) }

// BaseItems returns the items already tied to the vehicle.
func (vs *VehicleState) BaseItems() int {
	n := 0
	for _, o := range vs.Onboard {
		n += o.Items
	}
	for _, o := range vs.Keep {
		n += o.Items
	}
	return n
}

// Options configures graph construction.
type Options struct {
	// K is the per-vehicle degree bound of Algorithm 2.
	K int
	// Gamma is the Eq. 8 blend: 1 = pure travel time, 0 = pure direction.
	Gamma float64
	// Angular enables the angular-distance term. Disabled — or for a vehicle
	// with no heading — α degrades to γ-scaled normalised travel time, and
	// best-first construction walks the vehicle's first-mile row in
	// ascending travel time instead of searching the road network.
	Angular bool
	// BestFirst selects the sparsified construction; false computes the full
	// quadratic FoodGraph (vanilla KM and the B&R-only ablation).
	BestFirst bool
	// Omega is the rejection penalty Ω used for absent edges.
	Omega float64
	// MaxFirstMile caps SP(loc(v,t), π[1]ʳ, t); beyond it the edge is Ω
	// (the 45-minute guarantee, Section V-B).
	MaxFirstMile float64
	// MaxO / MaxI are the capacity limits of Definition 4.
	MaxO, MaxI int
	// Now is the window-end clock.
	Now float64
	// AgeNeutral subtracts each order's sunk waiting age (Now − PlacedAt)
	// from the edge weight. The raw mCost of Eq. 7 embeds that constant, so
	// under overload (more batches than vehicles) a minimum-weight matching
	// systematically defers the *oldest* batches — deferral does not avoid
	// sunk cost, the per-window objective just mis-prices it — starving them
	// into rejection. Age-neutral weights change nothing when every batch is
	// matched (row constants cancel) and make the deferral choice
	// cost-to-serve-driven when not.
	AgeNeutral bool
}

// Bipartite is the constructed FOODGRAPH: rows are batches, columns are
// vehicles. Cost[i][j] = mCost(π_i, v_j) or Ω; Plan[i][j] is the vehicle's
// optimal route plan with the batch added (nil on Ω edges), so the
// simulator can apply a matching without recomputing routes.
type Bipartite struct {
	Cost [][]float64
	Plan [][]*model.RoutePlan
	// TrueEdges counts non-Ω edges (the construction-work measure that
	// best-first search reduces).
	TrueEdges int
}

// buildScratch pools the per-Build working set: the batch start index, the
// distinct first-pickup target list for many-to-many first-mile queries, the
// per-vehicle base costs, the nearest-start order of idle vehicles, and the
// per-vehicle best-first search state (epoch-stamped visited and
// angular-distance arrays, frontier heap) reused across every vehicle in the
// window.
type buildScratch struct {
	startIdx map[roadnet.NodeID][]int
	targets  []roadnet.NodeID // distinct first-pickup nodes, first-encounter order
	tpos     []int32          // per-batch index into targets
	// base[j] is Cost(v_j, onboard ∪ keep), the subtrahend of every mCost on
	// vehicle j's edges: priced on the vehicle's first edge, NaN until then.
	base     []float64
	extended []*model.Order // keep ∪ batch, rebuilt per edge
	near     []nearStart    // an idle vehicle's in-bound batch starts
	visited  []uint32
	// adist[u] is node u's angular distance from the searching vehicle's
	// heading, valid when adSeen[u] carries the search's epoch.
	adist  []float64
	adSeen []uint32
	vepoch uint32
	pq     nodeHeap
}

var scratchPool = sync.Pool{
	New: func() any { return &buildScratch{startIdx: make(map[roadnet.NodeID][]int)} },
}

// Build constructs the FOODGRAPH for one accumulation window. Distances
// come from the injected Router; backends implementing roadnet.ManyRouter
// serve each vehicle's first-mile distances to every distinct pickup node
// with one batched query.
func Build(g *roadnet.Graph, rt roadnet.Router, batches []*model.Batch, vehicles []*VehicleState, opt Options) *Bipartite {
	nb, nv := len(batches), len(vehicles)
	// Flat backing arrays: one allocation per matrix instead of one per row,
	// and row slices carved with full-capacity bounds.
	costBack := make([]float64, nb*nv)
	for i := range costBack {
		costBack[i] = opt.Omega
	}
	planBack := make([]*model.RoutePlan, nb*nv)
	bp := &Bipartite{
		Cost: make([][]float64, nb),
		Plan: make([][]*model.RoutePlan, nb),
	}
	for i := 0; i < nb; i++ {
		bp.Cost[i] = costBack[i*nv : (i+1)*nv : (i+1)*nv]
		bp.Plan[i] = planBack[i*nv : (i+1)*nv : (i+1)*nv]
	}
	if nb == 0 || nv == 0 {
		return bp
	}

	sc := scratchPool.Get().(*buildScratch)
	defer func() {
		clear(sc.extended[:cap(sc.extended)]) // no order outlives the window in the pool
		scratchPool.Put(sc)
	}()
	sc.base = sc.base[:0]
	for range vehicles {
		sc.base = append(sc.base, math.NaN())
	}

	// Index batches by their first pickup node (I(u) of Algorithm 2) and
	// assign each batch its slot in the distinct-target list.
	clear(sc.startIdx)
	sc.targets = sc.targets[:0]
	if cap(sc.tpos) < nb {
		sc.tpos = make([]int32, nb)
	}
	sc.tpos = sc.tpos[:nb]
	for i, b := range batches {
		u := b.FirstPickupNode()
		lst := sc.startIdx[u]
		if len(lst) == 0 {
			sc.tpos[i] = int32(len(sc.targets))
			sc.targets = append(sc.targets, u)
		} else {
			sc.tpos[i] = sc.tpos[lst[0]]
		}
		sc.startIdx[u] = append(lst, i)
	}

	// When the degree bound already admits every batch, best-first search
	// would explore the graph only to add every edge anyway; the full
	// construction is then strictly cheaper and produces the same graph.
	bestFirst := opt.BestFirst && opt.K < nb

	for j, vs := range vehicles {
		if bestFirst {
			bestFirstEdges(g, rt, batches, sc, vs, j, bp, opt)
		} else {
			fullEdges(rt, batches, sc, vs, j, bp, opt)
		}
	}
	return bp
}

// fullEdges computes the true marginal cost against every batch — the
// quadratic construction of the unoptimised FOODGRAPH. One many-to-many
// query resolves the vehicle's first-mile distance to every distinct pickup
// node; batches sharing a pickup node share the answer.
func fullEdges(rt roadnet.Router, batches []*model.Batch, sc *buildScratch, vs *VehicleState, j int, bp *Bipartite, opt Options) {
	fm := roadnet.TravelMany(rt, vs.Node, sc.targets, opt.Now)
	for i, b := range batches {
		setEdge(rt, sc, b, vs, i, j, bp, opt, fm[sc.tpos[i]])
	}
}

// bestFirstEdges is Algorithm 2 for a single vehicle: explore the road
// network in ascending α-distance, attaching true-weight edges to batches
// whose first pickup is at each settled node, until the vehicle has degree k.
// A vehicle without a heading takes nearestEdges instead.
func bestFirstEdges(g *roadnet.Graph, rt roadnet.Router, batches []*model.Batch, sc *buildScratch, vs *VehicleState, j int, bp *Bipartite, opt Options) {
	startIdx := sc.startIdx
	source := vs.Node
	locPt := g.Point(source)
	// Θ(loc, dest), the vehicle's heading, is the half of adist (Section
	// IV-D1) that no relaxed edge changes; geo.AngularDistance would recompute
	// it per edge. The guards are its own: adist is 0 when dest or the
	// candidate coincides with loc.
	angular, heading := false, 0.0
	if opt.Angular && vs.Dest != roadnet.Invalid && vs.Dest != source {
		if destPt := g.Point(vs.Dest); destPt != locPt {
			angular, heading = true, geo.Bearing(locPt, destPt)
		}
	}
	if !angular {
		// With no heading (idle vehicle) the directional term is 0; the paper
		// defines adist only for moving vehicles.
		nearestEdges(rt, batches, sc, vs, j, bp, opt)
		return
	}
	maxBeta := g.MaxBeta(opt.Now)

	n := g.NumNodes()
	// Epoch-stamped visited and angular-distance arrays and frontier heap,
	// reused across every vehicle in the window (and across windows via the
	// scratch pool).
	if len(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.adist = make([]float64, n)
		sc.adSeen = make([]uint32, n)
	}
	sc.vepoch++
	if sc.vepoch == 0 { // stamp wrap: re-zero once per 2^32 searches
		clear(sc.visited)
		clear(sc.adSeen)
		sc.vepoch = 1
	}
	visited, adist, adSeen, ep := sc.visited, sc.adist, sc.adSeen, sc.vepoch
	pq := &sc.pq
	pq.reset()
	pq.push(source, 0)
	degree := 0
	// Early exit once every batch-start node has been settled: nothing
	// further out can add an edge, so draining the frontier is wasted work.
	startsLeft := len(startIdx)
	for !pq.empty() && degree < opt.K && startsLeft > 0 {
		u, du := pq.pop()
		if visited[u] == ep {
			continue
		}
		visited[u] = ep
		if bis := startIdx[u]; len(bis) > 0 {
			startsLeft--
			for _, bi := range bis {
				if setEdge(rt, sc, batches[bi], vs, bi, j, bp, opt, math.NaN()) {
					degree++
				}
			}
		}
		// Eq. 8 for each edge (u, v) entered: angular distance is measured
		// from the vehicle's *current* location towards the candidate node v
		// (Section IV-D1), so within one search it depends on v alone and is
		// computed once per node however many edges enter it.
		for _, e := range g.OutEdges(u) {
			v := e.To
			if visited[v] == ep {
				continue
			}
			if adSeen[v] != ep {
				adSeen[v] = ep
				ad := 0.0
				if p := g.Point(v); p != locPt {
					ad = (1 - math.Cos(heading-geo.Bearing(locPt, p))) / 2
				}
				adist[v] = ad
			}
			beta := g.EdgeTime(e, opt.Now) / maxBeta
			pq.push(v, du+((1-opt.Gamma)*adist[v]+opt.Gamma*beta))
		}
	}
}

// nearestEdges is Algorithm 2 for a vehicle with no heading. There α is
// γ·β/maxβ, so the search's settle order is ascending travel time from
// vs.Node: exactly the order of the first-mile row to the batch starts. One
// many-to-many query reads that row, and the in-bound starts are handled
// nearest first, by (travel time, target index), until the vehicle has
// degree k — the search loop's per-node rule.
//
// The edges a vehicle gets depend only on which start nodes are handled
// before it reaches degree k: setEdge has no order-dependent effect (the
// base cost sc.base[j] is the same whichever edge prices it first), and a
// start beyond MaxFirstMile or unreachable adds no edge on either path. The
// search and the row walk can therefore disagree only at the k-th edge, and
// only where two starts' travel times tie, or differ by a few ulps of the
// γ/maxβ scaling the search sums edge by edge; the row walk breaks such ties
// by target index where the search's heap broke them arbitrarily. With γ = 0
// every idle α is 0 and the search's order was wholly heap-arbitrary; the row
// walk keeps the travel-time order.
//
// A vehicle no batch fits (Definition 4) gets no edge on either path and,
// as under the search, never reaches the router.
func nearestEdges(rt roadnet.Router, batches []*model.Batch, sc *buildScratch, vs *VehicleState, j int, bp *Bipartite, opt Options) {
	baseO, baseI := vs.BaseOrders(), vs.BaseItems()
	if !slices.ContainsFunc(batches, func(b *model.Batch) bool {
		return baseO+len(b.Orders) <= opt.MaxO && baseI+b.Items() <= opt.MaxI
	}) {
		return
	}
	fm := roadnet.TravelMany(rt, vs.Node, sc.targets, opt.Now)
	near := sc.near[:0]
	for t, d := range fm {
		if d <= opt.MaxFirstMile {
			near = append(near, nearStart{fm: d, t: int32(t)})
		}
	}
	slices.SortFunc(near, func(a, b nearStart) int {
		if c := cmp.Compare(a.fm, b.fm); c != 0 {
			return c
		}
		return cmp.Compare(a.t, b.t)
	})
	sc.near = near
	degree := 0
	for _, s := range near {
		if degree >= opt.K {
			return
		}
		for _, bi := range sc.startIdx[sc.targets[s.t]] {
			if setEdge(rt, sc, batches[bi], vs, bi, j, bp, opt, s.fm) {
				degree++
			}
		}
	}
}

// nearStart is a batch start node by its index in the Build's target list
// and the vehicle's first mile to it.
type nearStart struct {
	fm float64
	t  int32
}

// setEdge computes mCost(π, v) and installs the edge when feasible; returns
// whether a true (non-Ω) edge was added. fm is the precomputed first-mile
// distance SP(loc(v), π[1]ʳ, Now) from a batched query, or NaN to resolve it
// here (the moving-vehicle search, which must stay lazy to preserve its
// pruning).
func setEdge(rt roadnet.Router, sc *buildScratch, b *model.Batch, vs *VehicleState, i, j int, bp *Bipartite, opt Options, fm float64) bool {
	// Capacity feasibility (Definition 4).
	if vs.BaseOrders()+len(b.Orders) > opt.MaxO {
		return false
	}
	if vs.BaseItems()+b.Items() > opt.MaxI {
		return false
	}
	// The 45-minute first-mile guarantee.
	if math.IsNaN(fm) {
		fm = rt.Travel(vs.Node, b.FirstPickupNode(), opt.Now)
	}
	if fm > opt.MaxFirstMile {
		return false
	}
	// mCost = Cost(v, onboard ∪ keep ∪ π) − Cost(v, onboard ∪ keep) (Eq. 7).
	base := sc.base[j]
	if math.IsNaN(base) {
		base = routing.Cost(rt, vs.Node, opt.Now, vs.Onboard, vs.Keep)
		sc.base[j] = base
	}
	if math.IsInf(base, 1) {
		// The vehicle's existing workload is already unreachable (should not
		// happen on strongly connected networks): no batch can extend it.
		return false
	}
	sc.extended = append(append(sc.extended[:0], vs.Keep...), b.Orders...)
	plan, total, ok := routing.Optimize(rt, vs.Node, opt.Now, vs.Onboard, sc.extended)
	if !ok {
		return false
	}
	mc := total - base
	// w(o,v) = min(mCost, Ω) per the FOODGRAPH weight definition.
	if mc >= opt.Omega {
		bp.Cost[i][j] = opt.Omega
		return false
	}
	if opt.AgeNeutral {
		// Subtract the *full* waiting age. Beyond removing the sunk
		// constant (which fixes the starvation mis-pricing), the full-age
		// variant doubles as aging priority: when batches must be left
		// out, those carrying older orders are preferred for coverage —
		// FIFO-under-scarcity, which measurably beats the prep-slack-only
		// variant on peak workloads (see EXPERIMENTS.md X2). The batching
		// layer's detour budget uses the prep-slack definition instead;
		// the two roles differ.
		for _, o := range b.Orders {
			if d := opt.Now - o.PlacedAt; d > 0 {
				mc -= d
			}
		}
	}
	bp.Cost[i][j] = mc
	bp.Plan[i][j] = plan
	bp.TrueEdges++
	return true
}

// nodeHeap is a binary min-heap over (node, α-distance).
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

func (h *nodeHeap) reset() {
	h.node = h.node[:0]
	h.dist = h.dist[:0]
}

// KFor computes the degree bound k = max(kmin, KFactor·|O|/|V|) of
// Section V-B, clamped to the number of batches.
func KFor(kFactor float64, kMin, numBatches, numVehicles int) int {
	if numVehicles == 0 || numBatches == 0 {
		return 0
	}
	k := int(math.Ceil(kFactor * float64(numBatches) / float64(numVehicles)))
	if k < kMin {
		k = kMin
	}
	if k > numBatches {
		k = numBatches
	}
	return k
}
