package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	foodmatch "repro"
	"repro/internal/foodgraph"
	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/roadnet"
	"repro/internal/routing"
)

// The ladder times each layer by direct calls on one fixed fixture, bottom
// rung (a router query) to top (an engine round), so a claimed win names the
// rung it moved and shows whether the rungs above followed. The fixture is
// CityB at scale 0.05 on the reference day: the orders placed 19:00-19:20
// pooled at 19:20 against the full fleet parked at its start nodes.
const (
	ladderCity  = "CityB"
	ladderScale = 0.05
	ladderFrom  = 19 * 3600.0
	ladderNow   = ladderFrom + 20*60
	// backendOrders × backendVehicles is the window of the per-backend Assign
	// rung: the dijkstra and cch backends price the full pool 25-90x slower
	// than bounded, far past what a rung may cost.
	backendOrders   = 24
	backendVehicles = 128
)

// fixture is the ladder's shared input.
type fixture struct {
	scale    float64
	city     *foodmatch.City
	cfg      *foodmatch.Config
	orders   []*foodmatch.Order
	vehicles []*foodgraph.VehicleState
	bound    float64 // bounded-router expansion cap, as the engine sets it
}

func newFixture(scale float64) (*fixture, error) {
	d, err := generateDay(ladderCity, scale, referenceSeed, ladderFrom, ladderNow)
	if err != nil {
		return nil, err
	}
	fx := &fixture{scale: scale, city: d.city, cfg: d.cfg, orders: d.orders, bound: 2 * d.cfg.MaxFirstMile}
	sdt := foodmatch.NewBoundedRouter(d.city.G, fx.bound)
	for _, o := range fx.orders {
		o.SDT = o.Prep + sdt.Travel(o.Restaurant, o.Customer, o.PlacedAt)
	}
	for _, v := range d.fleet {
		fx.vehicles = append(fx.vehicles, &foodgraph.VehicleState{Vehicle: v, Node: v.Node, Dest: roadnet.Invalid})
	}
	return fx, nil
}

// input is the fixture as one pipeline window over the given router.
func (fx *fixture) input(rt roadnet.Router, orders []*foodmatch.Order) *pipeline.Input {
	return &pipeline.Input{G: fx.city.G, Router: rt, Now: ladderNow, Orders: orders, Vehicles: fx.vehicles, Cfg: fx.cfg}
}

func (fx *fixture) coldRouter() *roadnet.DistCache {
	return roadnet.NewBoundedRouter(fx.city.G, fx.bound)
}

// rung times fn and reports the median. The first call sizes the repetition
// count: as many as fit the rung's budget, at least 3 and at most 25; a rung
// whose single call already exceeds the budget is measured once.
func rung(budget time.Duration, fn func() time.Duration) (med time.Duration, reps int) {
	first := fn()
	n := 1
	if first <= budget {
		n = 25
		if first > 0 {
			n = min(max(int(budget/first), 3), 25)
		}
	}
	times := []float64{first.Seconds()}
	for i := 1; i < n; i++ {
		times = append(times, fn().Seconds())
	}
	return time.Duration(median(times) * float64(time.Second)), n
}

// timed is the common case: fn is the measured call itself.
func timed(fn func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
}

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// addLadder runs the ladder within 0.8 × the run length and merges its metrics
// into a traced run's layers.
func addLadder(layers map[string]float64, seconds, scale float64) {
	for k, v := range runLadder(time.Duration(seconds*0.8*float64(time.Second)), scale) {
		layers[k] = v
	}
}

// runLadder runs every rung within roughly the given total budget and returns
// the ladder's per-layer metrics. A rung that cannot run reports 0 and says
// why on standard output.
func runLadder(total time.Duration, scale float64) map[string]float64 {
	out := map[string]float64{}
	fx, err := newFixture(scale)
	if err != nil {
		fmt.Printf("# ladder: fixture: %v\n", err)
		return out
	}
	const rungs = 36
	budget := total / rungs
	fmt.Printf("# ladder: %s %.2f, %d orders placed %s-%s, %d vehicles, %v per rung\n",
		ladderCity, scale, len(fx.orders), clock(ladderFrom), clock(ladderNow), len(fx.vehicles), budget.Round(time.Millisecond))

	ladderRouters(fx, budget, out)
	ladderStages(fx, budget, out)
	ladderEngine(fx, budget, out)
	ladderPublish(fx, budget, out)
	ladderEdges(fx, budget, out)
	return out
}

// ladderRouters is the bottom rung, once per backend: point query, 1→64
// batched query, build (construct + first query of the slot) and the
// pipeline's Assign over a small pool on that backend.
func ladderRouters(fx *fixture, budget time.Duration, out map[string]float64) {
	g := fx.city.G
	backends := []struct {
		name string
		mk   func() roadnet.Router
	}{
		{"bounded", func() roadnet.Router { return fx.coldRouter() }},
		{"dijkstra", func() roadnet.Router { return foodmatch.NewDijkstraRouter(g) }},
		{"hublabel", func() roadnet.Router { return foodmatch.NewHubLabelRouter(fx.bound, true)(g) }},
		{"cch", func() roadnet.Router { return foodmatch.NewCCHRouter()(g) }},
	}
	// Query mix: vehicle start node → restaurant, as FoodGraph first miles.
	const pairs = 256
	var from, to []roadnet.NodeID
	for i := 0; i < pairs; i++ {
		from = append(from, fx.vehicles[i%len(fx.vehicles)].Node)
		to = append(to, fx.orders[i%len(fx.orders)].Restaurant)
	}
	var targets []roadnet.NodeID
	seen := map[roadnet.NodeID]bool{}
	for _, r := range fx.city.Restaurants {
		if !seen[r] && len(targets) < 64 {
			seen[r] = true
			targets = append(targets, r)
		}
	}
	small := fx.input(nil, fx.orders[:min(backendOrders, len(fx.orders))])
	small.Vehicles = small.Vehicles[:min(backendVehicles, len(small.Vehicles))]

	for _, b := range backends {
		build, _ := rung(budget, func() time.Duration {
			t0 := time.Now()
			rt := b.mk()
			rt.Travel(from[0], to[0], ladderNow)
			return time.Since(t0)
		})
		out["roadnet."+b.name+".build_ms"] = ms(build)

		rt := b.mk()
		query := func() {
			for i := range from {
				rt.Travel(from[i], to[i], ladderNow)
			}
		}
		query() // warm: memoising backends answer from their rows afterwards
		travel, _ := rung(budget, timed(query))
		out["roadnet."+b.name+".travel_ns"] = float64(travel.Nanoseconds()) / pairs

		many, _ := rung(budget, timed(func() {
			for i := 0; i < 16; i++ {
				roadnet.TravelMany(rt, from[i], targets, ladderNow)
			}
		}))
		out["roadnet."+b.name+".travel_many_ns_per_target"] = float64(many.Nanoseconds()) / float64(16*len(targets))

		assign, _ := rung(budget, func() time.Duration {
			in := *small
			in.Router = b.mk()
			t0 := time.Now()
			pipeline.New().Assign(context.Background(), &in)
			return time.Since(t0)
		})
		out["roadnet."+b.name+".assign_ms"] = ms(assign)
	}
}

// ladderStages climbs from one route-plan search to the whole Assign, each
// rep on a cold bounded router, as the first round of a slot runs.
func ladderStages(fx *fixture, budget time.Duration, out map[string]float64) {
	ctx := context.Background()
	warm := fx.coldRouter()
	sp := roadnet.SPFunc(warm.Travel)

	// Stage inputs produced once, by the stages themselves.
	in := fx.input(warm, fx.orders)
	batches := pipeline.ClusterBatcher{}.Batch(ctx, in)
	bp := pipeline.BestFirstSparsifier{}.Sparsify(ctx, in, batches)

	// routing: plan searches over the batches Algorithm 1 actually formed.
	groups := func(k int) [][]*model.Order {
		var gs [][]*model.Order
		for _, b := range batches {
			if len(b.Orders) >= k {
				gs = append(gs, b.Orders[:k])
			}
		}
		if len(gs) > 0 {
			return gs
		}
		// No batch that large: fall back to consecutive orders.
		for i := 0; i+k <= len(fx.orders); i += k {
			gs = append(gs, fx.orders[i:i+k])
		}
		return gs
	}
	optimize := func(gs [][]*model.Order, sp roadnet.SPFunc) func() {
		return func() {
			for _, grp := range gs {
				routing.Optimize(sp, grp[0].Restaurant, ladderNow, nil, grp)
			}
		}
	}
	g2, g3 := groups(2), groups(3)
	d, _ := rung(budget, timed(optimize(g2, sp)))
	out["routing.optimize2_us"] = us(d) / float64(len(g2))
	d, _ = rung(budget, timed(optimize(g3, sp)))
	out["routing.optimize3_us"] = us(d) / float64(len(g3))
	cr := &countingRouter{inner: warm}
	optimize(g3, cr.Travel)()
	out["routing.optimize3_router_calls"] = float64(cr.queries()) / float64(len(g3))

	// MarginalCost over true edges of the fixture's FoodGraph.
	type edge struct{ b, v int }
	var edges []edge
	for i := range bp.Plan {
		for j := range bp.Plan[i] {
			if bp.Plan[i][j] != nil && len(edges) < 512 {
				edges = append(edges, edge{i, j})
			}
		}
	}
	if len(edges) > 0 {
		d, _ = rung(budget, timed(func() {
			for _, e := range edges {
				vs := fx.vehicles[e.v]
				routing.MarginalCost(sp, vs.Node, ladderNow, vs.Onboard, vs.Keep, batches[e.b].Orders)
			}
		}))
		out["routing.marginal_cost_us"] = us(d) / float64(len(edges))
	}
	d, _ = rung(budget, timed(func() {
		for _, o := range fx.orders {
			routing.SDT(sp, o)
		}
	}))
	out["routing.sdt_us"] = us(d) / float64(len(fx.orders))

	// batching.Run and foodgraph.Build through their pipeline stages.
	d, _ = rung(budget, func() time.Duration {
		in := fx.input(fx.coldRouter(), fx.orders)
		t0 := time.Now()
		pipeline.ClusterBatcher{}.Batch(ctx, in)
		return time.Since(t0)
	})
	out["batching.run_ms"] = ms(d)
	cr = &countingRouter{inner: fx.coldRouter()}
	out["batching.run_allocs"] = mallocsDuring(func() { pipeline.ClusterBatcher{}.Batch(ctx, fx.input(cr, fx.orders)) })
	out["batching.run_router_calls"] = float64(cr.queries())

	d, _ = rung(budget, func() time.Duration {
		in := fx.input(fx.coldRouter(), fx.orders)
		t0 := time.Now()
		pipeline.BestFirstSparsifier{}.Sparsify(ctx, in, batches)
		return time.Since(t0)
	})
	out["foodgraph.build_ms"] = ms(d)
	cr = &countingRouter{inner: fx.coldRouter()}
	var built *foodgraph.Bipartite
	out["foodgraph.build_allocs"] = mallocsDuring(func() {
		built = pipeline.BestFirstSparsifier{}.Sparsify(ctx, fx.input(cr, fx.orders), batches)
	})
	out["foodgraph.build_router_calls"] = float64(cr.queries())
	out["foodgraph.build_true_edges"] = float64(built.TrueEdges)

	d, _ = rung(budget, timed(func() { matching.Solve(bp.Cost) }))
	out["matching.solve_ms"] = ms(d)

	var last *roadnet.DistCache
	d, _ = rung(budget, func() time.Duration {
		last = fx.coldRouter()
		in := fx.input(last, fx.orders)
		t0 := time.Now()
		pipeline.New().Assign(ctx, in)
		return time.Since(t0)
	})
	out["pipeline.assign_ms"] = ms(d)
	hits, misses := last.Stats()
	out["roadnet.bounded.hit_pct"] = 100 * ratio(float64(hits), float64(hits+misses))
	out["roadnet.bounded.settles_per_row"] = ratio(float64(last.Settles()), float64(misses))
	out["pipeline.assign_allocs"] = mallocsDuring(func() {
		pipeline.New().Assign(ctx, fx.input(fx.coldRouter(), fx.orders))
	})
}

// ladderEngine is the top in-process rung: one engine round matching the
// whole fixture pool, then a checkpoint of that state and its restore.
func ladderEngine(fx *fixture, budget time.Duration, out map[string]float64) {
	// Every rep needs its own world: the engine owns and mutates orders and
	// vehicles.
	loaded := func(disableObs bool) (*foodmatch.Engine, error) {
		d, err := generateDay(ladderCity, fx.scale, referenceSeed, ladderFrom, ladderNow)
		if err != nil {
			return nil, err
		}
		eng, err := foodmatch.NewEngine(d.city.G, d.fleet, foodmatch.EngineConfig{
			Pipeline: d.cfg, Shards: 1, Workers: 1, DisableObs: disableObs,
		})
		if err != nil {
			return nil, err
		}
		eng.Step(ladderFrom)
		for _, o := range d.orders {
			if err := eng.SubmitOrder(o); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}
	var failed error
	round := func(disableObs bool) float64 {
		eng, err := loaded(disableObs)
		if err != nil {
			failed = err
			return 0
		}
		t0 := time.Now()
		eng.Step(ladderNow)
		return time.Since(t0).Seconds()
	}
	// The round costs more than a rung's budget, and obs on vs off is a
	// difference of a few percent: three alternating pairs, whatever the
	// budget, so both arms see the same machine.
	var on, off []float64
	for i := 0; i < 3; i++ {
		on = append(on, round(false))
		off = append(off, round(true))
	}
	out["engine.round_ms"] = median(on) * 1000
	out["obs.round_overhead_pct"] = 100 * ratio(median(on)-median(off), median(off))

	eng, err := loaded(false)
	if err == nil {
		out["engine.round_allocs"] = mallocsDuring(func() { eng.Step(ladderNow) })
		var doc bytes.Buffer
		d, _ := rung(budget, func() time.Duration {
			doc.Reset()
			t0 := time.Now()
			if _, err := eng.WriteCheckpoint(&doc); err != nil {
				failed = err
			}
			return time.Since(t0)
		})
		out["engine.checkpoint_ms"] = ms(d)
		d, _ = rung(budget, func() time.Duration {
			fresh, err := generateDay(ladderCity, fx.scale, referenceSeed, ladderFrom, ladderNow)
			if err != nil {
				failed = err
				return 0
			}
			target, err := foodmatch.NewEngine(fresh.city.G, fresh.fleet, foodmatch.EngineConfig{Pipeline: fresh.cfg, Shards: 1, Workers: 1})
			if err != nil {
				failed = err
				return 0
			}
			t0 := time.Now()
			c, err := foodmatch.ReadEngineCheckpoint(bytes.NewReader(doc.Bytes()))
			if err == nil {
				err = target.RestoreCheckpoint(c)
			}
			if err != nil {
				failed = err
			}
			return time.Since(t0)
		})
		out["engine.restore_ms"] = ms(d)
	} else {
		failed = err
	}
	if failed != nil {
		fmt.Printf("# ladder: engine rungs: %v\n", failed)
	}
}

// ladderPublish times the weight-epoch write path: a 16-cell incremental
// graph patch, the CCH re-customization it triggers, and a SwapRouter publish.
func ladderPublish(fx *fixture, budget time.Duration, out map[string]float64) {
	g := fx.city.G
	slot := roadnet.Slot(ladderNow)
	// 16 dirty cells on distinct edges, in the fixture's slot.
	type cell struct{ u, v roadnet.NodeID }
	var cells []cell
	for u := 0; u < g.NumNodes() && len(cells) < 16; u += 7 {
		if es := g.OutEdges(roadnet.NodeID(u)); len(es) > 0 {
			cells = append(cells, cell{roadnet.NodeID(u), es[0].To})
		}
	}
	// patch returns the successor of prev with every cell's weight scaled.
	cum := roadnet.NewSlotWeights()
	patch := func(prev *roadnet.Graph, scale float64) (*roadnet.Graph, time.Duration, error) {
		dirty := roadnet.NewDirtyCells()
		delta := roadnet.NewSlotWeights()
		for _, c := range cells {
			e := g.OutEdges(c.u)[0]
			if err := cum.Set(c.u, c.v, slot, g.EdgeTimeSlot(e, slot)*scale); err != nil {
				return nil, 0, err
			}
			dirty.Mark(c.u, c.v, slot)
			row, _ := cum.Row(c.u, c.v)
			if err := delta.PutRow(c.u, c.v, row); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		ng, err := g.PatchReweighted(prev, delta, dirty)
		return ng, time.Since(t0), err
	}
	var failed error
	prev, _, err := patch(g.Reweighted(cum), 1.1)
	if err != nil {
		fmt.Printf("# ladder: publish rungs: %v\n", err)
		return
	}
	step := 0
	d, _ := rung(budget, func() time.Duration {
		step++
		ng, took, err := patch(prev, 1.1+0.01*float64(step))
		if err != nil {
			failed = err
			return 0
		}
		prev = ng
		return took
	})
	out["roadnet.patch_reweighted_us"] = us(d)

	// CCH: the factory customizes the patched epoch incrementally inside
	// NewRouter once the slot's metric exists.
	factory := roadnet.NewCCHFactory()
	factory.NewRouter(prev).Travel(cells[0].u, cells[1].v, ladderNow)
	d, _ = rung(budget, func() time.Duration {
		step++
		ng, _, err := patch(prev, 1.1+0.01*float64(step))
		if err != nil {
			failed = err
			return 0
		}
		prev = ng
		t0 := time.Now()
		factory.NewRouter(ng).Travel(cells[0].u, cells[1].v, ladderNow)
		return time.Since(t0)
	})
	out["roadnet.cch_incremental_ms"] = ms(d)

	swap := foodmatch.NewSwapRouter(g, func(g *foodmatch.Graph) foodmatch.Router { return foodmatch.NewBoundedRouter(g, fx.bound) })
	epoch := uint64(0)
	d, _ = rung(budget, func() time.Duration {
		epoch++
		t0 := time.Now()
		swap.Publish(roadnet.Snapshot{Epoch: epoch, Graph: prev})
		return time.Since(t0)
	})
	out["roadnet.swap_publish_us"] = us(d)
	if failed != nil {
		fmt.Printf("# ladder: publish rungs: %v\n", failed)
	}
}

// ladderEdges times the two ingest-edge layers below the daemon: a WAL append
// with and without fsync, and one learner observation.
func ladderEdges(fx *fixture, budget time.Duration, out map[string]float64) {
	appendRung := func(syncEvery int) (float64, error) {
		dir, err := os.MkdirTemp(scratchDir(), "ladder-wal-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		log, _, err := foodmatch.OpenWAL(dir, foodmatch.WALOptions{SyncEvery: syncEvery})
		if err != nil {
			return 0, err
		}
		const n = 64
		var failed error
		d, _ := rung(budget, timed(func() {
			for i := 0; i < n; i++ {
				if _, err := log.AppendPing(foodmatch.WALPingRecord{Vehicle: int64(i + 1), Node: int64(i)}); err != nil {
					failed = err
				}
			}
		}))
		if err := log.Close(); err != nil && failed == nil {
			failed = err
		}
		return us(d) / n, failed
	}
	var err error
	if out["wal.append_sync_us"], err = appendRung(1); err != nil {
		fmt.Printf("# ladder: wal sync rung: %v\n", err)
	}
	if out["wal.append_nosync_us"], err = appendRung(math.MaxInt32); err != nil {
		fmt.Printf("# ladder: wal nosync rung: %v\n", err)
	}

	g := fx.city.G
	learner := foodmatch.NewStreamLearner(g, foodmatch.StreamLearnerOptions{})
	type edge struct {
		u, v roadnet.NodeID
		sec  float64
	}
	var edges []edge
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range g.OutEdges(roadnet.NodeID(u)) {
			edges = append(edges, edge{roadnet.NodeID(u), e.To, g.EdgeTime(e, ladderNow)})
		}
	}
	d, _ := rung(budget, timed(func() {
		for _, e := range edges {
			learner.ObserveEdge(e.u, e.v, ladderNow, e.sec)
		}
	}))
	out["gps.observe_edge_ns"] = float64(d.Nanoseconds()) / float64(len(edges))
}
