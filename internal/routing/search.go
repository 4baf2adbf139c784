package routing

import (
	"math"
	"sync"

	"repro/internal/model"
	"repro/internal/roadnet"
)

// LegTable memoises SP legs between a fixed set of numbered stops, so a
// route search indexes an array where it used to ask the router. It leans on
// the Router contract that an answer depends on t only through
// roadnet.Slot(t): legs are priced at the arrival-time slot, so the table
// keeps one k×k way for the slot of its start time and a second for the next
// slot a plan runs into; a third slot falls through to the router.
//
// A table lives for one call — one Optimize or one batching window — and is
// never reused across rounds, so weight publishes and hourly cache resets
// need no invalidation. Not safe for concurrent use.
type LegTable struct {
	rt    roadnet.Router
	nodes []roadnet.NodeID // stop number → road node
	k     int
	// rowFill selects the fill policy. A window table shared by thousands of
	// searches fills a whole row with one TravelMany on first touch; the
	// per-call table behind Optimize asks for single cells, because a one- or
	// two-order search reads too few of a row to pay for it.
	rowFill bool
	slot    [2]int // slot of each way; slot[1] < 0 until a second is claimed
	band    [2]hour
	cells   [2][]float64
	buf     []float64 // backing of both ways, reused by pooled searches
}

// hour is the open interval of clock times one second inside an hour on both
// sides. t/3600 can round across a slot boundary within an ulp, so only
// inside this band may a way be picked without computing roadnet.Slot(t).
type hour struct{ lo, hi float64 }

func hourOf(t float64) hour {
	h := math.Floor(t / 3600)
	return hour{h*3600 + 1, (h+1)*3600 - 1}
}

func (h hour) has(t float64) bool { return t > h.lo && t < h.hi }

// NewLegTable returns a table over the given distinct stop nodes for
// searches starting at time t0, shared by every Search made from it. Stops
// are numbered by their position in nodes.
func NewLegTable(rt roadnet.Router, nodes []roadnet.NodeID, t0 float64) *LegTable {
	lt := &LegTable{nodes: nodes, rowFill: true}
	lt.reset(rt, t0)
	return lt
}

// reset lays the table out over lt.nodes, every cell unknown.
func (lt *LegTable) reset(rt roadnet.Router, t0 float64) {
	lt.rt = rt
	k := len(lt.nodes)
	lt.k = k
	if cap(lt.buf) < 2*k*k {
		lt.buf = make([]float64, 2*k*k)
	}
	lt.cells[0] = unknown(lt.buf[:k*k])
	lt.cells[1] = nil
	lt.slot = [2]int{roadnet.Slot(t0), -1}
	lt.band = [2]hour{hourOf(t0), {}}
}

func unknown(c []float64) []float64 {
	nan := math.NaN()
	for i := range c {
		c[i] = nan
	}
	return c
}

// intern returns the stop number of node u in a per-call table, adding it
// when new. Linear scan: such a table holds at most 2·MAXO+1 stops.
func (lt *LegTable) intern(u roadnet.NodeID) int32 {
	for i, v := range lt.nodes {
		if v == u {
			return int32(i)
		}
	}
	lt.nodes = append(lt.nodes, u)
	return int32(len(lt.nodes) - 1)
}

// way returns which of the two slot ways prices a departure at t, claiming
// the second on first need; -1 when t falls in a third slot.
func (lt *LegTable) way(t float64) int {
	s := roadnet.Slot(t)
	if s == lt.slot[0] {
		return 0
	}
	if lt.slot[1] < 0 {
		lt.slot[1] = s
		lt.band[1] = hourOf(t)
		lt.cells[1] = unknown(lt.buf[lt.k*lt.k : 2*lt.k*lt.k])
	}
	if s == lt.slot[1] {
		return 1
	}
	return -1
}

// row returns the memo row of legs leaving stop `from` at time t, nil when
// t's slot has no way.
func (lt *LegTable) row(from int32, t float64) []float64 {
	w := 0
	if !lt.band[0].has(t) {
		if lt.band[1].has(t) {
			w = 1
		} else if w = lt.way(t); w < 0 {
			return nil
		}
	}
	i := int(from) * lt.k
	return lt.cells[w][i : i+lt.k]
}

// leg reads SP(from, to, t) through row = lt.row(from, t).
func (lt *LegTable) leg(row []float64, from, to int32, t float64) float64 {
	if row != nil {
		if d := row[to]; d == d {
			return d
		}
	}
	return lt.miss(from, to, t)
}

// miss asks the router and remembers the answer.
func (lt *LegTable) miss(from, to int32, t float64) float64 {
	row := lt.row(from, t)
	switch {
	case row == nil:
		return lt.rt.Travel(lt.nodes[from], lt.nodes[to], t)
	case lt.rowFill:
		copy(row, roadnet.TravelMany(lt.rt, lt.nodes[from], lt.nodes, t))
	default:
		row[to] = lt.rt.Travel(lt.nodes[from], lt.nodes[to], t)
	}
	return row[to]
}

// Leg returns SP between two numbered stops departing at t, exactly the
// router's answer.
func (lt *LegTable) Leg(from, to int, t float64) float64 {
	return lt.leg(lt.row(int32(from), t), int32(from), int32(to), t)
}

// NewSearch returns a Search whose legs come from this shared table.
func (lt *LegTable) NewSearch() *Search { return &Search{lt: lt} }

// Search is the exact quickest-route-plan search (Definition 3) over
// numbered stops: it enumerates every stop sequence respecting
// pickup-before-dropoff with branch-and-bound on Σ dropTime and reads every
// leg from a LegTable.
//
// Minimising ΣXDT = Σ(dropTime − PlacedAt − SDT) is the same as minimising
// Σ dropTime, because the placement and SDT terms are constants of the order
// set. The bound is admissible: dropoff instants are positive and every
// remaining dropoff happens after the current clock, so partial +
// remaining·now lower-bounds any completion.
//
// Expansion order and tie-breaks are part of the contract, because golden
// traces pin the plans: onboard dropoffs in slice order, then per order
// pickup-if-not-picked-else-dropoff, and a plan replaces the incumbent only
// on strict improvement. A Search is single-goroutine state.
type Search struct {
	lt  *LegTable
	own LegTable // the per-call table behind Optimize and MarginalCost

	onboard []carried
	orders  []visit

	best    float64 // Σ dropTime a plan must beat
	seq     []int16 // stops of the branch being explored
	bestSeq []int16 // the plan that set best
	plan    []int16 // the accepted plan, read by Plan
}

// carried is an order already on board: one dropoff stop.
type carried struct {
	o    *model.Order
	drop int32
	done bool
}

// visit is an order to pick up and drop off.
type visit struct {
	o          *model.Order
	ready      float64
	pick, drop int32
	state      uint8
}

const (
	waiting uint8 = iota
	picked
	dropped
)

// seq encoding: order i's pickup is 2i, its dropoff 2i+1; onboard order i's
// dropoff is -1-i.

var searchPool = sync.Pool{New: func() any { return new(Search) }}

// acquire returns a pooled Search on its own per-call table: the caller
// numbers the stops, resets the table, searches, and releases.
func acquire() *Search {
	s := searchPool.Get().(*Search)
	s.lt = &s.own
	s.own.nodes = s.own.nodes[:0]
	s.Reset()
	return s
}

// release drops every order and router pointer and returns s to the pool.
func (s *Search) release() {
	clear(s.onboard[:cap(s.onboard)])
	clear(s.orders[:cap(s.orders)])
	s.own.rt = nil
	s.lt = nil
	searchPool.Put(s)
}

// number loads an Optimize-shaped problem — toPickup may come in several
// slices, searched as their concatenation — numbering its stops in the
// per-call table, equal nodes sharing a number. Returns the start's number.
func (s *Search) number(start roadnet.NodeID, onboard []*model.Order, toPickup ...[]*model.Order) int32 {
	at := s.own.intern(start)
	for _, o := range onboard {
		s.onboard = append(s.onboard, carried{o: o, drop: s.own.intern(o.Customer)})
	}
	for _, group := range toPickup {
		for _, o := range group {
			s.Add(o, int(s.own.intern(o.Restaurant)), int(s.own.intern(o.Customer)))
		}
	}
	return at
}

// solve finds the quickest plan from stop `at` at time t over the loaded
// order set and returns its ΣXDT; the plan is then behind Plan.
func (s *Search) solve(at int32, t float64) (float64, bool) {
	s.best = math.Inf(1)
	if !s.run(at, t) {
		return 0, false
	}
	s.accept()
	return s.best - s.constTerm(), true
}

// Reset empties the order set, keeping the table.
func (s *Search) Reset() {
	s.onboard = s.onboard[:0]
	s.orders = s.orders[:0]
}

// Add appends an order to pick up at stop `pickup` and drop at stop
// `dropoff` of the table.
func (s *Search) Add(o *model.Order, pickup, dropoff int) {
	s.orders = append(s.orders, visit{o: o, ready: o.ReadyAt(), pick: int32(pickup), drop: int32(dropoff)})
}

// constTerm is Σ(PlacedAt + SDT) over the order set: what separates the
// searched Σ dropTime from ΣXDT.
func (s *Search) constTerm() float64 {
	c := 0.0
	for i := range s.onboard {
		c += s.onboard[i].o.PlacedAt + s.onboard[i].o.SDT
	}
	for i := range s.orders {
		c += s.orders[i].o.PlacedAt + s.orders[i].o.SDT
	}
	return c
}

// run searches from stop `at` at time t for a plan whose Σ dropTime is
// strictly below s.best, and reports whether it found one (then s.best and
// s.bestSeq describe it).
func (s *Search) run(at int32, t float64) bool {
	n := len(s.onboard) + len(s.orders)
	if need := n + len(s.orders); cap(s.seq) < need {
		s.seq = make([]int16, need)
	}
	s.seq = s.seq[:cap(s.seq)]
	before := s.best
	if !s.cut(0, n, t) {
		s.dfs(at, t, 0, n, 0)
	}
	return s.best < before
}

// accept makes the plan run just found the one Plan returns.
func (s *Search) accept() { s.plan, s.bestSeq = s.bestSeq, s.plan }

// cut is the branch-and-bound test: no completion of a branch at clock t
// with `remaining` dropoffs owed can beat the incumbent.
func (s *Search) cut(dropSum float64, remaining int, t float64) bool {
	return dropSum+float64(remaining)*t >= s.best
}

// dfs extends a branch that cut did not prune.
func (s *Search) dfs(at int32, t, dropSum float64, remaining, depth int) {
	if remaining == 0 {
		s.best = dropSum
		s.bestSeq = append(s.bestSeq[:0], s.seq[:depth]...)
		return
	}
	lt := s.lt
	row := lt.row(at, t)
	for i := range s.onboard {
		c := &s.onboard[i]
		if c.done {
			continue
		}
		leg := lt.leg(row, at, c.drop, t)
		if math.IsInf(leg, 1) {
			continue
		}
		nt := t + leg
		if s.cut(dropSum+nt, remaining-1, nt) {
			continue
		}
		c.done = true
		s.seq[depth] = int16(-1 - i)
		s.dfs(c.drop, nt, dropSum+nt, remaining-1, depth+1)
		c.done = false
	}
	for i := range s.orders {
		v := &s.orders[i]
		switch v.state {
		case waiting:
			leg := lt.leg(row, at, v.pick, t)
			if math.IsInf(leg, 1) {
				continue
			}
			nt := t + leg
			if nt < v.ready {
				nt = v.ready
			}
			if s.cut(dropSum, remaining, nt) {
				continue
			}
			v.state = picked
			s.seq[depth] = int16(2 * i)
			s.dfs(v.pick, nt, dropSum, remaining, depth+1)
			v.state = waiting
		case picked:
			leg := lt.leg(row, at, v.drop, t)
			if math.IsInf(leg, 1) {
				continue
			}
			nt := t + leg
			if s.cut(dropSum+nt, remaining-1, nt) {
				continue
			}
			v.state = dropped
			s.seq[depth] = int16(2*i + 1)
			s.dfs(v.drop, nt, dropSum+nt, remaining-1, depth+1)
			v.state = picked
		}
	}
}

// FromFirstPickup prices the order set as a batch (Section IV-B1: "the
// initial location of each simulated vehicle is the first location in the
// optimal route plan"): the vehicle is tried at every order's pickup stop at
// time now, and the cheapest start wins, the earliest on ties. Each start
// searches under the best Σ dropTime of the starts before it. Returns the
// batch's ΣXDT; ok=false when no start reaches every stop.
func (s *Search) FromFirstPickup(now float64) (cost float64, ok bool) {
	c := s.constTerm()
	s.best = math.Inf(1)
	cost = math.Inf(1)
starts:
	for i := range s.orders {
		start := s.orders[i].pick
		for j := 0; j < i; j++ {
			if s.orders[j].pick == start {
				continue starts
			}
		}
		if !s.run(start, now) {
			continue
		}
		if x := s.best - c; x < cost {
			cost, ok = x, true
			s.accept()
		}
	}
	return cost, ok
}

// Plan materialises the plan the last successful search accepted.
func (s *Search) Plan() *model.RoutePlan {
	stops := make([]model.Stop, len(s.plan))
	for k, code := range s.plan {
		switch {
		case code < 0:
			o := s.onboard[-1-code].o
			stops[k] = model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff}
		case code%2 == 0:
			o := s.orders[code/2].o
			stops[k] = model.Stop{Node: o.Restaurant, Order: o, Kind: model.Pickup}
		default:
			o := s.orders[code/2].o
			stops[k] = model.Stop{Node: o.Customer, Order: o, Kind: model.Dropoff}
		}
	}
	return &model.RoutePlan{Stops: stops}
}
