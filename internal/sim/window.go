package sim

import (
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/routing"
	"repro/internal/trace"
)

// RoundWorld bundles the world state the application phase of a round
// mutates: attaching the policy's assignments to vehicles and restoring
// unplaced reshuffled orders to their incumbents. Its one caller is the
// engine's round (engine/round.go), which replans per zone shard through
// ReplanAfterRound.
type RoundWorld struct {
	ByID  map[model.VehicleID]*Motion
	Mover *Mover
	Cfg   *model.Config
	Trace trace.Sink
}

// ReleasePending implements the reshuffle release (Section IV-D2) for one
// vehicle: its assigned-but-unpicked orders return to the pool, their
// incumbents recorded. Returns the extended order slice and whether
// anything was released.
func ReleasePending(v *model.Vehicle, now float64, sink trace.Sink, orders []*model.Order,
	incumbent map[model.OrderID]model.VehicleID) ([]*model.Order, bool) {
	if len(v.Pending) == 0 {
		return orders, false
	}
	for _, o := range v.Pending {
		o.State = model.OrderPlaced
		incumbent[o.ID] = o.AssignedTo
		o.AssignedTo = -1
		orders = append(orders, o)
		sink.Emit(trace.Event{Kind: trace.OrderReleased, T: now, Order: o.ID, Vehicle: incumbent[o.ID]})
	}
	v.Pending = v.Pending[:0]
	return orders, true
}

// Applied describes one applied assignment decision.
type Applied struct {
	Vehicle *model.Vehicle
	Orders  []model.OrderID
	// ReassignedOrders counts orders that moved off a different incumbent.
	ReassignedOrders int
}

// ApplyAssignments attaches each assignment's orders to its vehicle,
// replaces the vehicle's plan, and records the touched orders/vehicles in
// the provided sets. It returns the applied decisions in input order.
func (w *RoundWorld) ApplyAssignments(now float64, as []policy.Assignment,
	incumbent map[model.OrderID]model.VehicleID,
	assignedOrders map[model.OrderID]bool, assignedVehicles map[model.VehicleID]bool) []Applied {
	applied := make([]Applied, 0, len(as))
	for _, a := range as {
		v := a.Vehicle
		assignedVehicles[v.ID] = true
		ap := Applied{Vehicle: v, Orders: make([]model.OrderID, 0, len(a.Orders))}
		for _, o := range a.Orders {
			o.State = model.OrderAssigned
			if prev, had := incumbent[o.ID]; had && prev != v.ID {
				ap.ReassignedOrders++
			}
			o.AssignedTo = v.ID
			o.AssignedAt = now
			assignedOrders[o.ID] = true
			v.Pending = append(v.Pending, o)
			ap.Orders = append(ap.Orders, o.ID)
			w.Trace.Emit(trace.Event{Kind: trace.OrderAssigned, T: now, Order: o.ID, Vehicle: v.ID})
		}
		w.setPlan(v, a.Plan)
		applied = append(applied, ap)
	}
	return applied
}

// ReplanAfterRound rebuilds one vehicle's plan after the application phase:
// a restored vehicle gets a full quickest plan over its onboard dropoffs
// and (restored) pending pickups; a stripped-but-unmatched vehicle gets a
// dropoff-only plan — or an empty one when nothing is onboard — keeping its
// old dropoff order as the fallback when optimisation fails.
func ReplanAfterRound(rt roadnet.Router, m *Mover, mo *Motion, now float64, restored bool) {
	v := mo.V
	switch {
	case restored:
		if plan, _, ok := routing.Optimize(rt, v.Node, now, v.Onboard, v.Pending); ok {
			m.SetPlan(mo, plan)
		}
	case len(v.Onboard) == 0:
		m.SetPlan(mo, &model.RoutePlan{})
	default:
		if plan, _, ok := routing.Optimize(rt, v.Node, now, v.Onboard, nil); ok {
			m.SetPlan(mo, plan)
		}
	}
}

// DecideRestores gives a reshuffled order the matching did not place
// anywhere back to its previous vehicle — reshuffling looks for *better*
// vehicles, it never strands an order that already had one. The incumbent
// may have received a new batch this round; restore only while capacity
// allows. Returns the restored-vehicle set, leaving the (independent,
// Dijkstra-heavy) per-vehicle replanning to the caller, which fans it out
// per zone shard.
func (w *RoundWorld) DecideRestores(now float64, orders []*model.Order,
	incumbent map[model.OrderID]model.VehicleID, assignedOrders map[model.OrderID]bool) map[model.VehicleID]bool {
	restored := make(map[model.VehicleID]bool)
	for _, o := range orders {
		if assignedOrders[o.ID] || o.State != model.OrderPlaced {
			continue
		}
		prev, had := incumbent[o.ID]
		if !had {
			continue
		}
		mo := w.ByID[prev]
		if mo == nil || !mo.V.Active(now) {
			continue
		}
		v := mo.V
		if v.OrderCount()+1 > w.Cfg.MaxO || v.ItemCount()+o.Items > w.Cfg.MaxI {
			continue
		}
		o.State = model.OrderAssigned
		o.AssignedTo = v.ID
		v.Pending = append(v.Pending, o)
		assignedOrders[o.ID] = true
		restored[v.ID] = true
		w.Trace.Emit(trace.Event{Kind: trace.OrderAssigned, T: now, Order: o.ID, Vehicle: v.ID})
	}
	return restored
}

// PoolCarry reports whether an order stays in the pool after a round.
func PoolCarry(o *model.Order, assignedOrders map[model.OrderID]bool) bool {
	return !assignedOrders[o.ID] && o.State == model.OrderPlaced
}

func (w *RoundWorld) setPlan(v *model.Vehicle, plan *model.RoutePlan) {
	if mo := w.ByID[v.ID]; mo != nil {
		w.Mover.SetPlan(mo, plan)
	}
}
