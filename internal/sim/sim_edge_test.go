package sim_test

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/roadnet"
)

// TestMultiWindowPrepWait: the vehicle reaches the restaurant long before
// the food is ready and must idle across several accumulation windows.
func TestMultiWindowPrepWait(t *testing.T) {
	g := lineCity(10, 30)
	o := mkOrder(1, 1, 5, 0, 900) // 15 min prep
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig() // 60 s windows
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if o.PickedUpAt != 900 {
		t.Fatalf("picked up at %v, want 900 (ReadyAt across many windows)", o.PickedUpAt)
	}
	// Arrived at 90 (assigned at 60, one hop 30 s); waited 810 s.
	if math.Abs(m.WaitSec-810) > 1e-6 {
		t.Fatalf("wait = %v, want 810", m.WaitSec)
	}
}

// TestShiftEndMidDelivery: a vehicle whose shift ends while carrying an
// order still completes the delivery, but takes no new work.
func TestShiftEndMidDelivery(t *testing.T) {
	g := lineCity(30, 60)
	o1 := mkOrder(1, 2, 20, 0, 60)
	o2 := mkOrder(2, 2, 21, 700, 60) // placed after the shift ends
	v := model.NewVehicle(1, 0, 3)
	v.ActiveTo = 600 // shift ends during o1's delivery
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o1, o2}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 3600)
	if o1.State != model.OrderDelivered {
		t.Fatalf("in-flight order not completed after shift end: %v", o1.State)
	}
	if o2.State == model.OrderDelivered {
		t.Fatal("off-shift vehicle accepted new work")
	}
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1 (the post-shift order)", m.Rejected)
	}
}

// TestStrandedOrderOnOneWayTrap: failure injection — the customer is
// reachable for assignment purposes (within SPBound) but the graph traps
// the vehicle. Here the customer is genuinely unreachable from the
// restaurant; the order must be counted stranded/rejected, never delivered,
// and the simulator must not wedge.
func TestStrandedOrderOnOneWayTrap(t *testing.T) {
	b := roadnet.NewBuilder()
	a := b.AddNode(geo.Point{Lat: 0})
	r := b.AddNode(geo.Point{Lat: 0.001})
	c := b.AddNode(geo.Point{Lat: 0.002})
	b.AddEdge(a, r, 100, 30, 0)
	b.AddEdge(r, a, 100, 30, 0)
	b.AddEdge(c, r, 100, 30, 0) // one-way: c -> r only
	g := b.MustBuild()
	o := &model.Order{ID: 1, Restaurant: r, Customer: c, PlacedAt: 0, Items: 1, Prep: 30, AssignedTo: -1}
	v := model.NewVehicle(1, a, 3)
	cfg := testConfig()
	s, err := engine.NewSimulator(g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, engine.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(0, 3600)
	if o.State == model.OrderDelivered {
		t.Fatal("undeliverable order delivered")
	}
	if m.Delivered != 0 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if m.Rejected+m.Stranded != 1 {
		t.Fatalf("order unaccounted: rejected=%d stranded=%d", m.Rejected, m.Stranded)
	}
}

// TestSingleOrderModeVehiclesServeOneAtATime verifies the vanilla-KM
// availability rule end to end: with two orders and one vehicle, the
// second order is only assigned after the first is delivered.
func TestSingleOrderModeVehiclesServeOneAtATime(t *testing.T) {
	g := lineCity(20, 30)
	o1 := mkOrder(1, 2, 6, 0, 60)
	o2 := mkOrder(2, 2, 7, 0, 60)
	v := model.NewVehicle(1, 0, 3)
	cfg := policy.ConfigureVanillaKM(testConfig())
	m := runSim(t, g, []*model.Order{o1, o2}, []*model.Vehicle{v}, policy.NewVanillaKM(), cfg, 7200)
	if m.Delivered != 2 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	first, second := o1, o2
	if o2.AssignedAt < o1.AssignedAt {
		first, second = o2, o1
	}
	if second.AssignedAt < first.DeliveredAt {
		t.Fatalf("single-order KM overlapped deliveries: second assigned %v before first delivered %v",
			second.AssignedAt, first.DeliveredAt)
	}
}

// TestIncumbentStickinessUnderTies: with reshuffling on and two equally
// good vehicles, the assignment must not bounce between them.
func TestIncumbentStickinessUnderTies(t *testing.T) {
	g := lineCity(41, 60)
	// Restaurant exactly midway between two vehicles; long prep keeps the
	// order pending across many windows.
	o := mkOrder(1, 20, 25, 0, 1500)
	v1 := model.NewVehicle(1, 0, 3)
	v2 := model.NewVehicle(2, 40, 3)
	cfg := testConfig()
	s, err := engine.NewSimulator(g, []*model.Order{o}, []*model.Vehicle{v1, v2}, policy.NewFoodMatch(), cfg, engine.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(0, 2*3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if m.Reassignments > 1 {
		t.Fatalf("tie-churn: %d reassignments for a symmetric instance", m.Reassignments)
	}
}

// TestOrdersAccountedAcrossPolicies fuzzes a moderate scenario per policy
// and checks global conservation: every admitted order ends delivered,
// rejected, or stranded.
func TestOrdersAccountedAcrossPolicies(t *testing.T) {
	for _, mk := range []func() policy.Policy{
		func() policy.Policy { return policy.NewFoodMatch() },
		func() policy.Policy { return policy.NewGreedy() },
		func() policy.Policy { return policy.NewReyes() },
		func() policy.Policy { return policy.NewVanillaKM() },
	} {
		pol := mk()
		g := lineCity(50, 45)
		var orders []*model.Order
		for i := 0; i < 30; i++ {
			orders = append(orders, mkOrder(model.OrderID(i+1),
				roadnet.NodeID(5+(i*7)%40), roadnet.NodeID(3+(i*11)%45),
				float64(i*45), float64(120+(i*60)%600)))
		}
		var fleet []*model.Vehicle
		for i := 0; i < 4; i++ {
			fleet = append(fleet, model.NewVehicle(model.VehicleID(i+1), roadnet.NodeID(i*12), 3))
		}
		cfg := testConfig()
		if pol.Name() == "KM" {
			policy.ConfigureVanillaKM(cfg)
		}
		m := runSim(t, g, orders, fleet, pol, cfg, 3*3600)
		if m.Delivered+m.Rejected+m.Stranded != m.TotalOrders {
			t.Fatalf("%s: conservation broken: %s", pol.Name(), m.Summary())
		}
		for _, o := range orders {
			if o.State == model.OrderDelivered {
				if o.DeliveredAt < o.PickedUpAt || o.PickedUpAt < o.ReadyAt()-1e-9 {
					t.Fatalf("%s: causality broken for order %d: picked %v ready %v delivered %v",
						pol.Name(), o.ID, o.PickedUpAt, o.ReadyAt(), o.DeliveredAt)
				}
			}
		}
	}
}

// TestDistanceMonotoneInLoad: the O/Km numerator can never exceed
// MAXO times the denominator.
func TestDistanceLoadBound(t *testing.T) {
	g := lineCity(40, 45)
	var orders []*model.Order
	for i := 0; i < 20; i++ {
		orders = append(orders, mkOrder(model.OrderID(i+1),
			roadnet.NodeID(10+(i*3)%20), roadnet.NodeID(15+(i*7)%25), float64(i*30), 300))
	}
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	m := runSim(t, g, orders, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 3*3600)
	if okm := m.OrdersPerKm(); okm > float64(cfg.MaxO) {
		t.Fatalf("O/Km %v exceeds MAXO %d", okm, cfg.MaxO)
	}
	for load, d := range m.LoadDistM {
		if load > cfg.MaxO && d > 0 {
			t.Fatalf("distance recorded at impossible load %d", load)
		}
	}
}

// TestDecisionGraphSeparation: the policy decides on a slower decision
// graph while execution runs on the true one — deliveries still complete
// and realised XDT reflects the true network.
func TestDecisionGraphSeparation(t *testing.T) {
	g := lineCity(20, 30)
	slow := lineCity(20, 90) // pessimistic decision weights, same topology
	o := mkOrder(1, 5, 10, 10, 120)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	s, err := engine.NewSimulator(g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg,
		engine.SimOptions{DecisionGraph: slow})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(0, 3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	// Realised timings come from the true 30 s/hop graph: same as the
	// baseline scenario in TestSingleOrderDelivered.
	if o.DeliveredAt != 360 {
		t.Fatalf("delivered at %v, want 360 (true-graph execution)", o.DeliveredAt)
	}
}

func TestDecisionGraphMismatchRejected(t *testing.T) {
	g := lineCity(20, 30)
	other := lineCity(5, 30)
	if _, err := engine.NewSimulator(g, nil, nil, policy.NewFoodMatch(), testConfig(),
		engine.SimOptions{DecisionGraph: other}); err == nil {
		t.Fatal("mismatched decision graph accepted")
	}
}

// TestMetricsReportingPaths exercises the summary/report helpers.
func TestMetricsReportingPaths(t *testing.T) {
	g := lineCity(20, 30)
	o := mkOrder(1, 5, 10, 12*3600, 120) // noon = peak slot
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	cfg.ComputeBudget = 1e-12
	s, err := engine.NewSimulator(g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, engine.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(12*3600, 13*3600)
	if m.Summary() == "" {
		t.Fatal("empty summary")
	}
	if m.PeakOverflowRate() <= 0 {
		t.Fatal("noon windows should overflow the impossible budget")
	}
	if m.MeanDeliveryMin() <= 0 || m.MeanXDTMin() < -60 {
		t.Fatalf("delivery stats implausible: %v / %v", m.MeanDeliveryMin(), m.MeanXDTMin())
	}
	if m.SlotOrdersPerKm(12) < 0 {
		t.Fatal("negative slot O/Km")
	}
	if m.AssignSecMax < 0 {
		t.Fatal("negative max assign time")
	}
}
