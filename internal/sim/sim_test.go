package sim_test

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lineCity builds a 1-D road: nodes 0..n-1, hop time w seconds, hop length
// w*8 metres (≈ 8 m/s).
func lineCity(n int, w float64) *roadnet.Graph {
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{Lat: 12.9 + float64(i)*0.001, Lon: 77.5})
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(roadnet.NodeID(i), roadnet.NodeID(i+1), w*8, w, 0)
		b.AddEdge(roadnet.NodeID(i+1), roadnet.NodeID(i), w*8, w, 0)
	}
	return b.MustBuild()
}

func testConfig() *model.Config {
	cfg := model.DefaultConfig()
	cfg.Delta = 60
	return cfg
}

func mkOrder(id model.OrderID, r, c roadnet.NodeID, placed, prep float64) *model.Order {
	return &model.Order{ID: id, Restaurant: r, Customer: c, PlacedAt: placed, Items: 1, Prep: prep, AssignedTo: -1}
}

func runSim(t *testing.T, g *roadnet.Graph, orders []*model.Order, vehicles []*model.Vehicle, pol policy.Policy, cfg *model.Config, horizon float64) *sim.Metrics {
	t.Helper()
	s, err := engine.NewSimulator(g, orders, vehicles, pol, cfg, engine.SimOptions{})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	m := s.Run(0, horizon)
	if err := m.Validate(); err != nil {
		t.Fatalf("metrics inconsistent: %v", err)
	}
	return m
}

func TestSingleOrderDelivered(t *testing.T) {
	g := lineCity(20, 30) // 30 s per hop
	o := mkOrder(1, 5, 10, 10, 120)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 3600)

	if m.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (state=%v)", m.Delivered, o.State)
	}
	if o.State != model.OrderDelivered {
		t.Fatalf("order state = %v", o.State)
	}
	// Assignment at first window end (t=60); vehicle drives 5 hops = 150 s
	// to the restaurant, food ready at 130 → no wait; 5 hops to customer.
	if o.PickedUpAt != 210 {
		t.Fatalf("picked up at %v, want 210", o.PickedUpAt)
	}
	if o.DeliveredAt != 360 {
		t.Fatalf("delivered at %v, want 360", o.DeliveredAt)
	}
	// SDT = 120 + 150 = 270; delivery time = 350; XDT = 80.
	if math.Abs(o.XDT()-80) > 1e-9 {
		t.Fatalf("XDT = %v, want 80", o.XDT())
	}
	if math.Abs(m.XDTSec-80) > 1e-9 {
		t.Fatalf("metrics XDT = %v, want 80", m.XDTSec)
	}
	// Distance: 10 hops × 240 m. First 5 hops empty, last 5 loaded with 1.
	if math.Abs(m.DistM-2400) > 1 {
		t.Fatalf("distance = %v, want 2400", m.DistM)
	}
	if math.Abs(m.LoadDistM[0]-1200) > 1 || math.Abs(m.LoadDistM[1]-1200) > 1 {
		t.Fatalf("load split = %v", m.LoadDistM)
	}
	if math.Abs(m.OrdersPerKm()-0.5) > 1e-9 {
		t.Fatalf("O/Km = %v, want 0.5", m.OrdersPerKm())
	}
}

func TestWaitingTimeAccrues(t *testing.T) {
	g := lineCity(10, 30)
	// Vehicle adjacent to the restaurant; long prep forces a wait.
	o := mkOrder(1, 1, 5, 0, 600)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	// Assigned at 60, arrives at 90, food ready at 600 → waits 510 s.
	if math.Abs(m.WaitSec-510) > 1e-6 {
		t.Fatalf("wait = %v, want 510", m.WaitSec)
	}
	if o.PickedUpAt != 600 {
		t.Fatalf("picked up at %v, want 600 (ReadyAt)", o.PickedUpAt)
	}
}

func TestRejectionAfterDeadline(t *testing.T) {
	g := lineCity(10, 300) // 5 min per hop
	// The restaurant is 4 hops = 20 min from the only vehicle; with a
	// first-mile cap of 10 min no vehicle may take the order, so it rots
	// past the 30-minute deadline and is rejected.
	o := mkOrder(1, 4, 8, 0, 60)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	cfg.MaxFirstMile = 600
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 3600)
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1 (state %v)", m.Rejected, o.State)
	}
	if o.State != model.OrderRejected {
		t.Fatalf("state = %v, want rejected", o.State)
	}
	if m.RejectionPenaltySec != cfg.Omega {
		t.Fatalf("penalty = %v, want Ω", m.RejectionPenaltySec)
	}
}

func TestBatchingSharesVehicle(t *testing.T) {
	g := lineCity(30, 30)
	// Two same-restaurant orders to neighbouring customers; one distant
	// vehicle: both should ride together.
	o1 := mkOrder(1, 10, 20, 0, 300)
	o2 := mkOrder(2, 10, 21, 5, 300)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o1, o2}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 7200)
	if m.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", m.Delivered)
	}
	if o1.AssignedTo != o2.AssignedTo {
		t.Fatal("orders not batched onto the same vehicle")
	}
	if m.OrdersPerKm() <= 0.5 {
		t.Fatalf("O/Km = %v; batching should beat the solo 0.5", m.OrdersPerKm())
	}
}

func TestGreedyDeliversToo(t *testing.T) {
	g := lineCity(30, 30)
	o1 := mkOrder(1, 10, 20, 0, 300)
	o2 := mkOrder(2, 12, 25, 5, 300)
	v1 := model.NewVehicle(1, 0, 3)
	v2 := model.NewVehicle(2, 29, 3)
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o1, o2}, []*model.Vehicle{v1, v2}, policy.NewGreedy(), cfg, 7200)
	if m.Delivered != 2 {
		t.Fatalf("Greedy delivered %d of 2", m.Delivered)
	}
}

func TestReyesDeliversToo(t *testing.T) {
	g := lineCity(30, 30)
	o1 := mkOrder(1, 10, 20, 0, 300)
	o2 := mkOrder(2, 10, 25, 5, 300)
	v1 := model.NewVehicle(1, 0, 3)
	v2 := model.NewVehicle(2, 29, 3)
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o1, o2}, []*model.Vehicle{v1, v2}, policy.NewReyes(), cfg, 7200)
	if m.Delivered != 2 {
		t.Fatalf("Reyes delivered %d of 2", m.Delivered)
	}
}

func TestReshuffleImprovesAssignment(t *testing.T) {
	// An order is assigned to a distant vehicle; a much closer vehicle
	// frees up in the next window (new vehicle shift) — reshuffling should
	// let the order switch vehicles before pickup.
	g := lineCity(60, 60) // 1 min per hop
	o := mkOrder(1, 30, 35, 0, 1200)
	far := model.NewVehicle(1, 0, 3)
	near := model.NewVehicle(2, 29, 3)
	near.ActiveFrom = 90 // appears after the first assignment round
	cfg := testConfig()
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{far, near}, policy.NewFoodMatch(), cfg, 2*3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if o.AssignedTo != near.ID {
		t.Fatalf("order stuck on far vehicle %d; reshuffle failed", o.AssignedTo)
	}
}

func TestNoReshuffleKeepsFirstAssignment(t *testing.T) {
	g := lineCity(60, 60)
	o := mkOrder(1, 30, 35, 0, 1200)
	far := model.NewVehicle(1, 0, 3)
	near := model.NewVehicle(2, 29, 3)
	near.ActiveFrom = 90
	cfg := testConfig()
	cfg.Reshuffle = false
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{far, near}, policy.NewFoodMatch(), cfg, 2*3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if o.AssignedTo != far.ID {
		t.Fatalf("order moved to %d despite reshuffling disabled", o.AssignedTo)
	}
}

func TestVehicleCapacityNeverExceeded(t *testing.T) {
	g := lineCity(30, 20)
	var orders []*model.Order
	for i := 0; i < 12; i++ {
		orders = append(orders, mkOrder(model.OrderID(i+1), roadnet.NodeID(10+i%5), roadnet.NodeID(20+i%5), float64(i*10), 300))
	}
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	s, err := engine.NewSimulator(g, orders, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, engine.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Step manually and check the invariant after every window.
	done := make(chan *sim.Metrics, 1)
	go func() { done <- s.Run(0, 3600) }()
	m := <-done
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.OrderCount() != 0 {
		t.Fatalf("vehicle still carries %d orders after drain", v.OrderCount())
	}
	if m.Delivered+m.Rejected+m.Stranded != len(orders) {
		t.Fatalf("orders unaccounted: delivered %d rejected %d stranded %d of %d",
			m.Delivered, m.Rejected, m.Stranded, len(orders))
	}
}

func TestOverflowAccounting(t *testing.T) {
	g := lineCity(20, 30)
	o := mkOrder(1, 5, 10, 10, 120)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	cfg.ComputeBudget = 1e-12 // everything overflows
	m := runSim(t, g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, 1800)
	if m.OverflownWindows == 0 {
		t.Fatal("no overflow recorded with an impossible budget")
	}
	if m.OverflowRate() <= 0 || m.OverflowRate() > 1 {
		t.Fatalf("overflow rate = %v", m.OverflowRate())
	}
}

func TestInvalidVehicleNode(t *testing.T) {
	g := lineCity(5, 30)
	v := model.NewVehicle(1, 99, 3)
	if _, err := engine.NewSimulator(g, nil, []*model.Vehicle{v}, policy.NewFoodMatch(), testConfig(), engine.SimOptions{}); err == nil {
		t.Fatal("off-graph vehicle accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	g := lineCity(5, 30)
	cfg := testConfig()
	cfg.Delta = 0
	if _, err := engine.NewSimulator(g, nil, nil, policy.NewFoodMatch(), cfg, engine.SimOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestZeroVehiclesRejectsEverything(t *testing.T) {
	g := lineCity(10, 30)
	orders := []*model.Order{mkOrder(1, 1, 5, 0, 60), mkOrder(2, 2, 6, 0, 60)}
	cfg := testConfig()
	m := runSim(t, g, orders, nil, policy.NewFoodMatch(), cfg, 7200)
	if m.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", m.Rejected)
	}
	if m.Delivered != 0 {
		t.Fatalf("delivered = %d with no vehicles", m.Delivered)
	}
}

func TestVanillaKMDisablesBatching(t *testing.T) {
	g := lineCity(30, 30)
	// Two same-restaurant orders, one vehicle: KM can serve only one at a
	// time (no batching), the other waits for reshuffle-less next windows.
	o1 := mkOrder(1, 10, 20, 0, 300)
	o2 := mkOrder(2, 10, 21, 0, 300)
	v := model.NewVehicle(1, 0, 3)
	cfg := policy.ConfigureVanillaKM(testConfig())
	m := runSim(t, g, []*model.Order{o1, o2}, []*model.Vehicle{v}, policy.NewVanillaKM(), cfg, 7200)
	if m.Delivered != 2 {
		t.Fatalf("KM delivered %d", m.Delivered)
	}
	// Without batching the first window can assign only one order.
	if o1.AssignedAt == o2.AssignedAt {
		t.Fatal("vanilla KM assigned both orders in one window to one vehicle (batching leaked)")
	}
}

func TestMetricsSlotAttribution(t *testing.T) {
	g := lineCity(20, 30)
	// Order placed at 13:00 (slot 13).
	o := mkOrder(1, 5, 10, 13*3600+10, 120)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	s, err := engine.NewSimulator(g, []*model.Order{o}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, engine.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(13*3600, 14*3600)
	if m.Delivered != 1 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	if m.SlotDelivered[13] != 1 || m.SlotOrders[13] != 1 {
		t.Fatalf("slot attribution wrong: delivered %v orders %v", m.SlotDelivered, m.SlotOrders)
	}
	if m.SlotXDTSec[13] != m.XDTSec {
		t.Fatalf("slot XDT %v != total %v", m.SlotXDTSec[13], m.XDTSec)
	}
}

func TestDeterministicRuns(t *testing.T) {
	build := func() *sim.Metrics {
		g := lineCity(40, 30)
		var orders []*model.Order
		for i := 0; i < 10; i++ {
			orders = append(orders, mkOrder(model.OrderID(i+1),
				roadnet.NodeID(5+i*3%30), roadnet.NodeID(8+i*7%30), float64(i*30), 300))
		}
		vs := []*model.Vehicle{model.NewVehicle(1, 0, 3), model.NewVehicle(2, 39, 3)}
		cfg := testConfig()
		s, err := engine.NewSimulator(g, orders, vs, policy.NewFoodMatch(), cfg, engine.SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(0, 3600)
	}
	m1, m2 := build(), build()
	if m1.XDTSec != m2.XDTSec || m1.DistM != m2.DistM || m1.WaitSec != m2.WaitSec {
		t.Fatalf("simulation not deterministic: %v vs %v", m1.Summary(), m2.Summary())
	}
}

func TestTraceIntegration(t *testing.T) {
	g := lineCity(30, 30)
	o1 := mkOrder(1, 10, 20, 0, 300)
	o2 := mkOrder(2, 10, 21, 5, 300)
	v := model.NewVehicle(1, 0, 3)
	cfg := testConfig()
	rec := trace.NewRecorder()
	s, err := engine.NewSimulator(g, []*model.Order{o1, o2}, []*model.Vehicle{v}, policy.NewFoodMatch(), cfg, engine.SimOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	m := s.Run(0, 7200)
	if m.Delivered != 2 {
		t.Fatalf("delivered = %d", m.Delivered)
	}
	sum := rec.Summarise(2700)
	if sum.Orders != 2 || sum.Delivered != 2 {
		t.Fatalf("trace summary = %+v", sum)
	}
	// Timelines must agree with the order structs.
	for _, tl := range rec.Timelines() {
		var o *model.Order
		if tl.Order == 1 {
			o = o1
		} else {
			o = o2
		}
		if tl.PlacedAt != o.PlacedAt || tl.DeliveredAt != o.DeliveredAt || tl.PickedUpAt != o.PickedUpAt {
			t.Fatalf("trace timeline disagrees with order %d: %+v vs %+v", o.ID, tl, o)
		}
		if tl.FinalVehicle() != o.AssignedTo {
			t.Fatalf("final vehicle mismatch for order %d", o.ID)
		}
	}
	// Window events must be present and carry assignment durations.
	found := false
	for _, e := range rec.Snapshot() {
		if e.Kind == trace.WindowClosed && e.Assignments > 0 {
			found = true
			if e.AssignSec < 0 {
				t.Fatal("negative assignment duration")
			}
		}
	}
	if !found {
		t.Fatal("no productive window event recorded")
	}
}
