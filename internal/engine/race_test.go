package engine

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// watchEpochs starts a reader that, until stop closes, polls Snapshot,
// Roadnet and a full WriteCheckpoint in turn: every checkpoint must parse
// with ReadCheckpoint, and no surface may report a weight epoch older than
// one already seen.
func watchEpochs(t *testing.T, e *Engine, stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		var seen uint64
		see := func(what string, ep uint64) bool {
			if ep < seen {
				t.Errorf("%s epoch went backwards: %d after %d", what, ep, seen)
				return false
			}
			seen = ep
			return true
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !see("snapshot", e.Snapshot().WeightEpoch) || !see("roadnet", e.Roadnet().Epoch) {
				return
			}
			var buf bytes.Buffer
			if _, err := e.WriteCheckpoint(&buf); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			doc, err := ReadCheckpoint(&buf)
			if err != nil {
				t.Errorf("checkpoint not parseable: %v", err)
				return
			}
			if !see("checkpoint", doc.Epoch) {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
}

// observeTraffic starts a goroutine that, until stop closes, feeds the
// learner moving estimates on a few edges — the dirt each due refresh
// publishes — and pings the fleet.
func observeTraffic(e *Engine, learner *gps.StreamLearner, fleet []*model.Vehicle, t0 float64, stop <-chan struct{}, wg *sync.WaitGroup) {
	g := learner.Graph()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := roadnet.NodeID(i % 16)
			learner.ObserveEdge(u, g.OutEdges(u)[0].To, t0+float64(i%600), 25+float64(i%7))
			_ = e.PingVehicle(fleet[i%len(fleet)].ID, roadnet.NodeID(i%g.NumNodes()))
			time.Sleep(200 * time.Microsecond)
		}
	}()
}

// TestEngineConcurrentIngestAndSwap is the engine's -race gauntlet: the
// real-time window clock runs under StartContext — its rounds publishing a
// weight epoch whenever the learner moved — while producer goroutines
// hammer order submission and vehicle pings, a traffic goroutine feeds the
// learner, and reader goroutines poll every metrics surface and write full
// checkpoints. Beyond "the race detector stays quiet and the engine makes
// progress", every checkpoint parses and no reader sees an epoch go
// backwards.
func TestEngineConcurrentIngestAndSwap(t *testing.T) {
	city := testCityB
	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	fleet := city.Fleet(1.0, testConfig().MaxO, 1)
	start := 19.0 * 3600
	orders := workload.OrderStreamWindow(city, 1, start, start+1800)
	if len(orders) == 0 {
		t.Skip("no orders in slice")
	}
	e, err := New(city.G, fleet, Config{
		Pipeline:         testConfig(),
		Shards:           4,
		QueueSize:        64, // small on purpose: exercise backpressure
		Learner:          learner,
		WeightRefreshSec: 120,
		MinSamples:       1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.StartContext(ctx, start, 30000); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Order producers (ErrQueueFull is expected backpressure, not failure).
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				o := orders[i%len(orders)]
				_ = e.SubmitOrder(&model.Order{
					ID:         model.OrderID(int(o.ID) + i*100000),
					Restaurant: o.Restaurant, Customer: o.Customer,
					Items: o.Items, Prep: o.Prep, AssignedTo: -1,
				})
				time.Sleep(200 * time.Microsecond)
			}
		}(p)
	}

	// Ping producers: relocations + shift updates feed drainPings and the
	// learner's ObserveNode plane.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fleet[i%len(fleet)].ID
				_ = e.PingVehicle(id, roadnet.NodeID(i%city.G.NumNodes()))
				if i%17 == 0 {
					_ = e.SetVehicleShift(id, start, start+4*3600)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(p)
	}

	observeTraffic(e, learner, fleet, start, stop, &wg)
	watchEpochs(t, e, stop, &wg)

	// Readers over every concurrent surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub := e.Subscribe(64)
		defer sub.Cancel()
		for {
			select {
			case <-stop:
				return
			case <-sub.C:
			default:
				_ = e.Snapshot()
				_ = e.Roadnet()
				_ = e.Clock()
				_ = e.Idle()
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	deadline := time.After(10 * time.Second)
	for e.Snapshot().Rounds < 8 {
		select {
		case <-deadline:
			t.Fatal("engine made no progress under concurrent load")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	e.Stop()

	snap := e.Snapshot()
	if snap.Rounds < 8 {
		t.Fatalf("rounds %d after stop", snap.Rounds)
	}
	if st := e.Roadnet(); !st.Dynamic {
		t.Fatal("dynamic plane lost")
	}
}

// TestEngineStepConcurrentRefresh drives deterministic Steps that publish a
// weight epoch every round the learner moved, while other goroutines feed
// the learner, ping the fleet and read every surface, checkpoints included
// — the publish path with no real-time clock involved (fast enough for
// -race on every CI run).
func TestEngineStepConcurrentRefresh(t *testing.T) {
	city := testCityB
	learner := gps.NewStreamLearner(city.G, gps.StreamOptions{})
	fleet := city.Fleet(0.5, testConfig().MaxO, 1)
	start := 19.0 * 3600
	orders := workload.OrderStreamWindow(city, 1, start, start+900)
	e, err := New(city.G, fleet, Config{
		Pipeline: testConfig(), Shards: 2,
		QueueSize: len(orders) + 16,
		Learner:   learner, WeightRefreshSec: 60, MinSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	observeTraffic(e, learner, fleet, start, stop, &wg)
	watchEpochs(t, e, stop, &wg)
	next := 0
	delta := e.cfg.Pipeline.Delta
	for now := start + delta; now < start+3600; now += delta {
		for next < len(orders) && orders[next].PlacedAt < now {
			if err := e.SubmitOrder(orders[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		e.Step(now)
	}
	close(stop)
	wg.Wait()
	if ep := e.Roadnet().Epoch; ep == 0 {
		t.Fatal("no epoch published during concurrent ingest")
	}
}
