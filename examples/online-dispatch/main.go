// Online-dispatch replays a CityB dinner-peak order stream through the
// online engine API in real time: orders are submitted at the wall-clock
// moment their placement time maps to, the engine's window clock fires an
// assignment round every ∆ simulation seconds, and a subscriber consumes
// the live assignment stream. At the end the online run is compared against
// the offline discrete-event simulator on the identical workload — the
// numbers converge because the engine runs the same pipeline, just under
// wall-clock pressure and across zone shards.
//
// cmd/foodmatchd exposes the same engine over HTTP/JSON; this example
// drives the Go API directly so it stays a single process.
package main

import (
	"fmt"
	"os"
	"time"

	foodmatch "repro"
)

func main() {
	const (
		cityName  = "CityB"
		seed      = 1
		shards    = 4
		timeScale = 600.0 // 10 simulated minutes per wall second
		startSim  = 18.5 * 3600
		endSim    = 19.5 * 3600
	)

	city, err := foodmatch.LoadCity(cityName, foodmatch.DefaultScale, seed)
	if err != nil {
		fail(err)
	}
	cfg := foodmatch.ExperimentConfig(cityName, foodmatch.DefaultScale)
	orders := foodmatch.OrderStreamWindow(city, seed, startSim, endSim)
	fleet := city.Fleet(1.0, cfg.MaxO, seed)
	fmt.Printf("replaying %d %s orders (18:30–19:30) over %d vehicles, %d shards, ∆=%.0fs, %.0fx speed\n\n",
		len(orders), cityName, len(fleet), shards, cfg.Delta, timeScale)

	eng, err := foodmatch.NewEngine(city.G, fleet, foodmatch.EngineConfig{
		Pipeline: cfg.Clone(),
		Shards:   shards,
	})
	if err != nil {
		fail(err)
	}

	// Consume the assignment stream while the engine runs.
	sub := eng.Subscribe(4096)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		decisions, printed := 0, 0
		for ev := range sub.C {
			switch {
			case ev.Decision != nil:
				decisions++
				if printed < 8 {
					printed++
					fmt.Printf("  %8.0fs  shard %d  vehicle %-4d <- orders %v\n",
						ev.Decision.T, ev.Decision.Shard, ev.Decision.Vehicle, ev.Decision.Orders)
				} else if printed == 8 {
					printed++
					fmt.Println("  ... (stream continues)")
				}
			case ev.Round != nil && ev.Round.PoolSize > 0:
				fmt.Printf("  round @%6.0fs: pool %-3d vehicles %-3d assigned %-3d handoffs %-2d latency %5.1fms\n",
					ev.Round.T, ev.Round.PoolSize, ev.Round.AvailableVehicles,
					ev.Round.AssignedOrders, ev.Round.Handoffs, ev.Round.LatencySec*1000)
			}
		}
		fmt.Printf("\nassignment stream closed after %d decisions\n", decisions)
	}()

	// Producer: submit each order at the wall instant its placement maps to.
	if err := eng.Start(startSim, timeScale); err != nil {
		fail(err)
	}
	wall0 := time.Now()
	for _, o := range orders {
		at := time.Duration((o.PlacedAt - startSim) / timeScale * float64(time.Second))
		if d := time.Until(wall0.Add(at)); d > 0 {
			time.Sleep(d)
		}
		for {
			err := eng.SubmitOrder(o)
			if err != foodmatch.ErrEngineQueueFull {
				if err != nil {
					fail(err)
				}
				break
			}
			time.Sleep(10 * time.Millisecond) // backpressure: retry
		}
	}

	// Drain: let in-flight deliveries finish (bounded).
	deadline := time.Now().Add(2 * time.Minute)
	for !eng.Idle() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
	}
	eng.Stop()
	<-streamDone
	online := eng.Snapshot()

	// Offline reference: the discrete-event simulator on the same workload.
	simOrders := foodmatch.OrderStreamWindow(city, seed, startSim, endSim)
	simFleet := city.Fleet(1.0, cfg.MaxO, seed)
	s, err := foodmatch.NewSimulator(city.G, simOrders, simFleet, foodmatch.NewFoodMatch(),
		cfg.Clone(), foodmatch.SimOptions{})
	if err != nil {
		fail(err)
	}
	offline := s.Run(startSim, endSim)

	fmt.Println("\n                     online engine   offline simulator")
	row := func(label string, a, b float64, format string) {
		fmt.Printf("%-20s %14s %19s\n", label,
			fmt.Sprintf(format, a), fmt.Sprintf(format, b))
	}
	row("orders", float64(online.OrdersAdmitted), float64(offline.TotalOrders), "%.0f")
	row("delivered", float64(online.Delivered), float64(offline.Delivered), "%.0f")
	row("rejected", float64(online.Rejected), float64(offline.Rejected), "%.0f")
	row("XDT (h)", online.XDTSec/3600, offline.XDTHours(), "%.2f")
	row("distance (km)", online.DistKm, offline.DistM/1000, "%.1f")
	fmt.Printf("\nonline extras: %d rounds, mean %.1f ms, max %.1f ms, %d zone handoffs, %.1f orders/sim-min\n",
		online.Rounds, online.RoundSecMean*1000, online.RoundSecMax*1000,
		online.Handoffs, online.OrdersPerSimSec*60)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "online-dispatch:", err)
	os.Exit(1)
}
