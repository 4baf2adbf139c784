// Custom policy composition: the pipeline API lets you mix assignment
// stages without forking internals. This example builds a hybrid policy —
// the cheap nearest-neighbour greedy batcher feeding the optimal
// Kuhn–Munkres matcher — and runs it over a hub-label Router instead of the
// default bounded-Dijkstra cache, then replays the same dinner peak under
// stock FOODMATCH for comparison.
//
//	go run ./examples/custom-policy
//
// Expected shape: the hybrid trades some XDT (its batches are built by a
// single greedy sweep, not Algorithm 1's merge clustering) for a simpler,
// faster batching stage; the hub-label Router answers the pipeline's
// point-to-point queries exactly from precomputed labels.
package main

import (
	"context"
	"fmt"
	"os"

	foodmatch "repro"
)

func main() {
	const (
		cityName = "CityB"
		scale    = 0.02
		seed     = 1
	)
	city, err := foodmatch.LoadCity(cityName, scale, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	from, to := 19.0*3600, 21.0*3600

	// The hybrid pipeline: greedy batching + KM matching + incumbent
	// reshuffling, composed from the same stages FOODMATCH uses.
	hybrid := foodmatch.NewPipeline(
		foodmatch.WithLabel("GreedyBatch+KM"),
		foodmatch.WithBatcher(foodmatch.NewGreedyBatcher(0)),
		foodmatch.WithMatcher(foodmatch.NewKMMatcher()),
	)

	// The distance substrate: exact hub labels. One Router per simulator
	// run (hub labels build per-slot indexes lazily).
	type run struct {
		pol    foodmatch.Policy
		router foodmatch.Router
		note   string
	}
	runs := []run{
		{foodmatch.NewFoodMatch(), nil, "stock (bounded-Dijkstra cache)"},
		{hybrid, foodmatch.NewHubLabels(city.G), "hub labels"},
	}

	fmt.Printf("%s @ %.0f%% scale, dinner 19:00-21:00, %d road nodes\n\n",
		cityName, scale*100, city.G.NumNodes())
	fmt.Printf("%-16s %-32s %10s %10s %10s %10s\n",
		"policy", "router", "delivered", "rejected", "XDT h", "dist km")
	for _, r := range runs {
		cfg := foodmatch.ExperimentConfig(cityName, scale)
		orders := foodmatch.OrderStreamWindow(city, seed, from, to)
		fleet := city.Fleet(1.0, cfg.MaxO, seed)
		s, err := foodmatch.NewSimulator(city.G, orders, fleet, r.pol, cfg,
			foodmatch.SimOptions{Router: r.router})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := s.RunContext(context.Background(), from, to)
		fmt.Printf("%-16s %-32s %10d %10d %10.1f %10.1f\n",
			r.pol.Name(), r.note, m.Delivered, m.Rejected, m.XDTSec/3600, m.DistM/1000)
	}
	fmt.Println("\nXDT = extra delivery time beyond each order's shortest possible (lower is better).")
}
