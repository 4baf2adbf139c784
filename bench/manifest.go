package main

// metricDef is one row of BENCHMARK.json's end_to_end / per_layer lists. The
// tables below are the source of truth; manifest_test.go holds BENCHMARK.json
// to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the dispatcher sees. Every workload prints all
// of them (the driver's contract); README.md says what each one means on the
// stepped workloads and on daemon-ingest. Bounds are shares of the parent's
// median, derived from ten seeds per workload on the build machine (README
// "Steadiness"): three times the widest spread seen, capped at 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"dispatch_orders_per_s", "1/s", higher, 0.25},
	{"round_p50_ms", "ms", lower, 0.25},
	{"round_tail_ms", "ms", lower, 0.25},
	{"rss_peak_mb", "MB", lower, 0.25},
	{"ok_pct", "%", higher, 0.02},
	{"ack_p50_ms", "ms", lower, 0.25},
}

// perLayer metrics come from the -trace run: bench-side spans around the
// stepped replay, the fixed-fixture ladder, and the daemon-ingest run itself.
// A metric that a workload cannot measure (span shares on daemon-ingest,
// foodmatchd.* on the stepped three) prints 0 there.
var perLayer = []metricDef{
	// Spans around the replayed rounds.
	{"engine.step_ms_per_round", "ms", lower, 0},
	{"engine.self_pct", "%", lower, 0},
	{"engine.cpu_ms_per_order", "ms", lower, 0},
	{"engine.allocs_per_round", "count", lower, 0},
	{"engine.bytes_per_round", "B", lower, 0},
	{"engine.pool_mean", "count", lower, 0},
	{"engine.pool_max", "count", lower, 0},
	{"engine.submit_us", "us", lower, 0},
	{"engine.assign_overlap_x", "x", higher, 0},
	{"engine.rejected_pct", "%", lower, 0},
	{"engine.reassigned_pct", "%", lower, 0},
	{"pipeline.assign_pct", "%", lower, 0},
	{"pipeline.reshuffle_pct", "%", lower, 0},
	{"batching.busy_pct", "%", lower, 0},
	{"batching.ms_per_call", "ms", lower, 0},
	{"batching.orders_per_batch", "count", higher, 0},
	{"batching.router_queries_per_order", "count", lower, 0},
	{"foodgraph.busy_pct", "%", lower, 0},
	{"foodgraph.ms_per_call", "ms", lower, 0},
	{"foodgraph.true_edges_per_batch", "count", lower, 0},
	{"foodgraph.router_queries_per_edge", "count", lower, 0},
	{"foodgraph.many_targets_per_call", "count", higher, 0},
	{"matching.busy_pct", "%", lower, 0},
	{"matching.ms_per_call", "ms", lower, 0},
	{"matching.cells_per_call", "count", lower, 0},
	{"roadnet.busy_pct", "%", lower, 0},
	{"roadnet.travel_calls_per_round", "count", lower, 0},
	{"roadnet.travel_many_calls_per_round", "count", lower, 0},
	{"roadnet.travel_ns", "ns", lower, 0},
	{"roadnet.inf_pct", "%", lower, 0},
	{"roadnet.publishes", "count", lower, 0},
	{"roadnet.resplits", "count", lower, 0},
	{"trace.overhead_x", "x", higher, 0},
	// The paper's objective after drain (daemon-ingest: over what was
	// delivered by the end of the load).
	{"quality.xdt_min_per_order", "min", lower, 0},
	{"quality.orders_per_km", "1/km", higher, 0},

	// Ladder: router backends on the fixture.
	{"roadnet.bounded.travel_ns", "ns", lower, 0},
	{"roadnet.bounded.travel_many_ns_per_target", "ns", lower, 0},
	{"roadnet.bounded.build_ms", "ms", lower, 0},
	{"roadnet.bounded.assign_ms", "ms", lower, 0},
	{"roadnet.dijkstra.travel_ns", "ns", lower, 0},
	{"roadnet.dijkstra.travel_many_ns_per_target", "ns", lower, 0},
	{"roadnet.dijkstra.build_ms", "ms", lower, 0},
	{"roadnet.dijkstra.assign_ms", "ms", lower, 0},
	{"roadnet.hublabel.travel_ns", "ns", lower, 0},
	{"roadnet.hublabel.travel_many_ns_per_target", "ns", lower, 0},
	{"roadnet.hublabel.build_ms", "ms", lower, 0},
	{"roadnet.hublabel.assign_ms", "ms", lower, 0},
	{"roadnet.cch.travel_ns", "ns", lower, 0},
	{"roadnet.cch.travel_many_ns_per_target", "ns", lower, 0},
	{"roadnet.cch.build_ms", "ms", lower, 0},
	{"roadnet.cch.assign_ms", "ms", lower, 0},
	{"roadnet.bounded.hit_pct", "%", higher, 0},
	{"roadnet.bounded.settles_per_row", "count", lower, 0},
	{"roadnet.patch_reweighted_us", "us", lower, 0},
	{"roadnet.cch_incremental_ms", "ms", lower, 0},
	{"roadnet.swap_publish_us", "us", lower, 0},

	// Ladder: route plans up to the engine round.
	{"routing.optimize2_us", "us", lower, 0},
	{"routing.optimize3_us", "us", lower, 0},
	{"routing.optimize3_router_calls", "count", lower, 0},
	{"routing.marginal_cost_us", "us", lower, 0},
	{"routing.sdt_us", "us", lower, 0},
	{"batching.run_ms", "ms", lower, 0},
	{"batching.run_router_calls", "count", lower, 0},
	{"batching.run_allocs", "count", lower, 0},
	{"foodgraph.build_ms", "ms", lower, 0},
	{"foodgraph.build_router_calls", "count", lower, 0},
	{"foodgraph.build_true_edges", "count", lower, 0},
	{"foodgraph.build_allocs", "count", lower, 0},
	{"matching.solve_ms", "ms", lower, 0},
	{"pipeline.assign_ms", "ms", lower, 0},
	{"pipeline.assign_allocs", "count", lower, 0},
	{"engine.round_ms", "ms", lower, 0},
	{"engine.round_allocs", "count", lower, 0},
	{"engine.checkpoint_ms", "ms", lower, 0},
	{"engine.restore_ms", "ms", lower, 0},
	{"obs.round_overhead_pct", "%", lower, 0},
	{"wal.append_sync_us", "us", lower, 0},
	{"wal.append_nosync_us", "us", lower, 0},
	{"gps.observe_edge_ns", "ns", lower, 0},

	// From the daemon-ingest run itself.
	{"foodmatchd.order_ack_p50_ms", "ms", lower, 0},
	{"foodmatchd.ping_ack_p50_ms", "ms", lower, 0},
	{"foodmatchd.ack_p90_ms", "ms", lower, 0},
	{"foodmatchd.ack_p99_ms", "ms", lower, 0},
	{"foodmatchd.gen_late_p99_ms", "ms", lower, 0},
	{"foodmatchd.gen_late_max_ms", "ms", lower, 0},
	{"foodmatchd.round_p50_ms", "ms", lower, 0},
	{"foodmatchd.rounds", "count", higher, 0},
	{"foodmatchd.placed_to_assigned_p50_ms", "ms", lower, 0},
	{"foodmatchd.cpu_ms_per_order", "ms", lower, 0},
	{"foodmatchd.queue_depth_max", "count", lower, 0},
	{"foodmatchd.wal_mb", "MB", lower, 0},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"dinner-peak", "CityB 0.05 from 19:00, 1 shard: highest order/vehicle pressure, so batching and routing.Optimize dominate (~2/3) with foodgraph second"},
	{"morning-wide", "CityC 0.10 from 08:00, 1 shard: few orders, many idle vehicles, largest graph, so foodgraph search and SSSP row builds dominate and batching barely matters"},
	{"sharded-learn", "CityB 0.08 from 19:00, 4 shards, rain scenario, learner on: parallel shard rounds, weight publishes and re-splits beside routing reads"},
	{"daemon-ingest", "real foodmatchd over HTTP at 120x, WAL fsync on, open loop of orders plus ~670 pings/s: the only path through decode, validation, WAL and the bounded queue"},
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
