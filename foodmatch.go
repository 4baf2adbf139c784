// Package foodmatch is a from-scratch Go reproduction of
//
//	Joshi, Singh, Ranu, Bagchi, Karia, Kala.
//	"Batching and Matching for Food Delivery in Dynamic Road Networks."
//	ICDE 2021 (arXiv:2008.12905).
//
// It provides the full FOODMATCH assignment pipeline — order batching by
// iterative clustering, sparsified bipartite FoodGraph construction via
// best-first search with angular distance, Kuhn–Munkres minimum-weight
// matching, and reshuffling — together with every substrate the paper
// depends on: time-dependent road networks with exact shortest-path
// engines (Dijkstra, bounded SSSP, hub labels), quickest route planning
// under pickup/dropoff precedence and food-preparation waits, a
// discrete-event delivery simulator, the Greedy / vanilla-KM / Reyes et al.
// baselines, and deterministic synthetic workloads modelled on the paper's
// Table II cities.
//
// # Quickstart
//
//	city, _ := foodmatch.LoadCity("CityB", foodmatch.DefaultScale, 1)
//	orders := foodmatch.OrderStream(city, 1)
//	fleet := city.Fleet(1.0, 3, 1)
//	cfg := foodmatch.DefaultConfig()
//	sim, _ := foodmatch.NewSimulator(city.G, orders, fleet,
//		foodmatch.NewFoodMatch(), cfg, foodmatch.SimOptions{})
//	metrics := sim.Run(18*3600, 22*3600) // dinner peak
//	fmt.Println(metrics.Summary())
//
// The assignment round decomposes into four stages — batching, FoodGraph
// sparsification, reshuffling, matching — composed with NewPipeline (the
// facade swaps the Batcher and the Matcher), and every stage consumes
// network distances through one injected Router (Dijkstra, bounded SSSP,
// hub labels, or CCH):
//
//	pol := foodmatch.NewPipeline(
//		foodmatch.WithBatcher(foodmatch.NewGreedyBatcher(0)),
//		foodmatch.WithMatcher(foodmatch.NewKMMatcher()),
//	)
//	sim, _ := foodmatch.NewSimulator(city.G, orders, fleet, pol, cfg,
//		foodmatch.SimOptions{Router: foodmatch.NewHubLabels(city.G)})
//
// NewPipeline with no options is exactly NewFoodMatch. Long-running entry
// points have context-aware variants (RunContext, StartContext,
// StepContext) for cancellation and deadline propagation.
//
// See the examples/ directory for complete programs and cmd/experiments for
// the drivers that regenerate every table and figure of the paper.
package foodmatch

import (
	"io"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/spindex"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Re-exported core types. The internal packages remain the implementation;
// this facade is the supported public surface.
type (
	// Config carries every tunable of the system (Section V-B defaults).
	Config = model.Config
	// Order is a food order per Definition 2 plus lifecycle state.
	Order = model.Order
	// OrderID identifies an order.
	OrderID = model.OrderID
	// Vehicle is a delivery vehicle with runtime state.
	Vehicle = model.Vehicle
	// VehicleID identifies a vehicle.
	VehicleID = model.VehicleID
	// RoutePlan is a pickup/dropoff stop sequence (Definition 3).
	RoutePlan = model.RoutePlan
	// Batch is a set of orders grouped for one vehicle.
	Batch = model.Batch
	// Graph is a time-dependent road network (Definition 1).
	Graph = roadnet.Graph
	// NodeID identifies a road-network node.
	NodeID = roadnet.NodeID
	// Point is a WGS-84 coordinate.
	Point = geo.Point
	// Router is the one travel-time oracle, SP(u, v, t): the only distance
	// signature every pipeline stage, the simulator and the engine accept.
	// Backends: NewDijkstraRouter, NewBoundedRouter, NewHubLabels /
	// NewHubLabelRouter and NewCCHRouter.
	Router = roadnet.Router
	// City is a synthetic workload city.
	City = workload.City
	// CityParams parameterises city generation.
	CityParams = workload.CityParams
	// Policy is an order-assignment strategy: the four canned policies and
	// any NewPipeline composition implement it.
	Policy = policy.Policy
	// WindowInput is one accumulation window as a policy sees it.
	WindowInput = pipeline.Input
	// Assignment is one policy decision.
	Assignment = pipeline.Assignment
	// Metrics aggregates the paper's evaluation metrics.
	Metrics = sim.Metrics
	// Simulator replays an order stream under a policy: the offline driver
	// over the engine's round (one shard, one worker, replayed clock).
	Simulator = engine.Simulator
	// SimOptions tunes the simulator.
	SimOptions = engine.SimOptions
	// HubLabels is the pruned-landmark-labeling distance index. It
	// implements Router, so it drops into SimOptions.Router or
	// EngineConfig.NewRouter as the hub-label shortest-path backend.
	HubLabels = spindex.Index
	// ExperimentTable is a rendered experiment artefact.
	ExperimentTable = experiments.Table
	// ExperimentSetup fixes scale/seed/window for experiment drivers.
	ExperimentSetup = experiments.Setup
	// TraceRecorder captures the simulation event stream for post-hoc
	// analysis (timelines, queue depth, service levels).
	TraceRecorder = trace.Recorder
	// TraceEvent is one simulation event.
	TraceEvent = trace.Event
	// ObsRegistry is the metrics registry of the observability plane:
	// counters, gauges and fixed-bucket histograms with Prometheus text
	// exposition (Engine.Obs, ObsLog.Registry).
	ObsRegistry = obs.Registry
	// ObsPhase is one node of a round's span tree (EngineRoundStats.Phases).
	ObsPhase = obs.Phase
	// OrderTraceEvent is one order-lifecycle transition from the bounded
	// trace ring (Engine.TraceTail, GET /trace/orders).
	OrderTraceEvent = obs.OrderEvent
	// ObsLog collects per-window telemetry from experiment runs into a
	// JSONL stream plus aggregate latency histograms; set it as
	// ExperimentSetup.Obs (cmd/experiments wires one with -obs-out).
	ObsLog = experiments.ObsLog
)

// DefaultScale is the laptop-scale workload operating point (1:50 of the
// paper's Table II city sizes).
const DefaultScale = workload.DefaultScale

// DefaultConfig returns the paper's Section V-B operating point.
func DefaultConfig() *Config { return model.DefaultConfig() }

// NewTraceRecorder returns an in-memory event-stream recorder; pass it as
// SimOptions.Trace.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewObsLog returns an experiment telemetry collector writing JSONL to w
// (nil collects aggregates only); see ObsLog.
func NewObsLog(w io.Writer) *ObsLog { return experiments.NewObsLog(w) }

// NewFoodMatch returns the full FOODMATCH policy (Section IV).
func NewFoodMatch() Policy { return policy.NewFoodMatch() }

// ConfigureVanillaKM flips every optimisation switch off, in place.
func ConfigureVanillaKM(cfg *Config) *Config { return policy.ConfigureVanillaKM(cfg) }

// PolicyByName resolves "foodmatch", "km", "greedy" or "reyes".
func PolicyByName(name string) (Policy, error) { return experiments.PolicyByName(name) }

// Composable pipeline re-exports: the stage interfaces behind the canned
// policies, so callers can mix stages (e.g. greedy batching + KM matching)
// without forking internals. See internal/pipeline.
type (
	// Pipeline is a composed assignment policy (batch → sparsify →
	// reshuffle → match); it implements Policy.
	Pipeline = pipeline.Pipeline
	// PipelineOption configures NewPipeline.
	PipelineOption = pipeline.Option
	// PipelineStats is the per-stage timing/size breakdown recorded on
	// every Assign and surfaced on the engine's round stats.
	PipelineStats = pipeline.Stats
	// Batcher groups O(ℓ) into batches (stage 1).
	Batcher = pipeline.Batcher
	// Matcher turns the graph into assignments (stage 4).
	Matcher = pipeline.Matcher
)

// NewPipeline composes an assignment pipeline from stages. With no options
// it is exactly NewFoodMatch's composition (decision-identical); options
// swap individual stages:
//
//	p := foodmatch.NewPipeline(
//		foodmatch.WithBatcher(foodmatch.NewGreedyBatcher(0)),
//		foodmatch.WithMatcher(foodmatch.NewKMMatcher()),
//	)
func NewPipeline(opts ...PipelineOption) *Pipeline { return pipeline.New(opts...) }

// WithLabel overrides the pipeline's report name.
func WithLabel(label string) PipelineOption { return pipeline.WithLabel(label) }

// WithBatcher swaps stage 1.
func WithBatcher(b Batcher) PipelineOption { return pipeline.WithBatcher(b) }

// WithMatcher swaps stage 4.
func WithMatcher(m Matcher) PipelineOption { return pipeline.WithMatcher(m) }

// NewGreedyBatcher returns the nearest-neighbour greedy batcher;
// radiusSec caps restaurant-to-restaurant joins (0 = config BatchRadius).
func NewGreedyBatcher(radiusSec float64) Batcher {
	return pipeline.GreedyBatcher{RadiusSec: radiusSec}
}

// NewKMMatcher returns the Kuhn–Munkres matcher over the constructed graph.
func NewKMMatcher() Matcher { return &pipeline.KMMatcher{} }

// Router backends. NewHubLabels' index implements Router directly (exact
// hub-label distances).

// NewDijkstraRouter returns the exact per-query Dijkstra backend (safe for
// concurrent use).
func NewDijkstraRouter(g *Graph) Router { return roadnet.NewDijkstraRouter(g) }

// NewBoundedRouter returns the bounded single-source backend with dense
// row memoisation — the pipeline's default; targets beyond boundSec report
// +Inf. Not safe for concurrent use.
func NewBoundedRouter(g *Graph, boundSec float64) Router {
	return roadnet.NewBoundedRouter(g, boundSec)
}

// CityNames lists the Table II city presets.
func CityNames() []string { return workload.CityNames() }

// LoadCity builds a Table II city preset at the given scale (1.0 = paper
// size) deterministically from seed.
func LoadCity(name string, scale float64, seed int64) (*City, error) {
	return workload.Preset(name, scale, seed)
}

// GenerateCity builds a fully custom city.
func GenerateCity(p CityParams) (*City, error) { return workload.Generate(p) }

// OrderStream generates one deterministic day of orders for a city.
func OrderStream(c *City, seed int64) []*Order { return workload.OrderStream(c, seed) }

// OrderStreamWindow restricts generation to placement times in [from, to)
// seconds since midnight.
func OrderStreamWindow(c *City, seed int64, from, to float64) []*Order {
	return workload.OrderStreamWindow(c, seed, from, to)
}

// NewSimulator builds a simulator over a road network, an order stream, a
// fleet and a policy.
func NewSimulator(g *Graph, orders []*Order, fleet []*Vehicle, pol Policy, cfg *Config, opts SimOptions) (*Simulator, error) {
	return engine.NewSimulator(g, orders, fleet, pol, cfg, opts)
}

// NewHubLabels builds the pruned-landmark-labeling distance index over a
// road network (the stand-in for the paper's hierarchical hub labels [18]).
func NewHubLabels(g *Graph) *HubLabels { return spindex.New(g) }

// ShortestPath returns the quickest travel time in seconds from -> to
// departing at time t (seconds since midnight).
func ShortestPath(g *Graph, from, to NodeID, t float64) float64 {
	return roadnet.ShortestPath(g, from, to, t)
}

// DefaultExperimentSetup is the bench-harness experiment operating point
// (DefaultScale, dinner peak, seed 1).
func DefaultExperimentSetup() ExperimentSetup { return experiments.DefaultSetup() }

// RunExperiment regenerates one of the paper's tables/figures by id (see
// ExperimentIDs); returns one table per panel.
func RunExperiment(id string, st ExperimentSetup) ([]*ExperimentTable, error) {
	return experiments.Generate(id, st)
}

// ExperimentIDs lists the available experiment groups.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentConfig returns the per-city default config used by the
// experiment drivers (∆ per city, KFactor scaled to the fleet).
func ExperimentConfig(cityName string, scale float64) *Config {
	return experiments.ConfigForScale(cityName, scale)
}

// Multi-day evaluation protocol re-exports (the paper's 5-day-learn /
// 1-day-test protocol of Section V-B).
type (
	// ProtocolOptions tunes the learn5test1 driver (city, policies,
	// scenarios, learning days, SLA threshold).
	ProtocolOptions = experiments.ProtocolOptions
)

// RunLearn5Test1Tables executes the multi-day protocol — weights learned
// over the learning days, the held-out test day replayed once per policy
// under the stale, learned and oracle weight regimes — and renders one
// table per scenario (XDT per regime, SLA violations, recovery ratio).
func RunLearn5Test1Tables(st ExperimentSetup, opt ProtocolOptions) ([]*ExperimentTable, error) {
	return experiments.Learn5Test1(st, opt)
}

// NewHubLabelRouter returns an EngineConfig.NewRouter factory for the
// hub-label backend: per-slot labels rebuild asynchronously on every weight
// epoch publish while a bounded-SSSP cache answers, the next slot
// pre-building ahead of the replay clock (23 wraps to 0 at midnight).
// syncBuild makes replays deterministic at the cost of per-slot build
// stalls.
func NewHubLabelRouter(spBound float64, syncBuild bool) func(*Graph) Router {
	return engine.NewHubLabelRouter(spBound, syncBuild)
}

// NewCCHRouter returns an EngineConfig.NewRouter factory for the
// customizable contraction hierarchy backend: topology preprocessing runs
// once, per-slot metrics customize lazily, and weight epochs published
// through the learner's incremental patch path re-customize only the dirty
// cells (O(dirty), not O(|E|)). The factory is stateful — use one per
// engine.
func NewCCHRouter() func(*Graph) Router {
	return engine.NewCCHRouter()
}

// Online dispatch engine re-exports: the concurrent, zone-sharded service
// that runs the assignment pipeline against a live order/vehicle stream.
type (
	// Engine is the online dispatcher (see internal/engine).
	Engine = engine.Engine
	// EngineConfig tunes the online engine (shards, queues, policy factory).
	EngineConfig = engine.Config
	// EngineMetrics is a point-in-time engine health/throughput snapshot.
	EngineMetrics = engine.Metrics
	// EngineShardMetrics is one zone shard's resident-state summary within
	// EngineMetrics.PerShard (round timings, queue depths, served epoch).
	EngineShardMetrics = engine.ShardMetrics
	// EngineRoundStats summarises one assignment round.
	EngineRoundStats = engine.RoundStats
	// AssignmentDecision is one published (vehicle, orders) decision.
	AssignmentDecision = engine.Decision
	// AssignmentStreamEvent is one message on the assignment stream.
	AssignmentStreamEvent = engine.StreamEvent
	// AssignmentSubscription consumes the assignment stream.
	AssignmentSubscription = engine.Subscription
)

// ErrEngineQueueFull is the engine's ingestion backpressure signal.
var ErrEngineQueueFull = engine.ErrQueueFull

// NewEngine builds the online dispatch engine over a road network and a
// fleet. Drive it with Start (real-time window clock) or Step (replay).
func NewEngine(g *Graph, fleet []*Vehicle, cfg EngineConfig) (*Engine, error) {
	return engine.New(g, fleet, cfg)
}

// Durability re-exports: the ingestion write-ahead log and the full engine
// checkpoint document (see internal/wal, internal/engine and the README's
// "Durability" section). The crash-safety contract: every accepted order and
// ping is WAL-appended before it is queued; a checkpoint taken at the round
// barrier captures the complete dispatch state (pools, scheduled orders,
// vehicle plans and mid-edge motion, counters, learned weights) plus the WAL
// high-waters, so boot = restore checkpoint + replay WAL records past the
// high-waters.
type (
	// WAL is the segmented, checksummed ingestion write-ahead log.
	WAL = wal.Log
	// WALOptions tunes WAL durability (fsync cadence) and metrics hooks.
	WALOptions = wal.Options
	// WALMetrics is the WAL's observability callback set (all fields
	// optional).
	WALMetrics = wal.Metrics
	// WALRecord is one logged ingestion event (an order or a ping).
	WALRecord = wal.Record
	// WALOrderRecord / WALPingRecord are the per-kind payloads.
	WALOrderRecord = wal.OrderRecord
	WALPingRecord  = wal.PingRecord
	// EngineCheckpoint is the versioned full-state document written by
	// Engine.WriteCheckpoint and consumed by Engine.RestoreCheckpoint.
	EngineCheckpoint = engine.Checkpoint
)

// NewObsRegistry returns an empty observability registry — pass it as
// EngineConfig.Obs to share one exposition surface between the engine and
// other instrumented components (foodmatchd adds its WAL counters to the
// same registry so GET /metrics.prom carries both).
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ObsExpBuckets returns n exponential histogram buckets starting at start
// with the given growth factor (for ObsRegistry.Histogram).
func ObsExpBuckets(start, factor float64, n int) []float64 {
	return obs.ExpBuckets(start, factor, n)
}

// OpenWAL opens (or creates) a write-ahead log in dir and replays every
// intact record from existing segments; pass the returned records to
// Engine.ReplayWAL after restoring a checkpoint.
func OpenWAL(dir string, opt WALOptions) (*WAL, []WALRecord, error) {
	return wal.Open(dir, opt)
}

// ReadEngineCheckpoint parses and version-checks a checkpoint document
// written by Engine.WriteCheckpoint.
func ReadEngineCheckpoint(r io.Reader) (*EngineCheckpoint, error) {
	return engine.ReadCheckpoint(r)
}

// GPS data pipeline re-exports (Section V-A: weights learned from pings).
type (
	// GPSPing is one GPS observation.
	GPSPing = gps.Ping
	// GPSDrive is a ground-truth timed traversal.
	GPSDrive = gps.Drive
	// GPSMatcher map-matches ping sequences onto a road network
	// (Newson–Krumm HMM).
	GPSMatcher = gps.Matcher
	// GPSMatchOptions tunes the matcher.
	GPSMatchOptions = gps.MatchOptions
	// SpeedLearner aggregates matched trajectories into per-edge per-slot
	// travel-time estimates.
	SpeedLearner = gps.SpeedLearner
)

// Dynamic road network re-exports: the live traffic plane that learns
// per-slot edge weights from vehicle movement and hot-swaps routers onto
// epoch-versioned snapshots (see internal/roadnet, internal/gps and the
// README's "Dynamic road network" section).
type (
	// SlotWeights is a sparse per-edge per-slot learned travel-time table;
	// apply it with Graph.Reweighted.
	SlotWeights = roadnet.SlotWeights
	// RoadSnapshot is one immutable weight epoch (epoch, graph, provenance).
	RoadSnapshot = roadnet.Snapshot
	// SwapRouter is the epoch-versioned Router: lock-free snapshot reads on
	// the query path, atomic hot-swap on publish.
	SwapRouter = roadnet.SwapRouter
	// StreamLearner is the online speed learner fed by live vehicle
	// observations (exact edge traversals, node pings, raw GPS chunks).
	StreamLearner = gps.StreamLearner
	// StreamLearnerOptions tunes the streaming learner.
	StreamLearnerOptions = gps.StreamOptions
	// StreamLearnerStats is a learner throughput snapshot.
	StreamLearnerStats = gps.StreamStats
	// Scenario perturbs a city's true travel-time profile (rain, rush).
	Scenario = workload.Scenario
	// EngineRoadnetStatus is the engine's dynamic-road-network status
	// (epoch, slot, learner throughput) served by foodmatchd's /roadnet.
	EngineRoadnetStatus = engine.RoadnetStatus
)

// NewSwapRouter returns an epoch-versioned Router over the base graph; each
// published epoch gets an inner backend from newRouter.
func NewSwapRouter(base *Graph, newRouter func(*Graph) Router) *SwapRouter {
	return roadnet.NewSwapRouter(base, newRouter)
}

// NewStreamLearner returns an empty streaming speed learner over g (safe
// for concurrent use; pass as EngineConfig.Learner or SimOptions.Learner).
func NewStreamLearner(g *Graph, opt StreamLearnerOptions) *StreamLearner {
	return gps.NewStreamLearner(g, opt)
}

// ParseScenario parses "none", "rain:<mult>", "rush:<factor>" or a
// comma-joined combination.
func ParseScenario(s string) (Scenario, error) { return workload.ParseScenario(s) }

// SynthesizePings emits noisy GPS observations along a drive.
func SynthesizePings(g *Graph, d GPSDrive, intervalSec, sigmaM float64, rng *rand.Rand) []GPSPing {
	return gps.Synthesize(g, d, intervalSec, sigmaM, rng)
}

// NewGPSMatcher builds an HMM map-matcher for g.
func NewGPSMatcher(g *Graph, opt GPSMatchOptions) *GPSMatcher { return gps.NewMatcher(g, opt) }

// DefaultGPSMatchOptions mirrors the Newson–Krumm parameterisation.
func DefaultGPSMatchOptions() GPSMatchOptions { return gps.DefaultMatchOptions() }

// NewSpeedLearner returns an empty per-edge per-slot travel-time learner.
func NewSpeedLearner(g *Graph) *SpeedLearner { return gps.NewSpeedLearner(g) }

// RoadPath computes the quickest executable path departing at time t, with
// per-node arrival times (the input shape SpeedLearner and GPSDrive use).
func RoadPath(g *Graph, from, to NodeID, t float64) *roadnet.PathResult {
	return roadnet.Path(g, from, to, t)
}
