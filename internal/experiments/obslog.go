package experiments

import (
	"encoding/json"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ObsLog collects observability telemetry from offline simulator runs: one
// JSONL line per window (the engine's RoundStats, span tree included),
// lifecycle transition histograms fed from the trace stream, and a final
// `{"kind":"obs_summary"}` line with every metric point — counts, sums and
// p50/p95/p99 — gathered from its private registry. cmd/experiments wires
// one in with -obs-out; Setup.Obs threads it through every simulator the
// drivers construct.
//
// Safe for concurrent use: drivers that replay several days or regimes may
// interleave rounds from different simulators; the line stream is
// serialised, the histograms are atomic.
type ObsLog struct {
	mu     sync.Mutex
	enc    *json.Encoder
	closer io.Closer

	reg          *obs.Registry
	tracer       *obs.OrderTracer
	roundLatency *obs.Histogram
	rounds       int64
}

// NewObsLog returns a collector writing JSONL to w (which may be nil to
// collect aggregates only). If w also implements io.Closer, Close closes it.
func NewObsLog(w io.Writer) *ObsLog {
	l := &ObsLog{reg: obs.NewRegistry()}
	if w != nil {
		l.enc = json.NewEncoder(w)
		if c, ok := w.(io.Closer); ok {
			l.closer = c
		}
	}
	l.tracer = obs.NewOrderTracer(l.reg, 0)
	l.roundLatency = l.reg.Histogram("foodmatch_round_latency_seconds",
		"Wall-clock latency of one full window.", obs.DurationBuckets, nil)
	return l
}

// Registry exposes the collector's metric registry (tests, Prometheus dumps).
func (l *ObsLog) Registry() *obs.Registry { return l.reg }

// OnRound implements engine.SimOptions.OnRound: record the window's span
// tree into the histograms — labelled with whatever phase and stage names
// the engine emits (stages sit under match → shard) — and append one JSONL
// line.
func (l *ObsLog) OnRound(rs engine.RoundStats) {
	if l == nil {
		return
	}
	l.roundLatency.Observe(rs.LatencySec)
	for _, ph := range rs.Phases {
		l.reg.Histogram("foodmatch_round_phase_seconds",
			"Wall-clock latency of one phase of the window's round.",
			obs.DurationBuckets, obs.Labels{"phase": ph.Name}).Observe(ph.DurSec)
		if ph.Name != "match" {
			continue
		}
		for _, shard := range ph.Children {
			for _, st := range shard.Children {
				l.reg.Histogram("foodmatch_pipeline_stage_seconds",
					"Wall-clock latency of one assignment-pipeline stage.",
					obs.DurationBuckets, obs.Labels{"stage": st.Name}).Observe(st.DurSec)
			}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds++
	if l.enc != nil {
		l.enc.Encode(struct {
			Kind string `json:"kind"`
			engine.RoundStats
		}{Kind: "round", RoundStats: rs})
	}
}

// TraceSink chains the lifecycle tracer in front of next (nil = discard):
// pass the result as engine.SimOptions.Trace so order transitions feed the
// per-transition latency histograms.
func (l *ObsLog) TraceSink(next trace.Sink) trace.Sink {
	if l == nil {
		return next
	}
	return trace.NewLifecycleSink(l.tracer, next)
}

// Rounds reports how many windows have been recorded.
func (l *ObsLog) Rounds() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rounds
}

// Close writes the final obs_summary line (every metric point with
// count/sum/quantiles) and closes the underlying writer when it owns one.
func (l *ObsLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.enc != nil {
		l.enc.Encode(struct {
			Kind    string            `json:"kind"`
			Rounds  int64             `json:"rounds"`
			Metrics []obs.MetricPoint `json:"metrics"`
		}{Kind: "obs_summary", Rounds: l.rounds, Metrics: l.reg.Gather()})
	}
	if l.closer != nil {
		return l.closer.Close()
	}
	return nil
}

// obsOptions decorates base sim options with the Setup's collector (no-op
// when the setup carries none) — every driver's simulator goes through this.
func (st Setup) obsOptions(base engine.SimOptions) engine.SimOptions {
	if st.Obs == nil {
		return base
	}
	base.OnRound = st.Obs.OnRound
	base.Trace = st.Obs.TraceSink(base.Trace)
	return base
}
