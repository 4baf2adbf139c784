package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	foodmatch "repro"
)

// setupReps is how many times a stepped run builds its world: set-up is
// cheap (tens of milliseconds), so the run repeats it and reports the median.
const setupReps = 7

// replayOut is everything one stepped replay observed.
type replayOut struct {
	orders     int
	rounds     int
	workSec    []float64 // rounds that had a pool to match
	pools      []int     // pool size of the working rounds
	submitSec  []float64 // per round with orders: mean SubmitOrder call
	sumStepSec float64
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64

	snap       foodmatch.EngineMetrics
	idle       bool
	digest     string
	decisions  int
	overMaxO   int // decisions carrying more than MAXO orders
	dropped    int64
	submitErrs int
}

// setUp generates the day, builds the engine and runs the empty priming
// round: the work a caller pays before the first order can be dispatched.
func (s steppedSpec) setUp(seed int64, seconds float64, tr *tracer) (*day, *foodmatch.Engine, float64, error) {
	t0 := time.Now()
	delta := foodmatch.ExperimentConfig(s.city, s.scale).Delta
	start, end := s.window(seconds, delta)
	d, err := generateDay(s.city, s.scale, seed, start, end)
	if err != nil {
		return nil, nil, 0, err
	}
	eng, err := s.engineFor(d, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	eng.Step(start)
	return d, eng, time.Since(t0).Seconds(), nil
}

// replay drives one prepared engine through its day: per round, submit the
// orders placed before the round's clock, then Step; after the stream ends,
// keep stepping until the engine is idle (or the drain cap).
func (s steppedSpec) replay(d *day, eng *foodmatch.Engine, seconds float64, tr *tracer) *replayOut {
	out := &replayOut{orders: len(d.orders)}
	delta := d.cfg.Delta
	start, end := s.window(seconds, delta)

	// The subscriber drains concurrently so the buffer never fills; the
	// buffer still covers a whole day's decisions in case it is descheduled.
	sub := eng.Subscribe(4 * (len(d.orders) + 1024))
	h := sha256.New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for ev := range sub.C {
			dec := ev.Decision
			if dec == nil {
				continue
			}
			out.decisions++
			if len(dec.Orders) > d.cfg.MaxO {
				out.overMaxO++
			}
			put(math.Float64bits(dec.T))
			put(uint64(dec.Vehicle))
			put(uint64(len(dec.Orders)))
			for _, id := range dec.Orders {
				put(uint64(id))
			}
		}
	}()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	next := 0
	for now := start + delta; ; now += delta {
		first, t0 := next, time.Now()
		for next < len(d.orders) && d.orders[next].PlacedAt < now {
			if err := eng.SubmitOrder(d.orders[next]); err != nil {
				out.submitErrs++
			}
			next++
		}
		if next > first {
			out.submitSec = append(out.submitSec, time.Since(t0).Seconds()/float64(next-first))
		}
		var span int32
		if tr != nil {
			span = tr.beginStep(out.rounds)
		}
		t0 = time.Now()
		rs := eng.Step(now)
		sec := time.Since(t0).Seconds()
		if tr != nil {
			tr.endStep(span)
		}
		out.rounds++
		out.sumStepSec += sec
		if rs.PoolSize > 0 && now <= end {
			out.workSec = append(out.workSec, sec)
			out.pools = append(out.pools, rs.PoolSize)
		}
		if next == len(d.orders) && eng.Idle() {
			out.idle = true
			break
		}
		if now >= end+drainCapSec {
			break
		}
	}
	out.cpu = selfCPU() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	out.snap = eng.Snapshot()
	out.dropped = sub.Dropped()
	sub.Cancel()
	<-done
	out.digest = hex.EncodeToString(h.Sum(nil)[:12])
	return out
}

// gate is the correctness check after drain. It returns the failed-operation
// count (orders shed, rejected past RejectAfter, stranded or unaccounted) and
// every violated invariant.
func (o *replayOut) gate() (failed int, violations []string) {
	m := o.snap
	bad := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	if o.submitErrs > 0 {
		bad("%d SubmitOrder calls failed", o.submitErrs)
	}
	if int(m.OrdersAdmitted) != o.orders-o.submitErrs {
		bad("admitted %d of %d submitted orders", m.OrdersAdmitted, o.orders-o.submitErrs)
	}
	accounted := m.Delivered + m.Rejected + m.Stranded
	if accounted != m.OrdersAdmitted {
		bad("conservation: admitted %d != delivered %d + rejected %d + stranded %d",
			m.OrdersAdmitted, m.Delivered, m.Rejected, m.Stranded)
	}
	if !o.idle || m.PoolDepth != 0 || m.ScheduledDepth != 0 || m.OrderQueueDepth != 0 {
		bad("not drained: idle=%v pool=%d scheduled=%d queue=%d", o.idle, m.PoolDepth, m.ScheduledDepth, m.OrderQueueDepth)
	}
	if o.overMaxO > 0 {
		bad("%d decisions carry more than MAXO orders", o.overMaxO)
	}
	if o.dropped > 0 {
		bad("subscription dropped %d events", o.dropped)
	}
	unaccounted := m.OrdersAdmitted - accounted
	if unaccounted < 0 {
		unaccounted = 0
	}
	failed = o.submitErrs + int(m.Rejected+m.Stranded+unaccounted)
	return failed, violations
}

// xdtMinPerOrder and ordersPerKm are the paper's quality metrics over a
// finished run's engine snapshot.
func xdtMinPerOrder(m foodmatch.EngineMetrics) float64 {
	return ratio(m.XDTSec/60, float64(m.Delivered))
}

func ordersPerKm(m foodmatch.EngineMetrics) float64 {
	return ratio(float64(m.Delivered), m.DistKm)
}

// endToEndMetrics turns a replay into the end-to-end values.
func (o *replayOut) endToEndMetrics(setupSec []float64, plannedRounds int, failed int, rssMB float64) map[string]float64 {
	toMS := func(xs []float64, p float64) float64 { return percentile(xs, p) * 1000 }
	return map[string]float64{
		"setup_s":               median(setupSec),
		"dispatch_orders_per_s": ratio(float64(o.orders), o.sumStepSec),
		"round_p50_ms":          toMS(o.workSec, 50),
		"round_tail_ms":         toMS(o.workSec, tailPercentile(plannedRounds)),
		"rss_peak_mb":           rssMB,
		"ok_pct":                100 * (1 - ratio(float64(failed), float64(o.orders))),
		"ack_p50_ms":            toMS(o.submitSec, 50),
	}
}

// runStepped is one stepped workload in this process: repeated set-up, one
// untraced replay and, with trace on, a second traced replay plus the ladder.
func runStepped(s steppedSpec, seed int64, seconds float64, trace bool, outPath string, ladderAt float64) (*result, error) {
	var (
		setupSec []float64
		d        *day
		eng      *foodmatch.Engine
	)
	for i := 0; i < setupReps; i++ {
		var sec float64
		var err error
		d, eng, sec, err = s.setUp(seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		setupSec = append(setupSec, sec)
	}
	runtime.GC()
	resetPeakRSS()

	delta := d.cfg.Delta
	start, end := s.window(seconds, delta)
	planned := int((end - start) / delta)
	plain := s.replay(d, eng, seconds, nil)
	failed, violations := plain.gate()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: plain.orders, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Printf("# %s seed=%d window=%s-%s orders=%d rounds=%d (working %d, tail=p%.0f) delivered=%d rejected=%d stranded=%d decisions=%d\n",
		s.name, seed, clock(start), clock(end), plain.orders, plain.rounds, len(plain.workSec),
		tailPercentile(planned), plain.snap.Delivered, plain.snap.Rejected, plain.snap.Stranded, plain.decisions)
	fmt.Printf("# %s decision_digest=%s xdt_min_per_order=%.4f orders_per_km=%.4f\n",
		s.name, plain.digest, xdtMinPerOrder(plain.snap), ordersPerKm(plain.snap))

	if !trace {
		fill(res, endToEnd, plain.endToEndMetrics(setupSec, planned, failed, rss))
	} else {
		tr := newTracer()
		td, teng, _, err := s.setUp(seed, seconds, tr)
		if err != nil {
			return nil, err
		}
		traced := s.replay(td, teng, seconds, tr)
		if traced.digest != plain.digest {
			violations = append(violations, fmt.Sprintf("traced decision_digest %s != untraced %s", traced.digest, plain.digest))
		}
		layers := tr.layerMetrics(plain, traced)
		if s.shards == 1 {
			if sum := tr.sharesSum(); math.Abs(sum-100) > 2 {
				violations = append(violations, fmt.Sprintf("stage shares + engine.self_pct sum to %.2f%%, want 100±2", sum))
			}
		}
		addLadder(layers, seconds, ladderAt)
		fill(res, perLayer, layers)
		if outPath != "" {
			if err := tr.writeSpans(outPath); err != nil {
				return nil, err
			}
			fmt.Printf("# %s spans=%s (%d spans)\n", s.name, outPath, len(tr.spans))
		}
	}
	for _, v := range violations {
		fmt.Printf("# %s VIOLATION: %s\n", s.name, v)
	}
	res.Correct = len(violations) == 0
	return res, nil
}

// fill copies values into the result in manifest order; a metric the run did
// not produce reads 0 (see perLayer).
func fill(res *result, defs []metricDef, values map[string]float64) {
	for _, def := range defs {
		v := values[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
}

func clock(sec float64) string {
	return fmt.Sprintf("%02d:%02d", int(sec)/3600, int(sec)%3600/60)
}
