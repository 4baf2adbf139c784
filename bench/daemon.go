package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	foodmatch "repro"
)

// daemon-ingest drives a real foodmatchd subprocess over HTTP.
const (
	daemonCity      = "CityB"
	daemonScale     = 0.05
	daemonShards    = 2
	daemonTimescale = 120.0
	daemonStartHour = 18.0
	daemonPingSim   = 120.0 // simulated seconds between a vehicle's pings
	// daemonStarts is how many times a run boots the daemon: the first ones
	// only time exec → /readyz, the last one takes the load.
	daemonStarts = 3
)

// daemonProc is one running foodmatchd with everything that must be cleaned
// up after it.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	walDir  string
	logPath string
	readyIn time.Duration
	stopped sync.Once
}

// daemonBinary returns the foodmatchd binary: the one the launcher built
// (FOODMATCHD_BIN), else built now from the module this package requires.
func daemonBinary() (string, error) {
	if p := os.Getenv("FOODMATCHD_BIN"); p != "" {
		return p, nil
	}
	bin := filepath.Join(scratchDir(), fmt.Sprintf("foodmatchd-%d", os.Getpid()))
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/foodmatchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build foodmatchd: %w\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs foodmatchd on a free port with a fresh WAL directory and
// waits for /readyz.
func startDaemon(bin string, scale float64) (*daemonProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(scratchDir(), "daemon-wal-")
	if err != nil {
		return nil, err
	}
	p := &daemonProc{
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		walDir:  walDir,
		logPath: filepath.Join(walDir, "foodmatchd.log"),
	}
	logf, err := os.Create(p.logPath)
	if err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-city", daemonCity, "-scale", fmt.Sprint(scale), "-seed", fmt.Sprint(citySeed),
		"-shards", fmt.Sprint(daemonShards), "-timescale", fmt.Sprint(daemonTimescale),
		"-start", fmt.Sprint(daemonStartHour), "-wal-dir", walDir, "-wal-sync", "1")
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := p.cmd.Start(); err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.readyIn = time.Since(t0)
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			tail := p.logTail()
			p.stop()
			return nil, fmt.Errorf("foodmatchd not ready after 30s; log tail:\n%s", tail)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (p *daemonProc) logTail() string {
	b, _ := os.ReadFile(p.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop SIGTERMs the daemon, waits for its drain (SIGKILL after 15 s), reaps
// it and removes its WAL directory. Safe on every path, including failures,
// and more than once.
func (p *daemonProc) stop() {
	p.stopped.Do(func() {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
			exited := make(chan struct{})
			go func() {
				_ = p.cmd.Wait()
				close(exited)
			}()
			select {
			case <-exited:
			case <-time.After(15 * time.Second):
				_ = p.cmd.Process.Kill()
				<-exited
			}
		}
		os.RemoveAll(p.walDir)
	})
}

// dirMB sums the regular files under dir.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// streamLog is what the /assignments reader saw. The reader goroutine is its
// only writer; everyone else reads it after that goroutine is done.
type streamLog struct {
	rounds     []foodmatch.EngineRoundStats
	roundAt    []time.Time         // arrival of each round event
	assignedAt map[int64]time.Time // order id → first decision carrying it
	err        error
}

// readAssignments consumes the daemon's NDJSON stream until it closes.
func readAssignments(base string, log *streamLog, ready chan<- struct{}, done chan<- struct{}) {
	defer close(done)
	resp, err := http.Get(base + "/assignments?buffer=65536")
	if err != nil {
		log.err = err
		close(ready)
		return
	}
	defer resp.Body.Close()
	close(ready)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var ev foodmatch.AssignmentStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		now := time.Now()
		switch {
		case ev.Round != nil:
			log.rounds = append(log.rounds, *ev.Round)
			log.roundAt = append(log.roundAt, now)
		case ev.Decision != nil:
			for _, id := range ev.Decision.Orders {
				if _, seen := log.assignedAt[int64(id)]; !seen {
					log.assignedAt[int64(id)] = now
				}
			}
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runDaemon is the daemon-ingest workload: boot foodmatchd (several times,
// for the set-up median), hold an open loop of orders and pings against the
// last boot for `seconds`, read back /assignments and /metrics, SIGTERM.
func runDaemon(seed int64, seconds float64, trace bool, scale, ladderAt float64) (*result, error) {
	bin, err := daemonBinary()
	if err != nil {
		return nil, err
	}
	if os.Getenv("FOODMATCHD_BIN") == "" {
		defer os.Remove(bin)
	}
	startSim := daemonStartHour * 3600
	length := time.Duration(seconds * float64(time.Second))
	d, err := generateDay(daemonCity, scale, seed, startSim, startSim+seconds*daemonTimescale)
	if err != nil {
		return nil, err
	}
	schedule := ingestSchedule(d, startSim, daemonTimescale, length, daemonPingSim)

	var setupSec []float64
	var p *daemonProc
	for i := 0; i < daemonStarts; i++ {
		if p != nil {
			p.stop()
		}
		if p, err = startDaemon(bin, scale); err != nil {
			return nil, err
		}
		setupSec = append(setupSec, p.readyIn.Seconds())
	}
	defer p.stop()

	log := &streamLog{assignedAt: map[int64]time.Time{}}
	ready, streamDone := make(chan struct{}), make(chan struct{})
	go readAssignments(p.base, log, ready, streamDone)
	<-ready

	pid := p.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	loadStart := time.Now()
	acks := openLoop(p.base, schedule, runtime.NumCPU())
	loadSec := time.Since(loadStart).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	var m foodmatch.EngineMetrics
	if err := getJSON(p.base+"/metrics", &m); err != nil {
		return nil, err
	}
	walMB := dirMB(p.walDir)
	p.stop() // closes the stream
	<-streamDone
	if log.err != nil {
		return nil, fmt.Errorf("/assignments: %w", log.err)
	}

	t := tally(acks, log)

	// Gate: what the daemon says it ingested and shed must match what the
	// clients saw acknowledged and refused.
	var violations []string
	if got := int(m.OrdersIngested + m.PingsIngested); got != t.ok202 {
		violations = append(violations, fmt.Sprintf("202 acks %d != orders_ingested %d + pings_ingested %d", t.ok202, m.OrdersIngested, m.PingsIngested))
	}
	if got := int(m.OrdersShed + m.PingsShed); got != t.non202 {
		violations = append(violations, fmt.Sprintf("non-202 responses %d != shed orders %d + shed pings %d", t.non202, m.OrdersShed, m.PingsShed))
	}
	if len(log.rounds) < 2 {
		violations = append(violations, fmt.Sprintf("%d round events on /assignments, need 2 for a cadence", len(log.rounds)))
	}

	fmt.Printf("# daemon-ingest seed=%d %.0fs at %.0fx: %d orders + %d pings, %d acked 202, %d refused, %d rounds, %d delivered, ready in %.2fs\n",
		seed, seconds, daemonTimescale, t.orders, len(acks)-t.orders, t.ok202, t.non202, len(log.rounds), m.Delivered, median(setupSec))

	res := &result{Attempted: len(acks), Failed: t.non202, Metrics: map[string]metricValue{}}
	if !trace {
		planned := int(seconds * daemonTimescale / d.cfg.Delta)
		fill(res, endToEnd, map[string]float64{
			"setup_s": median(setupSec),
			// Round latency inside a lightly loaded daemon swings 2x between
			// identical runs (README "End-to-end metrics"); what a client can
			// hold the daemon to is the rate it sustains and the cadence at
			// which its rounds complete.
			"dispatch_orders_per_s": ratio(float64(t.ordersOK), loadSec),
			"round_p50_ms":          percentile(t.cadenceMS, 50),
			"round_tail_ms":         percentile(t.cadenceMS, tailPercentile(planned)),
			"rss_peak_mb":           rss,
			"ok_pct":                100 * (1 - ratio(float64(t.non202), float64(len(acks)))),
			"ack_p50_ms":            percentile(t.allMS, 50),
		})
	} else {
		layers := t.layerMetrics(log.rounds, m)
		layers["foodmatchd.cpu_ms_per_order"] = ratio((cpu1-cpu0).Seconds()*1000, float64(t.orders))
		layers["foodmatchd.wal_mb"] = walMB
		addLadder(layers, seconds, ladderAt)
		fill(res, perLayer, layers)
	}
	for _, v := range violations {
		fmt.Printf("# daemon-ingest VIOLATION: %s\n", v)
	}
	res.Correct = len(violations) == 0
	return res, nil
}

// ackTally is the load generator's and the stream reader's observations,
// sorted into the samples the metrics are taken from.
type ackTally struct {
	orderMS, pingMS, allMS, lateMS  []float64
	placedToAssignedMS              []float64 // ack → first decision carrying the order
	cadenceMS                       []float64 // interval between round events
	orders, ordersOK, ok202, non202 int
}

func tally(acks []ack, log *streamLog) *ackTally {
	t := &ackTally{}
	for _, a := range acks {
		lat := float64(a.latency) / 1e6
		t.allMS = append(t.allMS, lat)
		t.lateMS = append(t.lateMS, float64(a.late)/1e6)
		if a.ping {
			t.pingMS = append(t.pingMS, lat)
		} else {
			t.orderMS = append(t.orderMS, lat)
			t.orders++
		}
		if a.status == http.StatusAccepted {
			t.ok202++
			if !a.ping {
				t.ordersOK++
			}
		} else {
			t.non202++
		}
		if at, seen := log.assignedAt[a.orderID]; seen && a.orderID != 0 {
			t.placedToAssignedMS = append(t.placedToAssignedMS, float64(at.Sub(a.done))/1e6)
		}
	}
	for i := 1; i < len(log.roundAt); i++ {
		t.cadenceMS = append(t.cadenceMS, float64(log.roundAt[i].Sub(log.roundAt[i-1]))/1e6)
	}
	return t
}

// layerMetrics is what the daemon-ingest run itself says about the layers:
// the foodmatchd.* metrics, plus the engine and stage figures the round
// events on the stream carry.
func (t *ackTally) layerMetrics(rounds []foodmatch.EngineRoundStats, m foodmatch.EngineMetrics) map[string]float64 {
	var (
		roundMS          []float64
		stepSec          float64
		stages           foodmatch.PipelineStats
		queueMax         int
		poolSum, poolMax int
	)
	for _, r := range rounds {
		roundMS = append(roundMS, r.LatencySec*1000)
		stepSec += r.LatencySec
		queueMax = max(queueMax, r.OrderQueueDepth, r.PingQueueDepth)
		stages.Accumulate(r.Pipeline)
		poolSum += r.PoolSize
		poolMax = max(poolMax, r.PoolSize)
	}
	n := float64(len(rounds))
	return map[string]float64{
		"foodmatchd.order_ack_p50_ms":          percentile(t.orderMS, 50),
		"foodmatchd.ping_ack_p50_ms":           percentile(t.pingMS, 50),
		"foodmatchd.ack_p90_ms":                percentile(t.allMS, 90),
		"foodmatchd.ack_p99_ms":                percentile(t.allMS, 99),
		"foodmatchd.gen_late_p99_ms":           percentile(t.lateMS, 99),
		"foodmatchd.gen_late_max_ms":           percentile(t.lateMS, 100),
		"foodmatchd.round_p50_ms":              percentile(roundMS, 50),
		"foodmatchd.rounds":                    n,
		"foodmatchd.placed_to_assigned_p50_ms": percentile(t.placedToAssignedMS, 50),
		"foodmatchd.queue_depth_max":           float64(queueMax),

		"engine.step_ms_per_round": ratio(stepSec*1000, n),
		"engine.pool_mean":         ratio(float64(poolSum), n),
		"engine.pool_max":          float64(poolMax),
		"engine.rejected_pct":      100 * ratio(float64(m.Rejected), float64(m.OrdersAdmitted)),
		"engine.reassigned_pct":    100 * ratio(float64(m.Reassigned), float64(m.Assigned)),
		"batching.busy_pct":        100 * ratio(stages.BatchSec, stepSec),
		"foodgraph.busy_pct":       100 * ratio(stages.SparsifySec, stepSec),
		"pipeline.reshuffle_pct":   100 * ratio(stages.ReshuffleSec, stepSec),
		"matching.busy_pct":        100 * ratio(stages.MatchSec, stepSec),
		"roadnet.resplits":         float64(m.Resplits),

		"quality.xdt_min_per_order": xdtMinPerOrder(m),
		"quality.orders_per_km":     ordersPerKm(m),
	}
}
