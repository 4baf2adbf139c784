// Command bench is the repository's performance ledger: four workloads driven
// through the public dispatcher API (three stepped replays, one real
// foodmatchd under HTTP load), ten end-to-end metrics, a correctness gate, and
// — with -trace 1 — bench-side spans, per-layer metrics and a fixed-fixture
// layer ladder. See README.md.
//
//	bash bench/run.sh                         # every workload, one run each
//	bash bench/run.sh -workload dinner-peak   # one workload, in this process
//	bash bench/run.sh -selfcheck              # two sets, compared by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

const (
	defaultSeconds = 15
	// -quick is a smoke size, not a measurement: every city at scale 0.01,
	// ten simulated minutes of orders, four seconds of daemon load.
	quickScale         = 0.01
	quickSteppedSimMin = 10
	quickDaemonSeconds = 4
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this workload in this process and print its result line (default: every workload, each in a fresh child process)")
		seed      = flag.Int64("seed", 1, "workload seed: which tenth of the reference day's orders and vehicle start nodes is redrawn (the city seed stays 1)")
		seconds   = flag.Float64("seconds", defaultSeconds, "run length: sizes the replayed order window (stepped) or the load duration (daemon-ingest)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, ladder (end-to-end metrics are measured with 0)")
		reps      = flag.Int("reps", 1, "runs per workload when running every workload; medians are reported")
		out       = flag.String("out", "", "with -workload and -trace 1: the span file (default spans-<workload>.jsonl in the scratch directory); without -workload: write the set as JSON")
		quick     = flag.Bool("quick", false, "smoke size (scale 0.01, 10 simulated minutes, 4 s of daemon load): exercises everything, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of 3 runs per workload and fail if any end-to-end median differs by more than its bound")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *out, *quick)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	default:
		err = runAll(*seed, *seconds, *trace != 0, *reps, *quick, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// scratchDir is where the bench may write: the launcher's build directory
// (BENCH_SCRATCH), else the system temp directory. Never the source tree.
func scratchDir() string {
	if d := os.Getenv("BENCH_SCRATCH"); d != "" {
		return d
	}
	return os.TempDir()
}

// runOne runs one workload in this process, prints its metrics and ends with
// the result line the driver reads. A failed correctness gate exits non-zero.
func runOne(name string, seed int64, seconds float64, trace bool, out string, quick bool) error {
	if trace && out == "" {
		out = filepath.Join(scratchDir(), "spans-"+name+".jsonl")
	}
	var res *result
	var err error
	ladderAt := ladderScale
	if quick {
		ladderAt = quickScale
	}
	if spec, ok := steppedByName(name); ok {
		if quick {
			spec.scale = quickScale
			seconds = quickSteppedSimMin / spec.simMinPerSec
		}
		res, err = runStepped(spec, seed, seconds, trace, out, ladderAt)
	} else if name == "daemon-ingest" {
		scale := daemonScale
		if quick {
			scale, seconds = quickScale, quickDaemonSeconds
		}
		res, err = runDaemon(seed, seconds, trace, scale, ladderAt)
	} else {
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Printf("%-44s %16.4f %s\n", def.Name, res.Metrics[def.Name].Value, def.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed", name)
	}
	return nil
}
