package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runChild runs one workload in a fresh process (so peak RSS, GC state and
// caches are per workload) and returns its result line. The child's own
// output is passed through indented.
func runChild(name string, seed int64, seconds float64, trace, quick bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceArg}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "#") {
			fmt.Println("  " + line)
		} else if line != "" {
			last = line
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s (seed %d): %w", name, seed, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// set is the metric values of one or more runs per workload:
// workload → metric → one value per run.
type set map[string]map[string][]float64

func (s set) add(workload string, res *result) {
	if s[workload] == nil {
		s[workload] = map[string][]float64{}
	}
	for name, mv := range res.Metrics {
		s[workload][name] = append(s[workload][name], mv.Value)
	}
}

// runAll is the one command: every workload, each run in a fresh child,
// `reps` runs each, medians printed by name with unit.
func runAll(seed int64, seconds float64, trace bool, reps int, quick bool, out string) error {
	if reps < 1 {
		reps = 1
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	s := set{}
	for _, w := range workloadDefs {
		for r := 0; r < reps; r++ {
			res, err := runChild(w.Name, seed+int64(r), seconds, trace, quick)
			if err != nil {
				return err
			}
			s.add(w.Name, res)
		}
	}
	fmt.Printf("\n%-44s", "metric (median of "+fmt.Sprint(reps)+")")
	for _, w := range workloadDefs {
		fmt.Printf(" %15s", w.Name)
	}
	fmt.Println("  unit")
	for _, def := range defs {
		fmt.Printf("%-44s", def.Name)
		for _, w := range workloadDefs {
			fmt.Printf(" %15.4f", median(s[w.Name][def.Name]))
		}
		fmt.Printf("  %s\n", def.Unit)
	}
	if out == "" {
		return nil
	}
	return writeSet(out, s, defs, seed, seconds, reps)
}

// writeSet records a set as JSON — every run's value and the median per
// metric and workload, with the machine it was measured on. baseline.json is
// assembled from these.
func writeSet(path string, s set, defs []metricDef, seed int64, seconds float64, reps int) error {
	type cell struct {
		Median float64   `json:"median"`
		Runs   []float64 `json:"runs"`
		Unit   string    `json:"unit"`
	}
	doc := struct {
		NProc     int                        `json:"nproc"`
		Go        string                     `json:"go"`
		Seconds   float64                    `json:"seconds"`
		FirstSeed int64                      `json:"first_seed"`
		Reps      int                        `json:"reps"`
		Workloads map[string]map[string]cell `json:"workloads"`
	}{runtime.NumCPU(), runtime.Version(), seconds, seed, reps, map[string]map[string]cell{}}
	for _, w := range workloadDefs {
		doc.Workloads[w.Name] = map[string]cell{}
		for _, def := range defs {
			runs := s[w.Name][def.Name]
			doc.Workloads[w.Name][def.Name] = cell{median(runs), runs, def.Unit}
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// worse is by how much of a's value b is worse than a, in the metric's own
// direction (negative = b is better).
func worse(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runSelfcheck measures the same code twice — two sets of selfcheckRuns runs
// per workload on consecutive seeds, the sets alternating workload by
// workload — and fails if any end-to-end median differs between the sets by
// more than the metric's bound, or any spread exceeds it. The same table is
// how the bounds are re-derived on a new machine.
func runSelfcheck(seed int64, seconds float64) error {
	const selfcheckRuns = 3
	sets := [2]set{{}, {}}
	for r := 0; r < selfcheckRuns; r++ {
		for _, w := range workloadDefs {
			for i := range sets {
				k := (i + r) % 2 // alternate which set runs first
				res, err := runChild(w.Name, seed+int64(r), seconds, false, false)
				if err != nil {
					return err
				}
				sets[k].add(w.Name, res)
			}
		}
	}
	fmt.Printf("\n%-15s %-24s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	var failures []string
	for _, w := range workloadDefs {
		for _, def := range endToEnd {
			a, b := sets[0][w.Name][def.Name], sets[1][w.Name][def.Name]
			ma, mb := median(a), median(b)
			diff := math.Max(worse(def, ma, mb), worse(def, mb, ma))
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return ratio(q3-q1, math.Abs(median(xs)))
			}
			sa, sb := spread(a), spread(b)
			flag := ""
			if diff > def.Bound {
				flag = "  DIFFERS"
				failures = append(failures, fmt.Sprintf("%s/%s: sets differ by %.1f%% (bound %.1f%%)", w.Name, def.Name, 100*diff, 100*def.Bound))
			}
			fmt.Printf("%-15s %-24s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %6.1f%%%s\n",
				w.Name, def.Name, ma, mb, 100*worse(def, ma, mb), 100*sa, 100*sb, 100*def.Bound, flag)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return nil
}
