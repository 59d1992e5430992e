// Command perfbench is steadyd's benchmark. It drives the HTTP handler
// of pkg/steady/server in process, plus the control.Manager methods
// that server exposes, through one of four workloads, and checks
// every answer against exact results computed apart from the program
// (package exact).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-hit --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare runs-a runs-b
//	bash perfbench/run.sh --summarise .bench_build/trace/solve-hit-1.jsonl
//	bash perfbench/run.sh --benchmark-json > BENCHMARK.json
//
// A run prints its metrics, one per line with its unit, and then, as
// the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run alternates untraced and traced rounds, writes the
// trace as JSON lines under .bench_build/trace/, and reports the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/pkg/steady/batch"
)

// setupRepeats is how many times a run sets up; setup_s is the median
// of the process CPU time each set-up took. Set-up is short, so its
// wall time swung with the steal time of the shared host the benchmark
// was tuned on; CPU time leaves steal out and still shows work moved
// into set-up.
const setupRepeats = 9

var constructors = map[string]func(seed int64, traced bool) (workload, error){
	"solve-hit":     func(s int64, t bool) (workload, error) { return newSolveHit(s, t) },
	"solve-miss":    func(s int64, t bool) (workload, error) { return newSolveMiss(s, t) },
	"simulate":      func(s int64, t bool) (workload, error) { return newSimulate(s, t) },
	"control-epoch": func(s int64, t bool) (workload, error) { return newControlEpoch(s, t) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: solve-hit, solve-miss, simulate or control-epoch")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two sets of runs: --compare DIR_A DIR_B")
	summariseFile := flag.String("summarise", "", "print the per-layer metrics of a trace file")
	emit := flag.Bool("benchmark-json", false, "print BENCHMARK.json")
	flag.Parse()

	var err error
	switch {
	case *emit:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two directories of runs")
			break
		}
		err = compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *summariseFile != "":
		err = summariseTrace(*summariseFile)
	default:
		err = runWorkload(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func runWorkload(name string, seed int64, d time.Duration, traced bool) error {
	ctor, ok := constructors[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// One client, one P. With a second P the garbage collector's
	// concurrent and stop-the-world phases wait on a second vCPU, and on
	// a host that steals vCPU time that made ops_per_s of identical
	// control-epoch runs range 2x (spread 0.53, against 0.17 with one
	// P) while their median latency stayed put.
	runtime.GOMAXPROCS(1)
	var w workload
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		c := cpuTime()
		var err error
		if w, err = ctor(seed, traced); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, cpuTime()-c)
	}
	res := &result{Metrics: map[string]metricValue{}}
	var seq int64
	var values map[string]float64
	var defs []metric
	if !traced {
		ph, _ := measure(w, d, nil, &seq)
		res.Correct, res.Attempted, res.Failed = ph.correct, ph.attempted, ph.failed
		values, defs = endToEndMetrics(ph, median(setups)), endToEnd
		// From here only the server is live: the heap is the program's
		// state, not the benchmark's inputs or samples.
		srv := w.server()
		values["heap_live_mb"] = float64(heapLive()) / (1 << 20)
		srv.Close()
	} else {
		defer w.close()
		tr := newTracer()
		before := w.server().Cache().Stats()
		untraced, traced := measure(w, d, tr, &seq)
		cacheCounts(tr, before, w.server().Cache().Stats(), len(untraced.lat)+len(traced.lat))
		tr.runCount("runtime.ops", float64(len(untraced.lat)))
		tr.runCount("runtime.mallocs", untraced.rt.mallocs)
		tr.runCount("runtime.gc_cycles", untraced.rt.gcCycles)
		tr.runCount("runtime.gc_cpu_s", untraced.rt.gcCPU)
		tr.runCount("runtime.cpu_s", untraced.rt.totalCPU)
		tr.runCount("trace.untraced_ops_per_s", untraced.opsPerSec())
		tr.runCount("trace.traced_ops_per_s", traced.opsPerSec())
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("trace: %s (%d spans, %d counts)\n", path, len(tr.spans), len(tr.counts))
		res.Correct = untraced.correct && traced.correct
		res.Attempted = untraced.attempted + traced.attempted
		res.Failed = untraced.failed + traced.failed
		values, defs = summarise(tr), perLayer
	}
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, correct %v\n", name, seed, res.Attempted, res.Failed, res.Correct)
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cacheCounts records the server's LP-cache traffic over the traced
// run's ops operations. Every miss inserts an entry, so misses that
// did not grow the cache evicted one.
func cacheCounts(tr *tracer, a, b batch.CacheStats, ops int) {
	solves := float64(b.Solves - a.Solves)
	tr.runCount("ops", float64(ops))
	tr.runCount("batch.hits", float64(b.Hits-a.Hits))
	tr.runCount("batch.solves", solves)
	tr.runCount("batch.evictions", max(0, solves-float64(b.Entries-a.Entries)))
	tr.runCount("lp.float_pivots", float64(b.FloatPivots-a.FloatPivots))
	tr.runCount("lp.exact_pivots", float64(b.Pivots-a.Pivots))
	tr.runCount("lp.repair_pivots", float64(b.RepairPivots-a.RepairPivots))
	tr.runCount("lp.exact_fallbacks", float64(b.ExactFallbacks-a.ExactFallbacks))
	tr.runCount("lp.warm_solves", float64(b.WarmSolves-a.WarmSolves))
}

func summariseTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := readTrace(f)
	if err != nil {
		return err
	}
	values := summarise(tr)
	for _, m := range perLayer {
		fmt.Printf("%-30s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	return nil
}
