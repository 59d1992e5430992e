package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSet is a set of runs: per workload, the results of its runs.
type runSet map[string][]*result

// loadRuns reads DIR/<workload>/*.out, each the standard output of one
// run, whose last line is the run's result.
func loadRuns(dir string) (runSet, error) {
	set := runSet{}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.out"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		res, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		wl := filepath.Base(filepath.Dir(f))
		set[wl] = append(set[wl], res)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no runs under %s (want %s/<workload>/<seed>.out)", dir, dir)
	}
	return set, nil
}

func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &res, nil
}

// quartiles returns the quartiles of x by the "exclusive" method of
// Python's statistics.quantiles(x, n=4), and the median.
func quartiles(x []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if ld%2 == 1 {
		med = s[ld/2]
	} else {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	return q(1), med, q(3)
}

// compareRuns prints, per workload and end-to-end metric, each side's
// median and quartiles, each side's spread (interquartile distance
// over the median), and whether B's median is within the metric's
// bound in BENCHMARK.json, read from the working directory (run.sh
// runs from the repository root).
func compareRuns(out io.Writer, dirA, dirB string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	defs := bf.EndToEnd
	if len(defs) == 0 {
		return fmt.Errorf("BENCHMARK.json lists no end-to-end metrics")
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-14s %-16s %6s | %12s %12s %12s %7s | %12s %12s %12s %7s | %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "verdict")
	agree := true
	for _, wl := range names {
		for _, m := range defs {
			xa, xb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			change := (bm - am) / am
			if m.Better == "higher" {
				change = -change
			}
			verdict := "agree"
			if math.Abs(change) > m.Bound {
				verdict = "B worse"
				if change < 0 {
					verdict = "B better"
				}
				agree = false
			}
			fmt.Fprintf(out, "%-14s %-16s %6.3f | %12.5g %12.5g %12.5g %7.4f | %12.5g %12.5g %12.5g %7.4f | %s (%+.4f)\n",
				wl, m.Name, m.Bound, a1, am, a3, (a3-a1)/am, b1, bm, b3, (b3-b1)/bm, verdict, change)
		}
		fa, fb := failedShare(a[wl]), failedShare(b[wl])
		fmt.Fprintf(out, "%-14s failed share: A %d/%d, B %d/%d\n", wl, fa[0], fa[1], fb[0], fb[1])
	}
	if !agree {
		fmt.Fprintln(out, "medians differ beyond a bound")
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(rs []*result) [2]int {
	var f, n int
	for _, r := range rs {
		f += r.Failed
		n += r.Attempted
	}
	return [2]int{f, n}
}
