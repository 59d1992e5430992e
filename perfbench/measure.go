package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/perfbench/exact"
)

// rtSample is a reading of the process's runtime counters.
type rtSample struct {
	allocBytes, mallocs, gcCycles float64
	gcCPU, totalCPU               float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		allocBytes: v(0),
		mallocs:    v(1) + v(2),
		gcCycles:   v(3),
		gcCPU:      v(4),
		totalCPU:   v(5),
	}
}

// mallocs returns the heap allocations made so far, for counting the
// allocations of one replayed call.
func mallocs() float64 { return readRuntime().mallocs }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is what one measured set of rounds produced. Only the
// operations themselves are timed: preparing inputs, checking
// outputs and replaying stages for the trace happen between rounds
// and are kept out of the wall, CPU and allocation totals.
type phase struct {
	lat       []time.Duration
	wall, cpu time.Duration
	rt        rtSample // runtime counter deltas over the timed stretches
	attempted int
	failed    int
	correct   bool
	reported  int // check errors printed so far
}

// opsPerSec is completed operations per second of timed wall time.
func (p *phase) opsPerSec() float64 { return float64(len(p.lat)) / p.wall.Seconds() }

// measure runs whole rounds of w's operations until d has passed.
// Without a tracer every round is untraced. With one, rounds run in
// the order untraced, traced, traced, untraced, over and over, so both
// phases see the same cache state and heap and differ only in
// tracing. Each operation of a traced round is a root span, and the
// workload replays its stages after the round; in that order the
// garbage a replay leaves, and the collection it brings on, falls as
// often on an untraced round as on a traced one.
func measure(w workload, d time.Duration, tr *tracer, seq *int64) (untraced, traced *phase) {
	untraced, traced = &phase{correct: true}, &phase{correct: true}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		if tr != nil && (i%4 == 1 || i%4 == 2) {
			runRound(w, traced, tr, seq)
		} else {
			runRound(w, untraced, nil, seq)
		}
	}
	return untraced, traced
}

// runRound runs one round of w's operations and adds what it produced
// to ph.
func runRound(w workload, ph *phase, tr *tracer, seq *int64) {
	ops := make([]*op, w.round())
	for i := range ops {
		ops[i] = w.prepare(*seq)
		*seq++
	}
	r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
	for _, o := range ops {
		if tr != nil {
			tr.op = o.seq
		}
		o.span = tr.begin("op", -1)
		s := time.Now()
		w.do(o, tr)
		o.lat = time.Since(s)
		tr.end(o.span)
	}
	ph.wall += time.Since(t0)
	ph.cpu += cpuTime() - c0
	r1 := readRuntime()
	ph.rt.allocBytes += r1.allocBytes - r0.allocBytes
	ph.rt.mallocs += r1.mallocs - r0.mallocs
	ph.rt.gcCycles += r1.gcCycles - r0.gcCycles
	ph.rt.gcCPU += r1.gcCPU - r0.gcCPU
	ph.rt.totalCPU += r1.totalCPU - r0.totalCPU

	for _, o := range ops {
		ph.attempted++
		ph.lat = append(ph.lat, o.lat)
		if err := w.check(o); err != nil {
			ph.failed++
			// A known-fault operation may fail only by its named
			// fault; any other error on it is a real failure.
			if !o.knownFault || !errors.Is(err, exact.ErrLostTasks) {
				ph.correct = false
				if ph.reported < 5 {
					fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", o.seq, o.label, err)
					ph.reported++
				}
			}
		}
		if tr != nil {
			tr.op = o.seq
			w.replay(o, tr)
		}
	}
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// endToEndMetrics renders the untraced run's figures.
// heap_live_mb is measured after the samples are dropped.
func endToEndMetrics(ph *phase, setup time.Duration) map[string]float64 {
	lat := append([]time.Duration(nil), ph.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := float64(len(lat))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return map[string]float64{
		"setup_s":         setup.Seconds(),
		"ops_per_s":       ph.opsPerSec(),
		"latency_p50_ms":  ms(percentile(lat, 0.5)),
		"latency_p90_ms":  ms(percentile(lat, 0.9)),
		"cpu_ms_per_op":   ms(ph.cpu) / n,
		"alloc_kb_per_op": ph.rt.allocBytes / 1024 / n,
	}
}

// heapLive forces a collection and returns the live heap. The second
// collection empties the sync.Pool victim caches the first one filled.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
