package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed stage of one operation. Spans of one operation
// share Op; Parent is the ID of the span that caused it (-1 for an
// operation's root span). Replayed stages run after the handler on
// private state, so they are the handler span's children by cause,
// not by interval.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// count is one measured quantity, of one operation (Op >= 0) or of
// the whole traced run (Op = -1).
type count struct {
	Op    int64   `json:"op"`
	Name  string  `json:"count"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0     time.Time
	op     int64
	spans  []span
	counts []count
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// stage runs fn as one span under parent.
func (t *tracer) stage(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// count records a quantity of the current operation.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, count{Op: t.op, Name: name, Value: v})
}

// runCount records a quantity of the whole run.
func (t *tracer) runCount(name string, v float64) {
	if t == nil {
		return
	}
	t.counts = append(t.counts, count{Op: -1, Name: name, Value: v})
}

// write stores the trace as JSON lines: spans first, then counts.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range t.counts {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace loads a trace written by write.
func readTrace(r io.Reader) (*tracer, error) {
	t := &tracer{}
	dec := json.NewDecoder(r)
	for {
		var rec struct {
			span
			Count string  `json:"count"`
			Value float64 `json:"value"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			return t, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if rec.Count != "" {
			t.counts = append(t.counts, count{Op: rec.Op, Name: rec.Count, Value: rec.Value})
		} else {
			t.spans = append(t.spans, rec.span)
		}
	}
}

// spanMetrics maps per-layer metrics to the span whose mean duration
// they report, in microseconds.
var spanMetrics = map[string]string{
	"server.handler_us":       "server.handler",
	"platform.decode_us":      "platform.decode",
	"steady.fingerprint_us":   "steady.fingerprint",
	"steady.solve_us":         "steady.solve",
	"steady.replay_us":        "steady.replay",
	"batch.lookup_us":         "batch.lookup",
	"sim.run_us":              "sim.run",
	"control.telemetry_us":    "control.telemetry",
	"control.tick_us":         "control.tick",
	"control.publish_wait_us": "control.publish_wait",
	"forecast.update_us":      "forecast.update",
}

// countMetrics maps per-layer metrics to the per-operation count whose
// mean they report.
var countMetrics = map[string]string{
	"server.req_bytes":             "server.req_bytes",
	"server.resp_bytes":            "server.resp_bytes",
	"platform.decode_allocs":       "platform.decode_allocs",
	"steady.fingerprint_allocs":    "steady.fingerprint_allocs",
	"sim.periods_per_op":           "sim.periods",
	"sim.tasks_done_per_op":        "sim.tasks_done",
	"sim.adaptive_resolves_per_op": "sim.adaptive_resolves",
	"sim.adaptive_pivots_per_op":   "sim.adaptive_pivots",
	"control.pivots_per_epoch":     "control.pivots",
	"control.warm_share":           "control.warm",
	"control.cache_hit_share":      "control.cache_hit",
	"control.delta_entries":        "control.delta_entries",
}

// summarise computes every per-layer metric from a trace. A metric
// whose layer the workload does not exercise reads 0.
func summarise(t *tracer) map[string]float64 {
	durSum := map[string]float64{}
	durN := map[string]float64{}
	childSum := map[int]float64{}
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e3
		durSum[s.Name] += d
		durN[s.Name]++
		if s.Parent >= 0 {
			childSum[s.Parent] += d
		}
	}
	cntSum := map[string]float64{}
	cntN := map[string]float64{}
	run := map[string]float64{}
	for _, c := range t.counts {
		if c.Op < 0 {
			run[c.Name] += c.Value
			continue
		}
		cntSum[c.Name] += c.Value
		cntN[c.Name]++
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	out := map[string]float64{}
	for m, name := range spanMetrics {
		out[m] = ratio(durSum[name], durN[name])
	}
	for m, name := range countMetrics {
		out[m] = ratio(cntSum[name], cntN[name])
	}
	// Self time: the handler span minus the stages replayed under it.
	var self float64
	for _, s := range t.spans {
		if s.Name == "server.handler" {
			self += float64(s.End-s.Start)/1e3 - childSum[s.ID]
		}
	}
	out["server.self_us"] = ratio(self, durN["server.handler"])

	solves, ops := run["batch.solves"], run["ops"]
	out["batch.hit_ratio"] = ratio(run["batch.hits"], run["batch.hits"]+solves)
	out["batch.evictions_per_kop"] = 1000 * ratio(run["batch.evictions"], ops)
	out["lp.float_pivots_per_solve"] = ratio(run["lp.float_pivots"], solves)
	out["lp.exact_pivots_per_solve"] = ratio(run["lp.exact_pivots"], solves)
	out["lp.repair_pivots_per_solve"] = ratio(run["lp.repair_pivots"], solves)
	out["lp.exact_fallbacks_per_kop"] = 1000 * ratio(run["lp.exact_fallbacks"], ops)
	out["lp.warm_share"] = ratio(run["lp.warm_solves"], solves)

	rtOps := run["runtime.ops"]
	out["runtime.mallocs_per_op"] = ratio(run["runtime.mallocs"], rtOps)
	out["runtime.gc_cycles_per_kop"] = 1000 * ratio(run["runtime.gc_cycles"], rtOps)
	out["runtime.gc_cpu_share"] = ratio(run["runtime.gc_cpu_s"], run["runtime.cpu_s"])
	if u := run["trace.untraced_ops_per_s"]; u > 0 {
		out["trace.overhead_share"] = 1 - run["trace.traced_ops_per_s"]/u
	}
	return out
}
