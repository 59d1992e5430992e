package main

// metric is one reported quantity. Bound, for end-to-end metrics, is
// the share of the baseline median by which the metric may worsen
// before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadInfo{
	{"solve-hit", "POST /v1/solve over a hot set already in the LP cache: pure request path, decode, fingerprint, lookup, encode"},
	{"solve-miss", "POST /v1/solve on platforms that never repeat: float search plus exact certification, past the cache bound"},
	{"simulate", "POST /v1/simulate on cached results: periodic replays, dynamic online runs and adaptive 5.5 runs"},
	{"control-epoch", "telemetry batch, Manager.Tick and Watch delivery per op: a warm re-solve and delta publish every epoch"},
}

// endToEnd are the metrics a user of steadyd sees, measured with
// tracing off. The bounds of the timed metrics are wide because the
// 2-vCPU virtual machine the benchmark was tuned on shares its host's
// cores: identical runs minutes apart differed by 40% in wall and CPU
// time, while allocation and live heap repeat closely.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.2},
	{"heap_live_mb", "MB", "lower", 0.1},
}

// perLayer are the traced run's metrics, by module.
var perLayer = []metric{
	{"server.handler_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.req_bytes", "bytes", "lower", 0},
	{"server.resp_bytes", "bytes", "lower", 0},
	{"platform.decode_us", "us", "lower", 0},
	{"platform.decode_allocs", "count", "lower", 0},
	{"steady.fingerprint_us", "us", "lower", 0},
	{"steady.fingerprint_allocs", "count", "lower", 0},
	{"steady.solve_us", "us", "lower", 0},
	{"steady.replay_us", "us", "lower", 0},
	{"batch.lookup_us", "us", "lower", 0},
	{"batch.hit_ratio", "ratio", "higher", 0},
	{"batch.evictions_per_kop", "count/kop", "lower", 0},
	{"lp.float_pivots_per_solve", "count", "lower", 0},
	{"lp.exact_pivots_per_solve", "count", "lower", 0},
	{"lp.repair_pivots_per_solve", "count", "lower", 0},
	{"lp.exact_fallbacks_per_kop", "count/kop", "lower", 0},
	{"lp.warm_share", "ratio", "higher", 0},
	{"sim.run_us", "us", "lower", 0},
	{"sim.periods_per_op", "count", "lower", 0},
	{"sim.tasks_done_per_op", "count", "higher", 0},
	{"sim.adaptive_resolves_per_op", "count", "lower", 0},
	{"sim.adaptive_pivots_per_op", "count", "lower", 0},
	{"control.telemetry_us", "us", "lower", 0},
	{"control.tick_us", "us", "lower", 0},
	{"control.publish_wait_us", "us", "lower", 0},
	{"control.pivots_per_epoch", "count", "lower", 0},
	{"control.warm_share", "ratio", "higher", 0},
	{"control.cache_hit_share", "ratio", "lower", 0},
	{"control.delta_entries", "count", "lower", 0},
	{"forecast.update_us", "us", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_kop", "count/kop", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// runSeconds is how long one run measures.
const runSeconds = 20

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

func benchmarkJSON() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
