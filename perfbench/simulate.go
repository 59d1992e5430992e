package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"

	"repro/perfbench/exact"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
	"repro/pkg/steady/sim"
)

// simInput is one simulate operation: a cached platform and problem
// with the scenario to replay.
type simInput struct {
	in       *solveInput
	kind     string // "periodic", "online" or "adaptive"
	scenario sim.Scenario
	fault    bool // a known lost-task fault makes this operation fail
	body     []byte
	label    string
}

type simReport struct {
	Kind     string  `json:"kind"`
	Periods  int64   `json:"periods"`
	Done     int     `json:"done"`
	Makespan float64 `json:"makespan"`
	Resolves int     `json:"resolves"`
	LPPivots int64   `json:"lp_pivots"`
	exact.Periodic
}

type simResponse struct {
	Report   simReport `json:"report"`
	CacheHit bool      `json:"cache_hit"`
}

// simulate's round. Periodic replays run under the automatic horizon;
// dynamic runs carry load traces >= 1, slowdowns and failure windows;
// adaptive runs carry a horizon of twice the certified time for their
// tasks. Dynamic and adaptive platforms have no forwarder-only nodes
// (see README.md). The slot counts and task counts weigh the three
// kinds so each takes a comparable share of a run.
var (
	simPeriodic = []slot{
		{"masterslave", "random", 10, 0},
		{"masterslave", "random", 14, 0},
		{"masterslave", "tree", 12, 0},
		{"masterslave", "star", 8, 0},
		{"scatter", "random", 8, 2},
		{"scatter", "star", 8, 3},
		{"broadcast", "random", 6, 0},
		{"broadcast", "star", 6, 0},
		{"masterslave", "random", 12, 0},
		{"masterslave", "random", 16, 0},
		{"masterslave", "tree", 10, 0},
		{"masterslave", "star", 12, 0},
		{"scatter", "random", 10, 2},
		{"scatter", "star", 10, 3},
		{"broadcast", "tree", 6, 0},
		{"broadcast", "star", 8, 0},
	}
	simOnline = []slot{
		{"masterslave", "random-nofwd", 8, 0},
		{"masterslave", "random-nofwd", 10, 0},
		{"masterslave", "random-nofwd", 12, 0},
		{"masterslave", "tree", 10, 0},
		{"masterslave", "tree", 12, 0},
		{"masterslave", "star", 8, 0},
	}
	simAdaptive = []slot{
		{"masterslave", "random-nofwd", 8, 0},
		{"masterslave", "random-nofwd", 10, 0},
		{"masterslave", "tree", 10, 0},
		{"masterslave", "star", 8, 0},
	}
)

const (
	onlineTasks   = 250
	adaptiveTasks = 80
)

// minRatio is the asymptotic-optimality ratio the automatic static
// horizon is sized for.
var minRatio = big.NewRat(95, 100)

// lostTaskPlatform is the reproducer of the online simulator's
// lost-task fault: solved as masterslave, a run asked for 5 tasks ends
// with 4 done and an empty event queue. It does not depend on the
// seed, so the fault fails the same operations in every run.
func lostTaskPlatform() (graph, error) {
	p := platform.RandomConnected(rand.New(rand.NewSource(1)), 9, 9, 5, 5, 0.15)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return graph{}, err
	}
	ep, err := exact.ParsePlatform(buf.Bytes())
	if err != nil {
		return graph{}, err
	}
	return graph{kind: "lost-task", json: buf.Bytes(), p: ep}, nil
}

// simulateW replays a cached hot set under periodic, dynamic and
// adaptive scenarios.
type simulateW struct {
	srv *server.Server
	h   http.Handler
	ops []*simInput
	pv  *batch.Cache
	eng *sim.Engine
}

func newSimulate(seed int64, traced bool) (*simulateW, error) {
	rng := rand.New(rand.NewSource(seed))
	srv := server.New(server.Config{})
	w := &simulateW{srv: srv, h: srv.Handler()}
	fail := func(err error) (*simulateW, error) {
		srv.Close()
		return nil, err
	}
	kinds := []struct {
		kind     string
		slots    []slot
		scenario func(*solveInput) sim.Scenario
	}{
		{"periodic", simPeriodic, func(*solveInput) sim.Scenario { return sim.Scenario{} }},
		{"online", simOnline, func(in *solveInput) sim.Scenario { return dynamicScenario(rng, in, onlineTasks) }},
		{"adaptive", simAdaptive, func(in *solveInput) sim.Scenario { return adaptiveScenario(rng, in, adaptiveTasks) }},
	}
	for _, k := range kinds {
		for _, s := range k.slots {
			in, err := w.warm(s.draw(rng))
			if err != nil {
				return fail(err)
			}
			w.add(in, k.kind, k.scenario(in), false)
		}
	}
	// The lost-task reproducer, under both online kinds.
	g, err := lostTaskPlatform()
	if err != nil {
		return fail(err)
	}
	lost, err := w.warm(newSolveInput("masterslave", g, nil))
	if err != nil {
		return fail(err)
	}
	w.add(lost, "online", sim.Scenario{Tasks: onlineTasks}, true)
	w.add(lost, "adaptive", adaptiveRun(lost, adaptiveTasks), true)

	if traced {
		w.pv = batch.NewCache(0, 0)
		w.eng = sim.New(sim.Config{})
		for _, s := range w.ops {
			if err := solvePrivately(w.pv, s.in); err != nil {
				return fail(err)
			}
		}
	}
	return w, nil
}

// warm solves in through the server, filling its cache, and checks
// the answer.
func (w *simulateW) warm(in *solveInput) (*solveInput, error) {
	var resp solveResponse
	if err := decodeResponse(serve(w.h, "/v1/solve", in.body), &resp); err != nil {
		return nil, fmt.Errorf("set-up solve %s: %w", in.label(), err)
	}
	if err := verify(in, &resp.Solution); err != nil {
		return nil, fmt.Errorf("set-up solve %s: %w", in.label(), err)
	}
	in.want = resp.Throughput
	return in, nil
}

func (w *simulateW) add(in *solveInput, kind string, sc sim.Scenario, fault bool) {
	body, err := json.Marshal(server.SimulateRequest{Problem: in.problem, Root: in.root(), Targets: in.targets, Platform: in.g.json, Scenario: sc})
	if err != nil {
		panic(err)
	}
	w.ops = append(w.ops, &simInput{in: in, kind: kind, scenario: sc, fault: fault, body: body,
		label: fmt.Sprintf("%s %s", kind, in.label())})
}

// horizon is twice the certified time for tasks.
func horizon(in *solveInput, tasks int) float64 {
	t, _ := exact.Rat(in.want)
	f, _ := t.Float64()
	return 2 * float64(tasks) / f
}

// pick returns a random non-master node name of in's platform.
func pick(rng *rand.Rand, in *solveInput) string {
	return in.g.p.Names[1+rng.Intn(len(in.g.p.Names)-1)]
}

func dynamicScenario(rng *rand.Rand, in *solveInput, tasks int) sim.Scenario {
	h := horizon(in, tasks) / 2 // about the run's length
	e := in.g.p.Edges[rng.Intn(len(in.g.p.Edges))]
	edge := in.g.p.Names[e.From] + "->" + in.g.p.Names[e.To]
	// Three distinct workers: a node may not carry both a trace and a
	// slowdown.
	nodes := rng.Perm(len(in.g.p.Names) - 1)
	loaded, slow, down := in.g.p.Names[1+nodes[0]], in.g.p.Names[1+nodes[1]], in.g.p.Names[1+nodes[2]]
	return sim.Scenario{
		Tasks: tasks,
		NodeLoad: map[string]sim.TraceSpec{
			loaded: {Kind: "random-walk", Horizon: 2 * h, Step: h / 25, Lo: 1, Hi: 2},
		},
		EdgeLoad:  map[string]sim.TraceSpec{edge: {Kind: "steps", Times: []float64{0, h / 3}, Mult: []float64{1, 1.5}}},
		Slowdowns: []sim.Slowdown{{Node: slow, Factor: 2, From: h / 4, Until: h / 2}},
		Failures:  []sim.Failure{{Node: down, From: h / 5, Until: h/5 + h/10}},
		Seed:      rng.Int63(),
	}
}

// adaptiveScenario slows one node by at most 1.25, so the tasks fit
// well within the horizon of twice their certified time.
func adaptiveScenario(rng *rand.Rand, in *solveInput, tasks int) sim.Scenario {
	sc := adaptiveRun(in, tasks)
	sc.NodeLoad = map[string]sim.TraceSpec{pick(rng, in): {Kind: "steps", Times: []float64{0, sc.Horizon / 8}, Mult: []float64{1, 1.25}}}
	sc.Seed = rng.Int63()
	return sc
}

// adaptiveRun is an adaptive scenario with a horizon of twice the
// certified time for its tasks, re-planned every tenth of it: a
// fixed number of epochs per run, however fast the platform.
func adaptiveRun(in *solveInput, tasks int) sim.Scenario {
	h := horizon(in, tasks)
	return sim.Scenario{Tasks: tasks, Adaptive: true, Horizon: h, EpochLength: h / 10}
}

func (w *simulateW) round() int             { return len(w.ops) }
func (w *simulateW) server() *server.Server { return w.srv }
func (w *simulateW) close()                 { w.srv.Close() }

func (w *simulateW) prepare(seq int64) *op {
	s := w.ops[seq%int64(len(w.ops))]
	return &op{seq: seq, label: s.label, knownFault: s.fault, solve: s.in, sim: s,
		req: newRequest(http.MethodPost, "/v1/simulate", s.body), reqSize: len(s.body), rec: &recorder{}}
}

func (w *simulateW) do(o *op, tr *tracer) {
	o.handler = tr.begin("server.handler", o.span)
	w.h.ServeHTTP(o.rec, o.req)
	tr.end(o.handler)
}

func (w *simulateW) check(o *op) error {
	var resp simResponse
	if err := decodeResponse(o.rec, &resp); err != nil {
		return err
	}
	r := &resp.Report
	if !resp.CacheHit {
		return fmt.Errorf("simulated platform missed the cache")
	}
	if r.Certified != o.solve.want {
		return fmt.Errorf("certified %s, the solve returned %s", r.Certified, o.solve.want)
	}
	switch o.sim.kind {
	case "periodic":
		if r.Kind != "periodic" {
			return fmt.Errorf("kind %s, want periodic", r.Kind)
		}
		return exact.CheckPeriodic(&r.Periodic, minRatio, o.solve.problem == "masterslave")
	default:
		if r.Kind != "online" {
			return fmt.Errorf("kind %s, want online", r.Kind)
		}
		return exact.CheckOnline(r.Certified, o.sim.scenario.Tasks, r.Done, r.Makespan)
	}
}

func (w *simulateW) replay(o *op, tr *tracer) {
	res := replayRequestPath(w.pv, o, tr, true)
	if res == nil {
		return
	}
	// The engine rebuilds the replayable schedule inside each run, so
	// steady.replay is a stage of sim.run.
	run := tr.begin("sim.run", o.handler)
	_, _ = w.eng.Run(context.Background(), res, o.sim.scenario)
	tr.end(run)
	tr.stage("steady.replay", run, func() { _, _ = res.Replay() })
	var resp simResponse
	if decodeResponse(o.rec, &resp) == nil {
		tr.count("sim.periods", float64(resp.Report.Periods))
		tr.count("sim.tasks_done", float64(resp.Report.Done))
		tr.count("sim.adaptive_resolves", float64(resp.Report.Resolves))
		tr.count("sim.adaptive_pivots", float64(resp.Report.LPPivots))
	}
}
