package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"repro/perfbench/exact"
	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/server"
)

// solveInput is one platform and the problem posed on it.
type solveInput struct {
	problem string
	targets []string
	g       graph
	body    []byte // the POST /v1/solve body
	want    string // solve-hit and simulate: the throughput set-up's miss returned
}

// root is the master, source or root of every problem: the
// platform's first node.
func (in *solveInput) root() string { return in.g.p.Names[0] }

func (in *solveInput) spec() steady.Spec {
	return steady.Spec{Problem: in.problem, Root: in.root(), Targets: in.targets}
}

func newSolveInput(problem string, g graph, targets []string) *solveInput {
	in := &solveInput{problem: problem, targets: targets, g: g}
	body, err := json.Marshal(server.SolveRequest{Problem: problem, Root: in.root(), Targets: targets, Platform: g.json})
	if err != nil {
		panic(err)
	}
	in.body = body
	return in
}

func (in *solveInput) label() string {
	return fmt.Sprintf("%s/%s-%d", in.problem, in.g.kind, len(in.g.p.Names))
}

// slot is one position of a round: a problem on a kind and size of
// platform.
type slot struct {
	problem string
	kind    string
	n       int
	targets int // scatter only
}

func (s slot) draw(rng *rand.Rand) *solveInput {
	g := makeGraph(rng, s.kind, s.n)
	var t []string
	if s.targets > 0 {
		t = lastTargets(s.n, s.targets)
	}
	return newSolveInput(s.problem, g, t)
}

type solveResponse struct {
	exact.Solution
	Solver      string `json:"solver"`
	Fingerprint string `json:"fingerprint"`
	CacheHit    bool   `json:"cache_hit"`
}

// verify checks a solution against the platform: one-port feasibility
// for every problem, the full master-slave constraints, and on stars
// the closed-form optimum of each problem.
func verify(in *solveInput, sol *exact.Solution) error {
	p := in.g.p
	r := p.Node(in.root())
	star := exact.IsStar(p, r)
	var err error
	switch in.problem {
	case "masterslave":
		if err = exact.CheckMasterSlave(p, r, sol); err == nil && star {
			want, _ := exact.StarMasterSlave(p, r)
			err = exact.Equal(sol.Throughput, want)
		}
	case "scatter":
		if err = exact.CheckOnePort(p, sol); err == nil && star {
			want, _ := exact.StarScatter(p, r, in.targets)
			err = exact.Equal(sol.Throughput, want)
		}
	case "broadcast":
		if err = exact.CheckOnePort(p, sol); err == nil && star {
			want, _ := exact.StarBroadcast(p, r)
			err = exact.Equal(sol.Throughput, want)
		}
	default:
		err = fmt.Errorf("no check for problem %s", in.problem)
	}
	if err != nil {
		return err
	}
	if t, err := exact.Rat(sol.Throughput); err != nil || t.Sign() <= 0 {
		return fmt.Errorf("throughput %q is not positive", sol.Throughput)
	}
	return nil
}

// solveHit posts a fixed hot set that set-up already solved, so every
// operation is an LP-cache hit.
type solveHit struct {
	srv   *server.Server
	h     http.Handler
	hot   []*solveInput
	order []int
	seen  map[string]bool // solutions already verified in full
	pv    *batch.Cache
}

// hotSet is solve-hit's platforms: several problems at 8 to 32 nodes.
var hotSet = []slot{
	{"masterslave", "random", 8, 0},
	{"masterslave", "random", 16, 0},
	{"masterslave", "random", 24, 0},
	{"masterslave", "random", 32, 0},
	{"masterslave", "tree", 12, 0},
	{"masterslave", "tree", 28, 0},
	{"masterslave", "star", 9, 0},
	{"masterslave", "star", 17, 0},
	{"masterslave", "star", 32, 0},
	{"scatter", "random", 8, 2},
	{"scatter", "random", 12, 2},
	{"scatter", "random", 16, 3},
	{"scatter", "star", 12, 3},
	{"broadcast", "random", 8, 0},
	{"broadcast", "tree", 10, 0},
	{"broadcast", "star", 8, 0},
	{"broadcast", "star", 16, 0},
}

func newSolveHit(seed int64, traced bool) (*solveHit, error) {
	rng := rand.New(rand.NewSource(seed))
	srv := server.New(server.Config{})
	w := &solveHit{srv: srv, h: srv.Handler(), order: rng.Perm(len(hotSet)), seen: map[string]bool{}}
	for _, s := range hotSet {
		in := s.draw(rng)
		var resp solveResponse
		if err := decodeResponse(serve(w.h, "/v1/solve", in.body), &resp); err != nil {
			srv.Close()
			return nil, fmt.Errorf("set-up solve %s: %w", in.label(), err)
		}
		if err := verify(in, &resp.Solution); err != nil {
			srv.Close()
			return nil, fmt.Errorf("set-up solve %s: %w", in.label(), err)
		}
		in.want = resp.Throughput
		w.hot = append(w.hot, in)
	}
	if traced {
		w.pv = batch.NewCache(0, 0)
		for _, in := range w.hot {
			if err := solvePrivately(w.pv, in); err != nil {
				srv.Close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *solveHit) round() int             { return len(w.hot) }
func (w *solveHit) server() *server.Server { return w.srv }
func (w *solveHit) close()                 { w.srv.Close() }

func (w *solveHit) prepare(seq int64) *op {
	in := w.hot[w.order[seq%int64(len(w.order))]]
	return &op{seq: seq, label: in.label(), solve: in, req: newRequest(http.MethodPost, "/v1/solve", in.body), reqSize: len(in.body), rec: &recorder{}}
}

func (w *solveHit) do(o *op, tr *tracer) {
	o.handler = tr.begin("server.handler", o.span)
	w.h.ServeHTTP(o.rec, o.req)
	tr.end(o.handler)
}

// check: a hit must return the throughput the key's miss returned,
// and a solution that passes the exact checks. Identical solutions
// are verified in full once.
func (w *solveHit) check(o *op) error {
	var resp solveResponse
	if err := decodeResponse(o.rec, &resp); err != nil {
		return err
	}
	if !resp.CacheHit {
		return fmt.Errorf("hot platform missed the cache")
	}
	if resp.Throughput != o.solve.want {
		return fmt.Errorf("hit returned throughput %s, its miss returned %s", resp.Throughput, o.solve.want)
	}
	key := fmt.Sprintf("%s|%s|%v", resp.Fingerprint, resp.Solver, resp.Solution)
	if w.seen[key] {
		return nil
	}
	if err := verify(o.solve, &resp.Solution); err != nil {
		return err
	}
	w.seen[key] = true
	return nil
}

func (w *solveHit) replay(o *op, tr *tracer) { replayRequestPath(w.pv, o, tr, true) }

// solveMiss posts platforms that never repeat, so every operation
// runs the LP. Each is drawn between rounds, in slot order, from one
// seeded generator.
type solveMiss struct {
	srv *server.Server
	h   http.Handler
	rng *rand.Rand
	pv  *batch.Cache
}

// missRound is solve-miss's round: master-slave, scatter and broadcast
// on random graphs, trees and stars, at sizes where the LP is most of
// the operation.
var missRound = []slot{
	{"masterslave", "random", 12, 0},
	{"masterslave", "random", 16, 0},
	{"masterslave", "random", 20, 0},
	{"masterslave", "tree", 16, 0},
	{"masterslave", "star", 16, 0},
	{"scatter", "random", 8, 2},
	{"scatter", "random", 11, 2},
	{"scatter", "star", 10, 3},
	{"broadcast", "random", 5, 0},
	{"broadcast", "tree", 7, 0},
	{"broadcast", "star", 8, 0},
}

// newSolveMiss builds the server and solves one warm-up round through
// it, checked like any operation: the cache then holds a warm basis
// for each solver, as it does in service, and no timed operation pays
// a first solve's one-off costs.
func newSolveMiss(seed int64, traced bool) (*solveMiss, error) {
	srv := server.New(server.Config{})
	w := &solveMiss{srv: srv, h: srv.Handler(), rng: rand.New(rand.NewSource(seed))}
	for _, s := range missRound {
		in := s.draw(w.rng)
		var resp solveResponse
		err := decodeResponse(serve(w.h, "/v1/solve", in.body), &resp)
		if err == nil {
			err = verify(in, &resp.Solution)
		}
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("warm-up solve %s: %w", in.label(), err)
		}
	}
	if traced {
		w.pv = batch.NewCache(0, 0)
	}
	return w, nil
}

func (w *solveMiss) round() int             { return len(missRound) }
func (w *solveMiss) server() *server.Server { return w.srv }
func (w *solveMiss) close()                 { w.srv.Close() }

func (w *solveMiss) prepare(seq int64) *op {
	in := missRound[seq%int64(len(missRound))].draw(w.rng)
	return &op{seq: seq, label: in.label(), solve: in, req: newRequest(http.MethodPost, "/v1/solve", in.body), reqSize: len(in.body), rec: &recorder{}}
}

func (w *solveMiss) do(o *op, tr *tracer) {
	o.handler = tr.begin("server.handler", o.span)
	w.h.ServeHTTP(o.rec, o.req)
	tr.end(o.handler)
}

func (w *solveMiss) check(o *op) error {
	var resp solveResponse
	if err := decodeResponse(o.rec, &resp); err != nil {
		return err
	}
	if resp.CacheHit {
		return fmt.Errorf("a platform never posted before hit the cache")
	}
	return verify(o.solve, &resp.Solution)
}

func (w *solveMiss) replay(o *op, tr *tracer) { replayRequestPath(w.pv, o, tr, false) }
