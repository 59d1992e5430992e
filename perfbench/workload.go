package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// workload drives one kind of operation against an in-process server.
// Operations come in rounds: every run attempts whole rounds of the
// same operation slots, so the share of known-fault failures is the
// same in every run.
type workload interface {
	// round is the number of operations in one round.
	round() int
	// prepare builds operation seq's request; it is not timed.
	prepare(seq int64) *op
	// do runs the operation against the program; it is timed.
	do(o *op, tr *tracer)
	// check verifies the operation's outputs against exact results
	// computed apart from the program; it is not timed.
	check(o *op) error
	// replay re-runs the operation's stages on private state under
	// the operation's spans (traced runs only; not timed).
	replay(o *op, tr *tracer)
	server() *server.Server
	close()
}

// op is one operation: its prepared request and what it produced.
type op struct {
	seq        int64
	label      string
	knownFault bool
	lat        time.Duration
	span       int // the operation's root span in a traced run

	req     *http.Request
	reqSize int
	rec     *recorder
	handler int // the server.handler span

	solve *solveInput // solve-hit, solve-miss, simulate
	sim   *simInput   // simulate
	ctl   *ctlOp      // control-epoch
}

// recorder is a minimal http.ResponseWriter that keeps the body for
// the checks. httptest.ResponseRecorder would also clone the header
// map on every response, adding the benchmark's own allocations to
// alloc_kb_per_op.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func newRequest(method, path string, body []byte) *http.Request {
	req, err := http.NewRequestWithContext(context.Background(), method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // method and path are constants
	}
	return req
}

// serve runs one request through h and returns the response.
func serve(h http.Handler, path string, body []byte) *recorder {
	rec := &recorder{}
	h.ServeHTTP(rec, newRequest(http.MethodPost, path, body))
	return rec
}

// decodeResponse checks the status and decodes the JSON body.
func decodeResponse(rec *recorder, dst any) error {
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.code, bytes.TrimSpace(rec.body.Bytes()))
	}
	if err := json.Unmarshal(rec.body.Bytes(), dst); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// solvePrivately solves in into c, a cache the server never sees:
// traced runs replay stages on private state, so a replay never
// changes what the next handler call finds.
func solvePrivately(c *batch.Cache, in *solveInput) error {
	p, err := platform.ReadJSON(bytes.NewReader(in.g.json))
	if err != nil {
		return err
	}
	solver, err := steady.New(in.spec())
	if err != nil {
		return err
	}
	key := batch.Key(steady.Fingerprint(p), solver.Name())
	_, err, _ = c.DoSolve(context.Background(), key, solver.Name(), func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
		return solver.Solve(ctx, p, opts...)
	})
	return err
}

// replayRequestPath replays the request-path stages of a solve or
// simulate operation under its handler span, on the private cache c:
// platform decode, fingerprint, and either a cache lookup (hit) or a
// solve with the options the server's cache would pass (miss). It
// returns the result the stages produced.
func replayRequestPath(c *batch.Cache, o *op, tr *tracer, hit bool) *steady.Result {
	in := o.solve
	tr.count("server.req_bytes", float64(o.reqSize))
	tr.count("server.resp_bytes", float64(o.rec.body.Len()))
	var p *platform.Platform
	var err error
	m0 := mallocs()
	tr.stage("platform.decode", o.handler, func() { p, err = platform.ReadJSON(bytes.NewReader(in.g.json)) })
	tr.count("platform.decode_allocs", mallocs()-m0)
	if err != nil {
		return nil
	}
	var fp string
	m0 = mallocs()
	tr.stage("steady.fingerprint", o.handler, func() { fp = steady.Fingerprint(p) })
	tr.count("steady.fingerprint_allocs", mallocs()-m0)
	solver, err := steady.New(in.spec())
	if err != nil {
		return nil
	}
	key := batch.Key(fp, solver.Name())
	ctx := context.Background()
	var res *steady.Result
	if hit {
		tr.stage("batch.lookup", o.handler, func() {
			res, _, _ = c.DoSolve(ctx, key, solver.Name(), func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
				return solver.Solve(ctx, p, opts...)
			})
		})
		return res
	}
	tr.stage("steady.solve", o.handler, func() {
		res, _ = solver.Solve(ctx, p, steady.WarmStart(c.WarmBasis(solver.Name())), steady.FloatFirst())
	})
	c.NoteResult(solver.Name(), res)
	return res
}
