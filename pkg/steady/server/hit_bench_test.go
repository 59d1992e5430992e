package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/pkg/steady/platform"
)

// solveHitAllocBudget caps the heap allocations of one /v1/solve cache
// hit on hitFixture's 32-node platform, everything the server does
// included: middleware, body read, one-pass decode, build, fingerprint,
// cache lookup, response rendering and encoding. With one decode pass,
// strconv rationals and the append-built fingerprint a hit makes about
// 216 allocations (Go 1.24); decoding the platform twice, parsing
// rationals with math/big and building the fingerprint with fmt took
// about 1065.
const solveHitAllocBudget = 400

// hitWriter is a minimal http.ResponseWriter that keeps only the
// status and the body length: httptest.ResponseRecorder would clone
// the header map on every response, adding its own allocations to the
// handler's.
type hitWriter struct {
	hdr  http.Header
	code int
	n    int
}

func (w *hitWriter) Header() http.Header { return w.hdr }

func (w *hitWriter) WriteHeader(code int) { w.code = code }

func (w *hitWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// reusableBody is a request body that can be rewound, so one request
// value serves every iteration without allocating.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// hitFixture returns a function that serves one /v1/solve cache hit
// for a 32-node random platform through the server's full handler and
// returns the response status. The first call, made here, fills the
// cache.
func hitFixture(tb testing.TB) func() int {
	tb.Helper()
	p := platform.RandomConnected(rand.New(rand.NewSource(1)), 32, 32, 5, 5, 0.15)
	var pretty, plat bytes.Buffer
	if err := p.WriteJSON(&pretty); err != nil {
		tb.Fatal(err)
	}
	if err := json.Compact(&plat, pretty.Bytes()); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Problem: "masterslave", Root: p.Name(0), Platform: plat.Bytes()})
	if err != nil {
		tb.Fatal(err)
	}
	s := New(Config{})
	tb.Cleanup(s.Close)
	h := s.Handler()
	rb := &reusableBody{}
	req, err := http.NewRequest(http.MethodPost, "/v1/solve", rb)
	if err != nil {
		tb.Fatal(err)
	}
	w := &hitWriter{hdr: http.Header{}}
	serve := func() int {
		rb.Reset(body)
		req.Body = rb
		req.ContentLength = int64(len(body))
		w.code, w.n = 0, 0
		h.ServeHTTP(w, req)
		return w.code
	}
	if code := serve(); code != http.StatusOK {
		tb.Fatalf("fill: status %d", code)
	}
	if hits := s.Cache().Stats().Hits; hits != 0 {
		tb.Fatalf("fill was a cache hit (%d hits)", hits)
	}
	return serve
}

// BenchmarkSolveHitHandler measures the /v1/solve cache-hit path alone:
// no loopback, no client, no response recorder.
func BenchmarkSolveHitHandler(b *testing.B) {
	serve := hitFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// TestSolveHitAllocBudget fails when a /v1/solve cache hit allocates
// more than solveHitAllocBudget times.
func TestSolveHitAllocBudget(t *testing.T) {
	serve := hitFixture(t)
	allocs := testing.AllocsPerRun(50, func() {
		if code := serve(); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	})
	t.Logf("%.0f allocs per cache hit (budget %d)", allocs, solveHitAllocBudget)
	if allocs > solveHitAllocBudget {
		t.Fatalf("%.0f allocs per cache hit, budget %d", allocs, solveHitAllocBudget)
	}
}
