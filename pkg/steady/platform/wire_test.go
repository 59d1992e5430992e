package platform_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// adjacencyOf lists every node's outgoing and incoming edge indices.
func adjacencyOf(p *platform.Platform) (out, in [][]int) {
	for v := 0; v < p.NumNodes(); v++ {
		out = append(out, append([]int(nil), p.OutEdges(v)...))
		in = append(in, append([]int(nil), p.InEdges(v)...))
	}
	return out, in
}

// TestBuildMatchesBuilder checks that a built platform has the same
// adjacency as one made with AddNode and AddEdge, and that AddEdge on
// a built platform leaves the other nodes' edge lists intact: Build
// carves them all from one backing array.
func TestBuildMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range generators {
		for i := 0; i < 10; i++ {
			want := g.build(rng)
			var buf bytes.Buffer
			if err := want.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := platform.ReadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			wantOut, wantIn := adjacencyOf(want)
			gotOut, gotIn := adjacencyOf(got)
			if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
				t.Fatalf("%s: built adjacency differs from the builder's", g.name)
			}
			// Grow the first node's lists on both and compare again.
			last := want.NumNodes() - 1
			want.AddBoth(0, last, rat.FromInt(7))
			got.AddBoth(0, last, rat.FromInt(7))
			wantOut, wantIn = adjacencyOf(want)
			gotOut, gotIn = adjacencyOf(got)
			if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
				t.Fatalf("%s: AddEdge after Build corrupted the adjacency", g.name)
			}
		}
	}
}

// TestReadJSONIgnoresUnknownKeys keeps the file reader lenient: the cmd
// tools load platform files that carry extra annotations.
func TestReadJSONIgnoresUnknownKeys(t *testing.T) {
	doc := `{"comment":"lab cluster","nodes":[{"name":"A","w":"1","rack":3},{"name":"B","w":"inf"}],` +
		`"edges":[{"from":"A","to":"B","c":"1/2","latency":"low"}]}`
	p, err := platform.ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 2 || p.NumEdges() != 1 || p.CanCompute(1) || p.Edge(0).C.String() != "1/2" {
		t.Fatalf("unexpected platform:\n%v", p)
	}
}
