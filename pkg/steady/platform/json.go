package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/pkg/steady/rat"
)

// ErrInvalid marks a platform that violates the model's structural
// invariants: non-positive node weights or edge costs, self-loops,
// edges naming unknown nodes, duplicate node names, or an empty
// graph. ReadJSON and Validate wrap it with detail — match with
// errors.Is. The builder methods (AddNode, AddEdge) still panic on
// the same violations: they guard programmer-constructed platforms,
// while ErrInvalid guards decoded input, which is data, not code.
var ErrInvalid = errors.New("platform: invalid")

// Wire is the canonical JSON form of a platform, the schema cmd/platgen
// emits, cmd/ssched reads and the HTTP service accepts:
// {"nodes": [{"name", "w"}], "edges": [{"from", "to", "c"}]} with
// weights and costs as exact-rational strings ("3", "1/2", "inf" for a
// forwarder-only node). Decode into a Wire, then call Build to get a
// validated Platform; a caller that decodes a larger document can
// embed a *Wire in it and build once the whole document is read.
type Wire struct {
	Nodes []WireNode `json:"nodes"`
	Edges []WireEdge `json:"edges"`
}

// WireNode is one node of a Wire: its name and its weight, a rational
// or "inf".
type WireNode struct {
	Name string `json:"name"`
	W    string `json:"w"`
}

// WireEdge is one directed edge of a Wire, naming its endpoints, with
// its rational cost.
type WireEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	C    string `json:"c"`
}

// WriteJSON serializes the platform.
func (p *Platform) WriteJSON(w io.Writer) error {
	wire := Wire{
		Nodes: make([]WireNode, 0, p.NumNodes()),
		Edges: make([]WireEdge, 0, p.NumEdges()),
	}
	for i := 0; i < p.NumNodes(); i++ {
		wire.Nodes = append(wire.Nodes, WireNode{Name: p.Name(i), W: p.Weight(i).String()})
	}
	for _, e := range p.Edges() {
		wire.Edges = append(wire.Edges, WireEdge{
			From: p.Name(e.From), To: p.Name(e.To), C: e.C.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wire)
}

// ReadJSON deserializes a platform written by WriteJSON: it decodes a
// Wire and builds it. Unknown keys in the document are ignored, so
// files carrying extra annotations still load in the cmd tools; the
// HTTP service decodes its request bodies strictly instead.
func ReadJSON(r io.Reader) (*Platform, error) {
	var w Wire
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("platform: decode: %w", err)
	}
	return w.Build()
}

// Build validates the decoded platform and constructs it. Decoded
// input is data, not code, so every model violation — not just the
// ones Validate can see after the fact — is checked before the graph
// is built and reported as an error wrapping ErrInvalid; Build never
// panics on malformed input (pkg/steady/server feeds request bodies
// straight into it).
func (w *Wire) Build() (*Platform, error) {
	p := &Platform{
		names: make([]string, 0, len(w.Nodes)),
		w:     make([]Weight, 0, len(w.Nodes)),
		edges: make([]Edge, 0, len(w.Edges)),
	}
	idx := make(map[string]int, len(w.Nodes))
	for _, n := range w.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("%w: node with empty name", ErrInvalid)
		}
		if _, dup := idx[n.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate node name %q", ErrInvalid, n.Name)
		}
		wt := WInf()
		if n.W != "inf" {
			v, err := rat.Parse(n.W)
			if err != nil {
				return nil, fmt.Errorf("%w: node %s: %v", ErrInvalid, n.Name, err)
			}
			if v.Sign() <= 0 {
				return nil, fmt.Errorf("%w: node %s: weight %s is not positive", ErrInvalid, n.Name, n.W)
			}
			wt = W(v)
		}
		idx[n.Name] = len(p.names)
		p.names = append(p.names, n.Name)
		p.w = append(p.w, wt)
	}
	for _, e := range w.Edges {
		from, okF := idx[e.From]
		to, okT := idx[e.To]
		if !okF || !okT {
			return nil, fmt.Errorf("%w: edge %s->%s references unknown node", ErrInvalid, e.From, e.To)
		}
		if from == to {
			return nil, fmt.Errorf("%w: edge %s->%s is a self-loop", ErrInvalid, e.From, e.To)
		}
		c, err := rat.Parse(e.C)
		if err != nil {
			return nil, fmt.Errorf("%w: edge %s->%s: %v", ErrInvalid, e.From, e.To, err)
		}
		if c.Sign() <= 0 {
			return nil, fmt.Errorf("%w: edge %s->%s: cost %s is not positive", ErrInvalid, e.From, e.To, e.C)
		}
		p.edges = append(p.edges, Edge{From: from, To: to, C: c})
	}
	if len(p.names) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrInvalid)
	}
	p.out, p.in = adjacency(len(p.names), p.edges)
	return p, nil
}

// adjacency returns the outgoing and incoming edge lists of every
// node, all carved from one backing array. Each list is capped at its
// length, so a later AddEdge appending to one copies it rather than
// overwriting its neighbour's.
func adjacency(n int, edges []Edge) (out, in [][]int) {
	out, in = make([][]int, n), make([][]int, n)
	deg := make([]int, 2*n)
	outDeg, inDeg := deg[:n], deg[n:]
	for _, e := range edges {
		outDeg[e.From]++
		inDeg[e.To]++
	}
	backing := make([]int, 2*len(edges))
	carve := func(lists [][]int, deg []int) {
		for v, d := range deg {
			if d > 0 {
				lists[v], backing = backing[:0:d], backing[d:]
			}
		}
	}
	carve(out, outDeg)
	carve(in, inDeg)
	for i, e := range edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
	}
	return out, in
}
