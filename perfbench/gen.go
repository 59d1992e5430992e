package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/perfbench/exact"
)

// graph is a generated platform: its canonical JSON bytes, which are
// all the program ever sees, and the checker's exact copy of it.
type graph struct {
	kind string // "random", "tree" or "star"
	json []byte
	p    *exact.Platform
}

// builder accumulates one platform with integer weights and costs.
type builder struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Name string `json:"name"`
	W    string `json:"w"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	C    string `json:"c"`
}

func name(i int) string { return "P" + strconv.Itoa(i) }

// node adds node i with weight w (0 = forwarder-only, "inf").
func (b *builder) node(w int64) {
	s := "inf"
	if w > 0 {
		s = strconv.FormatInt(w, 10)
	}
	b.Nodes = append(b.Nodes, jsonNode{Name: name(len(b.Nodes)), W: s})
}

func (b *builder) edge(from, to int, c int64) {
	b.Edges = append(b.Edges, jsonEdge{From: name(from), To: name(to), C: strconv.FormatInt(c, 10)})
}

func (b *builder) both(u, v int, c int64) {
	b.edge(u, v, c)
	b.edge(v, u, c)
}

func (b *builder) has(from, to int) bool {
	f, t := name(from), name(to)
	for _, e := range b.Edges {
		if e.From == f && e.To == t {
			return true
		}
	}
	return false
}

func (b *builder) build(kind string) graph {
	raw, err := json.Marshal(b)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	p, err := exact.ParsePlatform(raw)
	if err != nil {
		panic(err) // the builder only writes valid platforms
	}
	return graph{kind: kind, json: raw, p: p}
}

// Weights are integers in [1, maxW] and costs in [1, maxC].
const maxW, maxC = 9, 9

func weight(rng *rand.Rand) int64 { return 1 + rng.Int63n(maxW) }
func cost(rng *rand.Rand) int64   { return 1 + rng.Int63n(maxC) }

// randomGraph is a connected platform on n nodes: a random spanning
// tree of bidirectional links plus n/2 extra bidirectional links.
// With forwarders set, n/8 nodes (never P0) are forwarder-only. The
// link and forwarder counts are fixed, so the LP's size depends on n
// alone, whatever the seed.
func randomGraph(rng *rand.Rand, n int, forwarders bool) graph {
	var b builder
	fwd := map[int]bool{}
	if forwarders {
		for _, i := range rng.Perm(n - 1)[:n/8] {
			fwd[i+1] = true
		}
	}
	for i := 0; i < n; i++ {
		w := weight(rng)
		if fwd[i] {
			w = 0
		}
		b.node(w)
	}
	for i := 1; i < n; i++ {
		b.both(rng.Intn(i), i, cost(rng))
	}
	for extra := 0; extra < n/2; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !b.has(u, v) {
			b.both(u, v, cost(rng))
			extra++
		}
	}
	return b.build("random")
}

// tree is a random tree on n nodes rooted at P0, fan-out at most 3,
// with links in both directions.
func tree(rng *rand.Rand, n int) graph {
	var b builder
	kids := make([]int, n)
	for i := 0; i < n; i++ {
		b.node(weight(rng))
		if i == 0 {
			continue
		}
		parent := rng.Intn(i)
		for kids[parent] >= 3 {
			parent = (parent + 1) % i
		}
		kids[parent]++
		b.both(parent, i, cost(rng))
	}
	return b.build("tree")
}

// star is a master P0 with n-1 workers, links from the master only:
// the bandwidth-centric setting with a closed-form optimum.
func star(rng *rand.Rand, n int) graph {
	var b builder
	for i := 0; i < n; i++ {
		b.node(weight(rng))
	}
	for i := 1; i < n; i++ {
		b.edge(0, i, cost(rng))
	}
	return b.build("star")
}

// makeGraph draws a platform of the given kind and size.
func makeGraph(rng *rand.Rand, kind string, n int) graph {
	switch kind {
	case "random":
		return randomGraph(rng, n, true)
	case "random-nofwd":
		return randomGraph(rng, n, false)
	case "tree":
		return tree(rng, n)
	case "star":
		return star(rng, n)
	}
	panic(fmt.Sprintf("unknown graph kind %q", kind))
}

// lastTargets names the k highest-numbered nodes of an n-node
// platform: fixed per input slot, so the solver names (which include
// the targets) form a small set however many platforms a run draws.
func lastTargets(n, k int) []string {
	var out []string
	for i := n - k; i < n; i++ {
		out = append(out, name(i))
	}
	return out
}
