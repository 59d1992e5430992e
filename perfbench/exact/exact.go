// Package exact checks steadyd's answers against exact results
// computed independently of the program: it parses the canonical
// platform JSON itself and does all arithmetic in math/big, sharing
// no code with the solver's rational type or its LP engine.
//
// The checks are the ones the steady-state model makes easy to state:
// one-port and flow-conservation feasibility of a master-slave
// solution, the bandwidth-centric closed form on stars, the
// 1/Σc closed forms of broadcast and scatter on stars, the bounds a
// simulated run must respect, and the bookkeeping of published
// control epochs.
package exact

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"
)

// Platform is a platform graph with exact weights. W[i] is nil for a
// forwarder-only node (w = inf).
type Platform struct {
	Names []string
	W     []*big.Rat
	Edges []Edge
	index map[string]int
}

// Edge is one directed link with its exact cost.
type Edge struct {
	From, To int
	C        *big.Rat
}

type jsonPlatform struct {
	Nodes []struct {
		Name string `json:"name"`
		W    string `json:"w"`
	} `json:"nodes"`
	Edges []struct {
		From string `json:"from"`
		To   string `json:"to"`
		C    string `json:"c"`
	} `json:"edges"`
}

// ParsePlatform reads a platform in the canonical JSON schema
// ({"nodes":[{"name","w"}],"edges":[{"from","to","c"}]}).
func ParsePlatform(raw []byte) (*Platform, error) {
	var jp jsonPlatform
	if err := json.Unmarshal(raw, &jp); err != nil {
		return nil, fmt.Errorf("exact: platform: %w", err)
	}
	p := &Platform{index: map[string]int{}}
	for _, n := range jp.Nodes {
		var w *big.Rat
		if n.W != "inf" {
			v, err := Rat(n.W)
			if err != nil {
				return nil, fmt.Errorf("exact: node %s: %w", n.Name, err)
			}
			w = v
		}
		p.AddNode(n.Name, w)
	}
	for _, e := range jp.Edges {
		c, err := Rat(e.C)
		if err != nil {
			return nil, fmt.Errorf("exact: edge %s->%s: %w", e.From, e.To, err)
		}
		from, ok1 := p.index[e.From]
		to, ok2 := p.index[e.To]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("exact: edge %s->%s names an unknown node", e.From, e.To)
		}
		p.Edges = append(p.Edges, Edge{From: from, To: to, C: c})
	}
	return p, nil
}

// AddNode appends a node (w nil = forwarder-only) and returns its index.
func (p *Platform) AddNode(name string, w *big.Rat) int {
	if p.index == nil {
		p.index = map[string]int{}
	}
	p.index[name] = len(p.Names)
	p.Names = append(p.Names, name)
	p.W = append(p.W, w)
	return len(p.Names) - 1
}

// AddEdge appends the directed edge from -> to with cost c.
func (p *Platform) AddEdge(from, to int, c *big.Rat) {
	p.Edges = append(p.Edges, Edge{From: from, To: to, C: c})
}

// Node returns the index of the named node, or -1.
func (p *Platform) Node(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	return -1
}

// findEdge returns the index of the edge from -> to, or -1.
func (p *Platform) findEdge(from, to int) int {
	for e, ed := range p.Edges {
		if ed.From == from && ed.To == to {
			return e
		}
	}
	return -1
}

// Rat parses an integer or "a/b" fraction into a big.Rat. Anything
// else (decimals, exponents, zero denominators) is an error: the
// program's wire format renders every exact quantity as one of the
// two forms.
func Rat(s string) (*big.Rat, error) {
	num, den, frac := strings.Cut(s, "/")
	n, ok := new(big.Int).SetString(num, 10)
	if !ok {
		return nil, fmt.Errorf("bad rational %q", s)
	}
	d := big.NewInt(1)
	if frac {
		if d, ok = new(big.Int).SetString(den, 10); !ok || d.Sign() <= 0 {
			return nil, fmt.Errorf("bad rational %q", s)
		}
	}
	return new(big.Rat).SetFrac(n, d), nil
}

// NodeRate is one node's share of a solution, as the wire renders it.
type NodeRate struct {
	Name  string `json:"name"`
	Alpha string `json:"alpha"`
	Rate  string `json:"rate,omitempty"`
}

// LinkRate is one link's busy fraction, as the wire renders it.
type LinkRate struct {
	From string `json:"from"`
	To   string `json:"to"`
	Busy string `json:"busy"`
}

// Solution is the part of a solve response or control epoch the
// checks read.
type Solution struct {
	Throughput string     `json:"throughput"`
	Nodes      []NodeRate `json:"nodes"`
	Links      []LinkRate `json:"links"`
}

var (
	zero = new(big.Rat)
	one  = big.NewRat(1, 1)
)

// linkBusy maps the solution's links onto the platform's edges. Every
// listed link must be a platform edge with busy in [0, 1]; edges the
// solution omits are idle.
func linkBusy(p *Platform, sol *Solution) ([]*big.Rat, error) {
	busy := make([]*big.Rat, len(p.Edges))
	for e := range busy {
		busy[e] = new(big.Rat)
	}
	for _, l := range sol.Links {
		e := p.findEdge(p.Node(l.From), p.Node(l.To))
		if e < 0 {
			return nil, fmt.Errorf("link %s->%s is not a platform edge", l.From, l.To)
		}
		b, err := Rat(l.Busy)
		if err != nil {
			return nil, fmt.Errorf("link %s->%s: %w", l.From, l.To, err)
		}
		if b.Cmp(zero) < 0 || b.Cmp(one) > 0 {
			return nil, fmt.Errorf("link %s->%s busy %s outside [0,1]", l.From, l.To, l.Busy)
		}
		busy[e] = b
	}
	return busy, nil
}

// CheckOnePort checks the send-and-receive one-port constraints: every
// link's busy fraction lies in [0, 1] and each node's outgoing and
// incoming busy fractions each sum to at most 1.
func CheckOnePort(p *Platform, sol *Solution) error {
	busy, err := linkBusy(p, sol)
	if err != nil {
		return err
	}
	return onePort(p, busy)
}

func onePort(p *Platform, busy []*big.Rat) error {
	send := make([]*big.Rat, len(p.Names))
	recv := make([]*big.Rat, len(p.Names))
	for i := range send {
		send[i], recv[i] = new(big.Rat), new(big.Rat)
	}
	for e, ed := range p.Edges {
		send[ed.From].Add(send[ed.From], busy[e])
		recv[ed.To].Add(recv[ed.To], busy[e])
	}
	for i, name := range p.Names {
		if send[i].Cmp(one) > 0 {
			return fmt.Errorf("node %s sends %s of the time", name, send[i].RatString())
		}
		if recv[i].Cmp(one) > 0 {
			return fmt.Errorf("node %s receives %s of the time", name, recv[i].RatString())
		}
	}
	return nil
}

// CheckMasterSlave checks a master-slave solution rooted at root: each
// alpha lies in [0, 1] (0 on forwarder-only nodes) and each listed
// rate equals alpha/w, the one-port constraints hold, every node but
// the master conserves flow (tasks in = tasks computed + tasks
// forwarded, with a link's flow = busy/c), and the throughput equals
// the sum of alpha/w.
func CheckMasterSlave(p *Platform, root int, sol *Solution) error {
	busy, err := linkBusy(p, sol)
	if err != nil {
		return err
	}
	if err := onePort(p, busy); err != nil {
		return err
	}
	rate := make([]*big.Rat, len(p.Names))
	for i := range rate {
		rate[i] = new(big.Rat)
	}
	total := new(big.Rat)
	for _, n := range sol.Nodes {
		i := p.Node(n.Name)
		if i < 0 {
			return fmt.Errorf("node %s is not in the platform", n.Name)
		}
		a, err := Rat(n.Alpha)
		if err != nil {
			return fmt.Errorf("node %s alpha: %w", n.Name, err)
		}
		if a.Cmp(zero) < 0 || a.Cmp(one) > 0 {
			return fmt.Errorf("node %s alpha %s outside [0,1]", n.Name, n.Alpha)
		}
		if p.W[i] == nil {
			if a.Sign() != 0 {
				return fmt.Errorf("forwarder-only node %s computes (alpha %s)", n.Name, n.Alpha)
			}
			continue
		}
		rate[i].Quo(a, p.W[i])
		want := "0"
		if n.Rate != "" {
			want = n.Rate
		}
		r, err := Rat(want)
		if err != nil {
			return fmt.Errorf("node %s rate: %w", n.Name, err)
		}
		if r.Cmp(rate[i]) != 0 {
			return fmt.Errorf("node %s rate %s, want alpha/w = %s", n.Name, want, rate[i].RatString())
		}
		total.Add(total, rate[i])
	}
	in := make([]*big.Rat, len(p.Names))
	out := make([]*big.Rat, len(p.Names))
	for i := range in {
		in[i], out[i] = new(big.Rat), new(big.Rat)
	}
	for e, ed := range p.Edges {
		flow := new(big.Rat).Quo(busy[e], ed.C)
		out[ed.From].Add(out[ed.From], flow)
		in[ed.To].Add(in[ed.To], flow)
	}
	for i, name := range p.Names {
		if i == root {
			continue
		}
		used := new(big.Rat).Add(rate[i], out[i])
		if in[i].Cmp(used) != 0 {
			return fmt.Errorf("node %s receives %s tasks per unit but computes and forwards %s",
				name, in[i].RatString(), used.RatString())
		}
	}
	got, err := Rat(sol.Throughput)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	if got.Cmp(total) != 0 {
		return fmt.Errorf("throughput %s, but the nodes compute %s", sol.Throughput, total.RatString())
	}
	return nil
}

// starWorkers returns, for a star rooted at root (every edge leaves the
// root, and each other node has exactly one such edge), the edge into
// each worker. ok is false when p is not such a star.
func starWorkers(p *Platform, root int) (edges []int, ok bool) {
	seen := map[int]bool{}
	for e, ed := range p.Edges {
		if ed.From != root || ed.To == root || seen[ed.To] {
			return nil, false
		}
		seen[ed.To] = true
		edges = append(edges, e)
	}
	return edges, len(seen) == len(p.Names)-1
}

// IsStar reports whether p is a single-level star rooted at root with
// edges only from the root to each worker.
func IsStar(p *Platform, root int) bool {
	_, ok := starWorkers(p, root)
	return ok
}

// StarMasterSlave returns the bandwidth-centric optimum of master-slave
// tasking on a star: the master computes at 1/w_root, and its send port
// feeds workers in increasing order of link cost, each up to
// min(1/w, 1/c) tasks per unit, until the port is busy all the time.
func StarMasterSlave(p *Platform, root int) (*big.Rat, error) {
	edges, ok := starWorkers(p, root)
	if !ok {
		return nil, fmt.Errorf("exact: platform is not a star rooted at %s", p.Names[root])
	}
	sort.SliceStable(edges, func(a, b int) bool { return p.Edges[edges[a]].C.Cmp(p.Edges[edges[b]].C) < 0 })
	total := new(big.Rat)
	if w := p.W[root]; w != nil {
		total.Inv(w)
	}
	port := new(big.Rat).Set(one)
	for _, e := range edges {
		ed := p.Edges[e]
		w := p.W[ed.To]
		if w == nil {
			continue
		}
		// cap = min(1/w, 1/c): compute speed, or the worker's
		// receive port.
		limit := w
		if ed.C.Cmp(w) > 0 {
			limit = ed.C
		}
		capacity := new(big.Rat).Inv(limit)
		need := new(big.Rat).Mul(capacity, ed.C)
		if need.Cmp(port) >= 0 {
			total.Add(total, new(big.Rat).Quo(port, ed.C))
			break
		}
		total.Add(total, capacity)
		port.Sub(port, need)
	}
	return total, nil
}

// StarBroadcast returns the broadcast optimum on a star: the root
// sends every message to every worker through one port, 1/Σc.
func StarBroadcast(p *Platform, root int) (*big.Rat, error) {
	edges, ok := starWorkers(p, root)
	if !ok {
		return nil, fmt.Errorf("exact: platform is not a star rooted at %s", p.Names[root])
	}
	return invSum(p, edges), nil
}

// StarScatter returns the scatter optimum on a star: the root sends
// one distinct message to each target per operation, 1/Σ c(target).
func StarScatter(p *Platform, root int, targets []string) (*big.Rat, error) {
	edges, ok := starWorkers(p, root)
	if !ok {
		return nil, fmt.Errorf("exact: platform is not a star rooted at %s", p.Names[root])
	}
	want := map[int]bool{}
	for _, t := range targets {
		want[p.Node(t)] = true
	}
	var sel []int
	for _, e := range edges {
		if want[p.Edges[e].To] {
			sel = append(sel, e)
		}
	}
	if len(sel) != len(targets) {
		return nil, fmt.Errorf("exact: scatter targets %v are not all workers", targets)
	}
	return invSum(p, sel), nil
}

func invSum(p *Platform, edges []int) *big.Rat {
	sum := new(big.Rat)
	for _, e := range edges {
		sum.Add(sum, p.Edges[e].C)
	}
	return sum.Inv(sum)
}

// Equal reports whether the wire rational s equals want.
func Equal(s string, want *big.Rat) error {
	got, err := Rat(s)
	if err != nil {
		return err
	}
	if got.Cmp(want) != 0 {
		return fmt.Errorf("got %s, want %s", s, want.RatString())
	}
	return nil
}

// Periodic is the part of a static replay report the checks read.
type Periodic struct {
	Certified          string  `json:"certified"`
	ScheduleThroughput string  `json:"schedule_throughput"`
	Achieved           string  `json:"achieved"`
	Ratio              string  `json:"ratio"`
	RatioValue         float64 `json:"ratio_value"`
}

// CheckPeriodic checks a static replay under the automatic horizon:
// achieved <= certified, ratio = achieved/certified >= minRatio, and,
// when scheduleExact is set (master-slave), the replayed schedule's own
// rate equals the certified throughput.
func CheckPeriodic(r *Periodic, minRatio *big.Rat, scheduleExact bool) error {
	cert, err := Rat(r.Certified)
	if err != nil {
		return fmt.Errorf("certified: %w", err)
	}
	ach, err := Rat(r.Achieved)
	if err != nil {
		return fmt.Errorf("achieved: %w", err)
	}
	ratio, err := Rat(r.Ratio)
	if err != nil {
		return fmt.Errorf("ratio: %w", err)
	}
	if ach.Cmp(cert) > 0 {
		return fmt.Errorf("achieved %s exceeds certified %s", r.Achieved, r.Certified)
	}
	if cert.Sign() > 0 {
		if want := new(big.Rat).Quo(ach, cert); want.Cmp(ratio) != 0 {
			return fmt.Errorf("ratio %s, want achieved/certified = %s", r.Ratio, want.RatString())
		}
	}
	if ratio.Cmp(minRatio) < 0 {
		return fmt.Errorf("ratio %s below %s", r.Ratio, minRatio.RatString())
	}
	if scheduleExact {
		if err := Equal(r.ScheduleThroughput, cert); err != nil {
			return fmt.Errorf("schedule throughput: %w", err)
		}
	}
	return nil
}

// ErrLostTasks is CheckOnline's error for a run that ended with fewer
// tasks done than asked and is otherwise within its bounds.
var ErrLostTasks = errors.New("run lost tasks")

// CheckOnline checks a dynamic or adaptive run: done/makespan does not
// beat the certified throughput, and every task asked is done. A run
// that passes the first check and fails the second returns an error
// wrapping ErrLostTasks.
func CheckOnline(certified string, asked, done int, makespan float64) error {
	if done <= 0 || done > asked {
		return fmt.Errorf("run finished %d of %d tasks", done, asked)
	}
	cert, err := Rat(certified)
	if err != nil {
		return fmt.Errorf("certified: %w", err)
	}
	span := new(big.Rat)
	if span.SetFloat64(makespan) == nil || span.Sign() <= 0 {
		return fmt.Errorf("bad makespan %v", makespan)
	}
	rate := new(big.Rat).Quo(big.NewRat(int64(done), 1), span)
	if rate.Cmp(cert) > 0 {
		return fmt.Errorf("done/makespan %s beats certified %s", rate.FloatString(6), certified)
	}
	if done < asked {
		return fmt.Errorf("%w: finished %d of %d", ErrLostTasks, done, asked)
	}
	return nil
}

// Delta is a control epoch's change list, as the wire renders it.
type Delta struct {
	FromVersion       uint64     `json:"from_version"`
	ThroughputChanged bool       `json:"throughput_changed"`
	Nodes             []NodeRate `json:"nodes"`
	Links             []LinkRate `json:"links"`
}

// Epoch is the part of a published control epoch the checks read.
type Epoch struct {
	Version uint64 `json:"version"`
	Solution
	Delta *Delta `json:"delta"`
}

// CheckEpochStep checks that next follows prev: its version is one
// more, and its delta lists exactly the node and link entries whose
// rates changed, with a correct from-version and throughput flag.
func CheckEpochStep(prev, next *Epoch) error {
	if next.Version != prev.Version+1 {
		return fmt.Errorf("version %d follows %d", next.Version, prev.Version)
	}
	d := next.Delta
	if d == nil {
		return fmt.Errorf("epoch %d has no delta", next.Version)
	}
	if d.FromVersion != prev.Version {
		return fmt.Errorf("delta from version %d, want %d", d.FromVersion, prev.Version)
	}
	if d.ThroughputChanged != (prev.Throughput != next.Throughput) {
		return fmt.Errorf("throughput_changed %v, but %s -> %s", d.ThroughputChanged, prev.Throughput, next.Throughput)
	}
	if len(prev.Nodes) != len(next.Nodes) || len(prev.Links) != len(next.Links) {
		return fmt.Errorf("epoch %d changed the topology", next.Version)
	}
	var nodes []NodeRate
	for i, n := range next.Nodes {
		if n != prev.Nodes[i] {
			nodes = append(nodes, n)
		}
	}
	var links []LinkRate
	for i, l := range next.Links {
		if l != prev.Links[i] {
			links = append(links, l)
		}
	}
	if !slices.Equal(nodes, d.Nodes) {
		return fmt.Errorf("delta nodes %v, want %v", d.Nodes, nodes)
	}
	if !slices.Equal(links, d.Links) {
		return fmt.Errorf("delta links %v, want %v", d.Links, links)
	}
	return nil
}
