package exact

import (
	"errors"
	"math/big"
	"strings"
	"testing"
)

// demoStar is the control plane's demo platform: master P1 (w=1) with
// workers P2 (w=2, c=1) and P3 (w=3, c=2).
const demoStar = `{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"},{"name":"P3","w":"3"}],
 "edges":[{"from":"P1","to":"P2","c":"1"},{"from":"P1","to":"P3","c":"2"}]}`

func mustPlatform(t *testing.T, raw string) *Platform {
	t.Helper()
	p, err := ParsePlatform([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// demoSolution is the bandwidth-centric optimum on demoStar, worked by
// hand: P1 computes 1 task per unit; P2 (cheapest link) gets all it
// can compute, 1/2, using 1/2 of P1's port; P3 gets the remaining 1/2
// of the port at c=2, i.e. 1/4 task per unit, alpha = 3/4. Total 7/4.
func demoSolution() *Solution {
	return &Solution{
		Throughput: "7/4",
		Nodes: []NodeRate{
			{Name: "P1", Alpha: "1", Rate: "1"},
			{Name: "P2", Alpha: "1", Rate: "1/2"},
			{Name: "P3", Alpha: "3/4", Rate: "1/4"},
		},
		Links: []LinkRate{
			{From: "P1", To: "P2", Busy: "1/2"},
			{From: "P1", To: "P3", Busy: "1/2"},
		},
	}
}

func TestRat(t *testing.T) {
	for _, ok := range []string{"3", "1/2", "12/8", "0"} {
		if _, err := Rat(ok); err != nil {
			t.Errorf("Rat(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "1.5", "1e3", "1/0", "1/-2", "a/b", "inf"} {
		if _, err := Rat(bad); err == nil {
			t.Errorf("Rat(%q) accepted", bad)
		}
	}
	if r, _ := Rat("12/8"); r.Cmp(big.NewRat(3, 2)) != 0 {
		t.Errorf("Rat(12/8) = %s", r.RatString())
	}
}

func TestStarClosedForms(t *testing.T) {
	p := mustPlatform(t, demoStar)
	root := p.Node("P1")
	if !IsStar(p, root) || IsStar(p, p.Node("P2")) {
		t.Fatal("IsStar misjudges the demo star")
	}
	cases := []struct {
		name string
		got  func() (*big.Rat, error)
		want *big.Rat
	}{
		{"masterslave", func() (*big.Rat, error) { return StarMasterSlave(p, root) }, big.NewRat(7, 4)},
		// Broadcast: every message crosses both links, 1/(1+2).
		{"broadcast", func() (*big.Rat, error) { return StarBroadcast(p, root) }, big.NewRat(1, 3)},
		// Scatter to P3 alone: one message per op over c=2.
		{"scatter", func() (*big.Rat, error) { return StarScatter(p, root, []string{"P3"}) }, big.NewRat(1, 2)},
	}
	for _, c := range cases {
		got, err := c.got()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Cmp(c.want) != 0 {
			t.Errorf("%s = %s, want %s", c.name, got.RatString(), c.want.RatString())
		}
	}
}

// TestStarMasterSlaveDrift is the control plane's drift step worked by
// hand: c(P1->P2) = 3/2 leaves 1/4 of P1's port for P3, 1/8 task per
// unit, so 1 + 1/2 + 1/8 = 13/8.
func TestStarMasterSlaveDrift(t *testing.T) {
	p := mustPlatform(t, strings.Replace(demoStar, `"to":"P2","c":"1"`, `"to":"P2","c":"3/2"`, 1))
	got, err := StarMasterSlave(p, p.Node("P1"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(13, 8)) != 0 {
		t.Errorf("got %s, want 13/8", got.RatString())
	}
}

// TestStarMasterSlaveReceivePort: a worker whose link is slower than
// its processor is bounded by its receive port, 1/c, not 1/w.
func TestStarMasterSlaveReceivePort(t *testing.T) {
	p := mustPlatform(t, `{"nodes":[{"name":"M","w":"inf"},{"name":"A","w":"1"},{"name":"B","w":"1"}],
	 "edges":[{"from":"M","to":"A","c":"2"},{"from":"M","to":"B","c":"4"}]}`)
	// A: cap min(1, 1/2) = 1/2, which fills M's port (1/2 * 2 = 1).
	got, err := StarMasterSlave(p, p.Node("M"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("got %s, want 1/2", got.RatString())
	}
}

func TestCheckMasterSlave(t *testing.T) {
	p := mustPlatform(t, demoStar)
	root := p.Node("P1")
	if err := CheckMasterSlave(p, root, demoSolution()); err != nil {
		t.Fatalf("hand-worked optimum rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Solution)
		want   string
	}{
		{"throughput", func(s *Solution) { s.Throughput = "2" }, "throughput"},
		{"port", func(s *Solution) { s.Links[1].Busy = "3/4" }, "sends"},
		{"conservation", func(s *Solution) { s.Nodes[2] = NodeRate{Name: "P3", Alpha: "1", Rate: "1/3"} }, "receives"},
		{"rate", func(s *Solution) { s.Nodes[1].Rate = "1" }, "rate"},
		{"alpha", func(s *Solution) { s.Nodes[0].Alpha = "3/2" }, "outside"},
		{"edge", func(s *Solution) { s.Links[0].From = "P3" }, "not a platform edge"},
	}
	for _, b := range bad {
		s := demoSolution()
		b.mutate(s)
		err := CheckMasterSlave(p, root, s)
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", b.name, err, b.want)
		}
	}
}

// TestCheckMasterSlaveForwarder: a relay with w = inf must pass on
// exactly what it receives.
func TestCheckMasterSlaveForwarder(t *testing.T) {
	p := mustPlatform(t, `{"nodes":[{"name":"M","w":"inf"},{"name":"R","w":"inf"},{"name":"W","w":"2"}],
	 "edges":[{"from":"M","to":"R","c":"1"},{"from":"R","to":"W","c":"1"}]}`)
	sol := &Solution{
		Throughput: "1/2",
		Nodes:      []NodeRate{{Name: "M", Alpha: "0"}, {Name: "R", Alpha: "0"}, {Name: "W", Alpha: "1", Rate: "1/2"}},
		Links:      []LinkRate{{From: "M", To: "R", Busy: "1/2"}, {From: "R", To: "W", Busy: "1/2"}},
	}
	if err := CheckMasterSlave(p, p.Node("M"), sol); err != nil {
		t.Fatal(err)
	}
	sol.Links[1].Busy = "1/4"
	if err := CheckMasterSlave(p, p.Node("M"), sol); err == nil {
		t.Fatal("relay that drops tasks accepted")
	}
}

func TestCheckPeriodic(t *testing.T) {
	// Figure 1's replay: certified 4/3, ratio 3991/4000.
	ok := &Periodic{Certified: "4/3", ScheduleThroughput: "4/3", Achieved: "3991/3000", Ratio: "3991/4000"}
	if err := CheckPeriodic(ok, big.NewRat(95, 100), true); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Periodic{
		"beats":    {Certified: "4/3", ScheduleThroughput: "4/3", Achieved: "3/2", Ratio: "9/8"},
		"ratio":    {Certified: "4/3", ScheduleThroughput: "4/3", Achieved: "1", Ratio: "3/4"},
		"mismatch": {Certified: "4/3", ScheduleThroughput: "4/3", Achieved: "3991/3000", Ratio: "1"},
		"schedule": {Certified: "4/3", ScheduleThroughput: "1", Achieved: "3991/3000", Ratio: "3991/4000"},
	} {
		if err := CheckPeriodic(r, big.NewRat(95, 100), true); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckOnline(t *testing.T) {
	if err := CheckOnline("4/3", 5, 5, 4); err != nil {
		t.Fatal(err)
	}
	if err := CheckOnline("4/3", 5, 4, 11); !errors.Is(err, ErrLostTasks) {
		t.Errorf("4 of 5 tasks in 11 units: got %v, want ErrLostTasks", err)
	}
	if err := CheckOnline("4/3", 5, 5, 3); err == nil || errors.Is(err, ErrLostTasks) {
		t.Errorf("5 tasks in 3 units beat 4/3: got %v", err)
	}
	// A lost task does not hide a run that beats the certified rate.
	if err := CheckOnline("4/3", 5, 4, 2); err == nil || errors.Is(err, ErrLostTasks) {
		t.Errorf("4 of 5 tasks in 2 units beat 4/3: got %v", err)
	}
	if err := CheckOnline("4/3", 5, 0, 11); err == nil || errors.Is(err, ErrLostTasks) {
		t.Errorf("no task done: got %v", err)
	}
}

func TestCheckEpochStep(t *testing.T) {
	prev := &Epoch{Version: 1, Solution: *demoSolution()}
	next := &Epoch{Version: 2, Solution: Solution{
		Throughput: "13/8",
		Nodes: []NodeRate{
			{Name: "P1", Alpha: "1", Rate: "1"},
			{Name: "P2", Alpha: "1", Rate: "1/2"},
			{Name: "P3", Alpha: "3/8", Rate: "1/8"},
		},
		Links: []LinkRate{
			{From: "P1", To: "P2", Busy: "3/4"},
			{From: "P1", To: "P3", Busy: "1/4"},
		},
	}}
	next.Delta = &Delta{FromVersion: 1, ThroughputChanged: true,
		Nodes: []NodeRate{next.Nodes[2]}, Links: next.Links}
	if err := CheckEpochStep(prev, next); err != nil {
		t.Fatal(err)
	}
	next.Delta.Nodes = append(next.Delta.Nodes, next.Nodes[1])
	if err := CheckEpochStep(prev, next); err == nil {
		t.Error("delta listing an unchanged node accepted")
	}
	next.Delta.Nodes = next.Delta.Nodes[:1]
	next.Version = 3
	if err := CheckEpochStep(prev, next); err == nil {
		t.Error("version skip accepted")
	}
}
