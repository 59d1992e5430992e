package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"time"

	"repro/perfbench/exact"
	"repro/pkg/steady/control"
	"repro/pkg/steady/control/forecast"
	"repro/pkg/steady/server"
)

// epochLength is long enough that the manager's own loop never ticks
// during a run: only the benchmark's Tick calls publish.
const epochLength = time.Hour

// driftThreshold is large against the error of the manager's
// bounded-denominator model (below 1/4096 of a cost >= 0.7), so only
// the deployment an operation observed re-solves, and small against
// minMove.
const driftThreshold = 1e-3

// minMove is how far, relative to its value at the last epoch, some
// forecast of a batch must move: enough to clear driftThreshold
// after the model's rounding.
const minMove = 2e-3

// obsPerBatch is the least number of measurements in one telemetry
// batch.
const obsPerBatch = 3

// series is one observable cost of a deployment: a computing node's w
// or an edge's c. Its measurements are nominal*k/64 with k a random
// walk of steps of 1 or 2 reflected into [45, 90] (0.7 to 1.4 times
// nominal): the telemetry is stationary however many operations a run
// completes, and a forecast that follows the last measurement is a
// rational with a small denominator. Forecasts with large denominators
// make some epochs' exact certification an order of magnitude slower
// than others, so runs on different seeds would not agree.
type series struct {
	node, from, to string
	nominal        float64
	k              int
	mirror         *forecast.Adaptive // the manager's forecaster, replayed
	atEpoch        float64            // the forecast the current epoch used
}

// walk draws the series' next measurement.
func (s *series) walk(rng *rand.Rand) float64 {
	step := 1 + rng.Intn(2)
	if rng.Intn(2) == 0 {
		step = -step
	}
	if s.k+step > 90 || s.k+step < 45 {
		step = -step
	}
	s.k += step
	return s.nominal * float64(s.k) / 64
}

type tracked struct {
	id     string
	g      graph
	series []*series
	cursor int
	sub    *control.Subscription
	prev   *exact.Epoch
	fc     map[*series]*forecast.Adaptive // traced replays only
}

type ctlOp struct {
	dep       *tracked
	obs       []control.Observation
	sent      []*series
	now       time.Time
	published int
	epoch     *control.Epoch
	telemetry int // the control.telemetry span
}

// controlEpoch drives the control plane one epoch per operation.
type controlEpoch struct {
	srv   *server.Server
	h     http.Handler
	mgr   *control.Manager
	rng   *rand.Rand
	deps  []*tracked
	clock time.Time
}

// deploymentMix is control-epoch's deployments, all masterslave: stars
// (checked against the closed form on the current model), trees and
// random graphs.
var deploymentMix = []slot{
	{"masterslave", "star", 6, 0},
	{"masterslave", "star", 9, 0},
	{"masterslave", "star", 12, 0},
	{"masterslave", "tree", 8, 0},
	{"masterslave", "tree", 12, 0},
	{"masterslave", "random", 8, 0},
	{"masterslave", "random", 10, 0},
	{"masterslave", "random", 12, 0},
}

// deploymentCopies is how many deployments of each mix entry set-up
// creates.
const deploymentCopies = 6

func newControlEpoch(seed int64, traced bool) (*controlEpoch, error) {
	srv := server.New(server.Config{Control: control.Config{Epoch: epochLength, DriftThreshold: driftThreshold}})
	w := &controlEpoch{srv: srv, h: srv.Handler(), mgr: srv.Control(), rng: rand.New(rand.NewSource(seed))}
	for c := 0; c < deploymentCopies; c++ {
		for _, s := range deploymentMix {
			if err := w.create(s); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	// Past every deployment's creation, so the first tick may re-solve.
	w.clock = time.Now().Add(epochLength)
	return w, nil
}

// create posts one deployment, checks its first epoch and subscribes
// to its epochs.
func (w *controlEpoch) create(s slot) error {
	in := s.draw(w.rng)
	d := &tracked{id: fmt.Sprintf("d%02d-%s", len(w.deps), in.g.kind), g: in.g}
	body, err := json.Marshal(server.DeploymentRequest{ID: d.id, SolveRequest: server.SolveRequest{Problem: "masterslave", Root: in.root(), Platform: in.g.json}})
	if err != nil {
		return err
	}
	var snap struct {
		Epoch *exact.Epoch `json:"epoch"`
	}
	if err := decodeResponse(serve(w.h, "/v1/deployments", body), &snap); err != nil {
		return fmt.Errorf("create %s: %w", d.id, err)
	}
	if snap.Epoch == nil || snap.Epoch.Version != 1 {
		return fmt.Errorf("create %s: first epoch is not version 1", d.id)
	}
	if err := verify(in, &snap.Epoch.Solution); err != nil {
		return fmt.Errorf("create %s: %w", d.id, err)
	}
	if d.sub, err = w.mgr.Watch(d.id, 0); err != nil {
		return err
	}
	<-d.sub.Events() // the current epoch, delivered at once
	d.prev = snap.Epoch
	p := in.g.p
	for i, name := range p.Names {
		if p.W[i] != nil {
			f, _ := p.W[i].Float64()
			d.series = append(d.series, &series{node: name, nominal: f, k: 64, mirror: forecast.NewAdaptive(), atEpoch: f})
		}
	}
	for _, e := range p.Edges {
		f, _ := e.C.Float64()
		d.series = append(d.series, &series{from: p.Names[e.From], to: p.Names[e.To], nominal: f, k: 64, mirror: forecast.NewAdaptive(), atEpoch: f})
	}
	d.fc = map[*series]*forecast.Adaptive{}
	w.deps = append(w.deps, d)
	return nil
}

func (w *controlEpoch) round() int             { return len(w.deps) }
func (w *controlEpoch) server() *server.Server { return w.srv }

func (w *controlEpoch) close() {
	for _, d := range w.deps {
		d.sub.Close()
	}
	w.srv.Close()
}

// prepare builds a telemetry batch for the next deployment in turn. It
// feeds each measurement to a replica of the manager's forecaster for
// that series, and adds measurements until some forecast has moved by
// minMove, so every operation publishes exactly one epoch.
func (w *controlEpoch) prepare(seq int64) *op {
	d := w.deps[seq%int64(len(w.deps))]
	o := &ctlOp{dep: d}
	for moved := false; len(o.obs) < obsPerBatch || !moved; {
		s := d.series[d.cursor%len(d.series)]
		d.cursor++
		v := s.walk(w.rng)
		s.mirror.Update(v)
		if math.Abs(s.mirror.Predict()-s.atEpoch) >= minMove*s.atEpoch {
			moved = true
		}
		o.obs = append(o.obs, control.Observation{Node: s.node, From: s.from, To: s.to, Value: v})
		o.sent = append(o.sent, s)
	}
	for _, s := range o.sent {
		s.atEpoch = s.mirror.Predict()
	}
	body, err := json.Marshal(server.TelemetryRequest{Observations: o.obs})
	if err != nil {
		panic(err)
	}
	w.clock = w.clock.Add(epochLength)
	o.now = w.clock
	return &op{seq: seq, label: d.id, ctl: o, rec: &recorder{},
		req: newRequest(http.MethodPost, "/v1/deployments/"+d.id+"/telemetry", body), reqSize: len(body)}
}

// do posts the batch, runs one epoch, and takes the published epoch
// from the deployment's subscription. Tick publishes before it
// returns, so the epoch is already queued when it is read.
func (w *controlEpoch) do(o *op, tr *tracer) {
	c := o.ctl
	c.telemetry = tr.begin("control.telemetry", o.span)
	w.h.ServeHTTP(o.rec, o.req)
	tr.end(c.telemetry)
	t := tr.begin("control.tick", o.span)
	c.published = w.mgr.Tick(context.Background(), c.now)
	tr.end(t)
	t = tr.begin("control.publish_wait", o.span)
	select {
	case c.epoch = <-c.dep.sub.Events():
	default:
	}
	tr.end(t)
}

// check: the batch was accepted, exactly one epoch was published, it
// follows the previous one with an exact delta, and its schedule is a
// feasible master-slave optimum of the current model (on stars, the
// closed form over the model's current values).
func (w *controlEpoch) check(o *op) error {
	c := o.ctl
	var ack server.TelemetryResponse
	if err := decodeResponse(o.rec, &ack); err != nil {
		return err
	}
	if ack.Accepted != len(c.obs) {
		return fmt.Errorf("accepted %d of %d observations", ack.Accepted, len(c.obs))
	}
	if c.published != 1 || c.epoch == nil {
		return fmt.Errorf("tick published %d epochs, want 1 for %s", c.published, c.dep.id)
	}
	if c.epoch.Deployment != c.dep.id || c.epoch.Reason != "drift" {
		return fmt.Errorf("epoch for %s (%s), want a drift epoch for %s", c.epoch.Deployment, c.epoch.Reason, c.dep.id)
	}
	raw, err := json.Marshal(c.epoch)
	if err != nil {
		return err
	}
	var ep exact.Epoch
	if err := json.Unmarshal(raw, &ep); err != nil {
		return err
	}
	if err := exact.CheckEpochStep(c.dep.prev, &ep); err != nil {
		return err
	}
	c.dep.prev = &ep
	snap, err := w.mgr.Get(c.dep.id)
	if err != nil {
		return err
	}
	if snap.Epoch.Version != ep.Version {
		return fmt.Errorf("snapshot at version %d, the watch delivered %d", snap.Epoch.Version, ep.Version)
	}
	p, err := currentModel(snap)
	if err != nil {
		return err
	}
	r := p.Node(c.dep.g.p.Names[0])
	if err := exact.CheckMasterSlave(p, r, &ep.Solution); err != nil {
		return err
	}
	if exact.IsStar(p, r) {
		want, _ := exact.StarMasterSlave(p, r)
		return exact.Equal(ep.Throughput, want)
	}
	return nil
}

// currentModel is the platform the snapshot's epoch was solved on.
func currentModel(s *control.Snapshot) (*exact.Platform, error) {
	p := &exact.Platform{}
	for _, n := range s.Nodes {
		var w *big.Rat
		if n.Current != "inf" {
			v, err := exact.Rat(n.Current)
			if err != nil {
				return nil, fmt.Errorf("model node %s: %w", n.Name, err)
			}
			w = v
		}
		p.AddNode(n.Name, w)
	}
	for _, l := range s.Links {
		c, err := exact.Rat(l.Current)
		if err != nil {
			return nil, fmt.Errorf("model link %s->%s: %w", l.From, l.To, err)
		}
		p.AddEdge(p.Node(l.From), p.Node(l.To), c)
	}
	return p, nil
}

// replay re-runs the batch's forecaster updates on private
// forecasters and records what the epoch cost.
func (w *controlEpoch) replay(o *op, tr *tracer) {
	c := o.ctl
	tr.stage("forecast.update", c.telemetry, func() {
		for i, s := range c.sent {
			f := c.dep.fc[s]
			if f == nil {
				f = forecast.NewAdaptive()
				c.dep.fc[s] = f
			}
			f.Update(c.obs[i].Value)
		}
	})
	if ep := c.epoch; ep != nil {
		tr.count("control.pivots", float64(ep.Pivots))
		tr.count("control.warm", b2f(ep.WarmStarted))
		tr.count("control.cache_hit", b2f(ep.CacheHit))
		if ep.Delta != nil {
			tr.count("control.delta_entries", float64(len(ep.Delta.Nodes)+len(ep.Delta.Links)))
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
