package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

// TestDynamicLeafForwarderLosesNoTasks pins the online simulator's
// lost-task fault: on this platform the shortest-path overlay has a
// forwarder-only leaf (N3, w = inf, no overlay children). It used to
// ask for work like any other node; the tasks it was sent were never
// computed, so a run ended one task short with an empty event queue,
// and an adaptive run without a horizon never ended.
func TestDynamicLeafForwarderLosesNoTasks(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(1)), 9, 9, 5, 5, 0.15)
	leaf := p.NodeByName("N3")
	if leaf < 0 || p.CanCompute(leaf) {
		t.Fatalf("platform changed: N3 should be a forwarder\n%v", p)
	}
	res := solveOn(t, steady.Spec{Problem: "masterslave"}, p)
	eng := New(Config{})
	for _, tasks := range []int{5, 2000} {
		rep, err := eng.Run(context.Background(), res, Scenario{Tasks: tasks})
		if err != nil {
			t.Fatalf("%d tasks: %v", tasks, err)
		}
		if rep.Done != tasks {
			t.Errorf("%d tasks: done = %d", tasks, rep.Done)
		}
	}

	// Without a horizon an adaptive run stops only when every task is
	// done; the deadline turns the old endless run into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rep, err := eng.Run(ctx, res, Scenario{Tasks: 80, Adaptive: true, EpochLength: 10})
	if err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	if rep.Done != 80 {
		t.Errorf("adaptive: done = %d, want 80", rep.Done)
	}
}
