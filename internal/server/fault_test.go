package server

import (
	"strings"
	"testing"
	"time"

	"zombie/internal/core"
)

// submitAndWait submits the spec and blocks until the run is terminal.
func submitAndWait(t *testing.T, m *Manager, spec RunSpec) *Run {
	t.Helper()
	run, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-run.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("run %s never finished (state %s)", run.ID, run.State())
	}
	return run
}

// TestRunTimeoutCancelsWithPartials: a run whose deadline expires ends
// cancelled with its partial curve and is marked timed_out, and the
// metrics count it separately from client cancels.
func TestRunTimeoutCancelsWithPartials(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 20000, 1, 4)
	spec := longSpec("imgs")
	spec.TimeoutMillis = 300
	run := submitAndWait(t, m, spec)

	if run.State() != StateCancelled {
		t.Fatalf("state = %s, want cancelled", run.State())
	}
	info := run.Info()
	if !info.TimedOut {
		t.Fatalf("run not marked timed out: %+v", info)
	}
	res := run.Result()
	if res == nil || res.Stop != core.StopCancelled {
		t.Fatalf("timed-out run lost its partial result: %+v", res)
	}
	if metrics.RunsTimedOut.Load() != 1 || metrics.RunsCancelled.Load() != 1 {
		t.Fatalf("timed_out=%d cancelled=%d, want 1/1",
			metrics.RunsTimedOut.Load(), metrics.RunsCancelled.Load())
	}
}

// TestClientCancelIsNotTimedOut: an explicit DELETE-path cancel must not
// be counted or labeled as a timeout.
func TestClientCancelIsNotTimedOut(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 20000, 1, 4)
	run, err := m.Submit(longSpec("imgs"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateRunning)
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateCancelled)
	if run.Info().TimedOut {
		t.Fatal("client cancel marked timed_out")
	}
	if metrics.RunsTimedOut.Load() != 0 {
		t.Fatalf("runs_timed_out = %d after client cancel", metrics.RunsTimedOut.Load())
	}
}

// TestFaultedRunQuarantineSurfaced: a run with its own fault spec
// completes, reports quarantine counts in its info, and feeds the
// inputs_quarantined metric.
func TestFaultedRunQuarantineSurfaced(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 600, 1, 4)
	run := submitAndWait(t, m, RunSpec{
		Corpus: "imgs", Task: "image", Mode: "scan-random",
		MaxInputs: 200,
		Faults:    "extract:panic=0.1", FaultSeed: 7,
	})
	if run.State() != StateDone {
		t.Fatalf("state = %s (%s)", run.State(), run.Info().Error)
	}
	info := run.Info()
	if info.Quarantined == 0 {
		t.Fatal("10% panic rate produced no quarantines in run info")
	}
	if metrics.InputsQuarantined.Load() != int64(info.Quarantined) {
		t.Fatalf("metric %d != info %d", metrics.InputsQuarantined.Load(), info.Quarantined)
	}
}

// TestBudgetExceededRunFailsWithResult: a run whose quarantines swamp its
// budget ends failed — but with the partial result attached, unlike an
// assembly error.
func TestBudgetExceededRunFailsWithResult(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 600, 1, 4)
	run := submitAndWait(t, m, RunSpec{
		Corpus: "imgs", Task: "image", Mode: "scan-random",
		MaxInputs: 200, MaxFailures: 0.25,
		Faults: "extract:panic=0.9", FaultSeed: 7,
	})
	if run.State() != StateFailed {
		t.Fatalf("state = %s, want failed", run.State())
	}
	info := run.Info()
	if !strings.Contains(info.Error, "failure budget exceeded") {
		t.Fatalf("error = %q", info.Error)
	}
	res := run.Result()
	if res == nil || res.Stop != core.StopFailed || len(res.Quarantined) == 0 {
		t.Fatalf("failed run lost its evidence: %+v", res)
	}
	if metrics.RunsFailed.Load() != 1 {
		t.Fatalf("runs_failed = %d", metrics.RunsFailed.Load())
	}
}

// TestSubmitRejectsBadFaultSpec: a malformed fault spec is a 400-class
// submission error, not a failed run.
func TestSubmitRejectsBadFaultSpec(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 100, 1, 4)
	cases := []RunSpec{
		{Corpus: "imgs", Task: "image", Faults: "extract:frob=1"},
		{Corpus: "imgs", Task: "image", Faults: "nonsense"},
		{Corpus: "imgs", Task: "image", TimeoutMillis: -5},
		{Corpus: "imgs", Task: "image", MaxFailures: 1.5},
		{Corpus: "imgs", Task: "image", MaxFailures: -0.25},
	}
	for _, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("spec %+v accepted", spec)
		}
	}
}

// TestIndexBuildRetriesThroughTransientFaults: an injected index.build
// fault that clears on a later attempt is ridden out by the retry loop —
// the run still completes, and the retry counter records the attempts.
func TestIndexBuildRetriesThroughTransientFaults(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 300, 1, 4)
	// Fault seed 2 deterministically fails attempt #0 and passes attempt
	// #1 for this corpus/strategy (the injected id carries the attempt
	// number, so per-attempt outcomes are independent draws).
	run := submitAndWait(t, m, RunSpec{
		Corpus: "imgs", Task: "image", Mode: "zombie",
		MaxInputs: 50,
		Faults:    "index.build:err=0.5", FaultSeed: 2,
	})
	if run.State() != StateDone {
		t.Fatalf("state = %s (%s)", run.State(), run.Info().Error)
	}
	if got := metrics.IndexBuildRetries.Load(); got != 1 {
		t.Fatalf("index_build_retries = %d, want 1", got)
	}
}

// TestIndexBuildExhaustsRetries: with every attempt failing, the run
// fails with an error naming the attempt count.
func TestIndexBuildExhaustsRetries(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 300, 1, 4)
	run := submitAndWait(t, m, RunSpec{
		Corpus: "imgs", Task: "image", Mode: "zombie",
		MaxInputs: 50,
		Faults:    "index.build:err=1", FaultSeed: 3,
	})
	if run.State() != StateFailed {
		t.Fatalf("state = %s, want failed", run.State())
	}
	if !strings.Contains(run.Info().Error, "after 3 attempts") {
		t.Fatalf("error = %q", run.Info().Error)
	}
	if got := metrics.IndexBuildRetries.Load(); got != 2 {
		t.Fatalf("index_build_retries = %d, want 2", got)
	}
}
