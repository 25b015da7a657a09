package core

import (
	"context"
	"testing"
)

func TestRunContextCancelledMidLoop(t *testing.T) {
	task, groups := imageTask(t, 2000, 210)
	e := mustEngine(t, Config{Seed: 1, EvalEvery: 10})

	// Cancel from inside the loop, deterministically: the Progress hook
	// fires on every appended curve point, so cancelling on the third
	// point guarantees the loop is mid-flight (past step 0) with work
	// remaining.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	points := 0
	cfg := e.Config()
	cfg.Progress = func(p CurvePoint) {
		points++
		if points == 3 {
			cancel()
		}
	}
	e = mustEngine(t, cfg)

	res, err := e.RunContext(ctx, task, groups)
	if err != nil {
		t.Fatalf("cancellation must not surface as an error: %v", err)
	}
	if res.Stop != StopCancelled {
		t.Fatalf("Stop = %s, want cancelled", res.Stop)
	}
	if res.Stop.String() != "cancelled" {
		t.Fatalf("StopCancelled label = %q", res.Stop.String())
	}
	// Partial but consistent: the loop saw the cancel within one step of
	// the third curve point (inputs 0, 10, 20), and the curve is the
	// prefix recorded so far with InputsProcessed past its last sample.
	if res.InputsProcessed < 20 || res.InputsProcessed > 30 {
		t.Fatalf("InputsProcessed = %d, want within one eval window of point 3", res.InputsProcessed)
	}
	if len(res.Curve) != 3 {
		t.Fatalf("curve has %d points, want the 3 recorded before cancel", len(res.Curve))
	}
	if last := res.Curve[len(res.Curve)-1]; res.FinalQuality != last.Quality {
		t.Fatalf("FinalQuality %v != last curve point %v", res.FinalQuality, last.Quality)
	}
	if res.InputsProcessed >= len(task.PoolIdx) {
		t.Fatal("cancelled run processed the whole pool")
	}
}

func TestRunScanContextPreCancelled(t *testing.T) {
	task, _ := imageTask(t, 500, 211)
	e := mustEngine(t, Config{Seed: 1, Mode: ModeScanRandom})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunContext(ctx, task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCancelled || res.InputsProcessed != 0 {
		t.Fatalf("pre-cancelled run: stop=%s inputs=%d, want cancelled/0", res.Stop, res.InputsProcessed)
	}
	if len(res.Curve) != 1 || res.Curve[0].Inputs != 0 {
		t.Fatalf("pre-cancelled run should still carry the step-0 floor, got %v", res.Curve)
	}
}

func TestProgressCallbackSeesEveryCurvePoint(t *testing.T) {
	task, groups := imageTask(t, 1500, 212)
	var seen []CurvePoint
	e := mustEngine(t, Config{Seed: 2, MaxInputs: 100, EvalEvery: 20,
		Progress: func(p CurvePoint) { seen = append(seen, p) }})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Curve) {
		t.Fatalf("Progress saw %d points, curve has %d", len(seen), len(res.Curve))
	}
	for i := range seen {
		if seen[i] != res.Curve[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, seen[i], res.Curve[i])
		}
	}
}
