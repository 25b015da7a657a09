package main

import (
	"sort"
	"time"
)

// runSample is one evaluation run as its caller saw it, in the form every
// workload — in-process or over HTTP — can fill.
type runSample struct {
	// spec identifies the run's specification within the workload's cycle;
	// every execution of one spec must produce the same curve.
	spec int
	// lane is the closed-loop caller that issued the run; end is when the
	// caller had its answer.
	lane int
	end  time.Time
	// wall is what the caller waited; engineWall is what the program
	// reports for the same run (RunResult.WallTime, RunInfo.wall_ms).
	wall, engineWall float64
	inputs           int
	quality          float64
	evals            int
	// produced counts the inputs that yielded a training example; version
	// is the feature version the run used. Both feed the rung ladder.
	produced, version int
	// phaseMs is the run's published phase breakdown, in milliseconds.
	phaseMs map[string]float64
	// traced marks an op run with the benchmark's spans on.
	traced bool
}

var phaseMetric = map[string]string{
	"holdout": "core.phase_holdout_s",
	"select":  "core.phase_select_s",
	"read":    "core.phase_read_s",
	"extract": "core.phase_extract_s",
	"train":   "core.phase_train_s",
	"eval":    "core.phase_eval_s",
	"rpc":     "core.phase_rpc_s",
}

// perSpec groups values by the spec that produced them and returns one
// value per spec, in spec order: the median of the spec's values.
func perSpec(samples []runSample, value func(runSample) float64) []float64 {
	by := map[int][]float64{}
	for _, s := range samples {
		by[s.spec] = append(by[s.spec], value(s))
	}
	specs := make([]int, 0, len(by))
	for spec := range by {
		specs = append(specs, spec)
	}
	sort.Ints(specs)
	out := make([]float64, len(specs))
	for i, spec := range specs {
		out[i] = median(by[spec])
	}
	return out
}

// reportRuns turns a window's samples into metrics. A workload walks a
// fixed cycle of specs, and the window fits the cycle a varying number of
// times; so every median is taken over the specs, each spec first reduced
// to the median of its own samples. That makes the numbers independent of
// which specs happened to run once more before the time was up. Inputs and
// quality are properties of a spec, not of a sample: replays reproduce
// them, which the curve-hash check enforces.
//
// Throughput is taken over whole cycles for the same reason: each caller's
// inputs over the whole cycles it completed, divided by the time it took
// to complete them, summed over the callers. cycle is how many samples one
// caller's cycle yields; start is when the window opened.
func (e *env) reportRuns(samples []runSample, start time.Time, cycle int) {
	var plain, traced []float64
	byLane := map[int][]runSample{}
	totalInputs, evals := 0, 0
	engineWall, wall := 0.0, 0.0
	phases := map[string]float64{}
	for _, r := range samples {
		if r.traced {
			traced = append(traced, r.wall)
		} else {
			plain = append(plain, r.wall)
		}
		totalInputs += r.inputs
		evals += r.evals
		engineWall += r.engineWall
		wall += r.wall
		for name, ms := range r.phaseMs {
			phases[name] += ms / 1e3
		}
		byLane[r.lane] = append(byLane[r.lane], r)
		e.res.WindowS = max(e.res.WindowS, r.end.Sub(start).Seconds())
		e.res.Samples = append(e.res.Samples, opSample{r.spec, r.version, r.wall, r.inputs, r.quality, r.traced})
	}
	n := len(samples)
	if e.cfg.trace {
		cycle *= 2 // every spec runs twice in a row
	}
	inputsPerS := 0.0
	for _, lane := range byLane {
		whole := len(lane) / cycle * cycle
		if whole == 0 {
			whole = len(lane)
		}
		in := 0
		for _, r := range lane[:whole] {
			in += r.inputs
		}
		inputsPerS += float64(in) / lane[whole-1].end.Sub(start).Seconds()
	}
	walls := perSpec(samples, func(r runSample) float64 { return r.wall })
	quality := perSpec(samples, func(r runSample) float64 { return r.quality })
	e.set("run_s_p50", median(walls), n)
	e.set("inputs_per_s", inputsPerS, totalInputs)
	e.set("inputs_to_verdict_p50", median(perSpec(samples, func(r runSample) float64 { return float64(r.inputs) })), len(walls))
	e.set("verdict_quality_p50", median(quality), len(quality))
	if len(quality) > 0 && median(quality) <= 0 {
		e.fail("median verdict quality is %v: the verdicts are worth nothing", median(quality))
	}

	e.set("core.runs", float64(n), n)
	e.set("core.inputs", float64(totalInputs), n)
	e.set("core.evals", float64(evals), n)
	e.set("core.run_wall_s", wall, n)
	all := append(append([]float64(nil), plain...), traced...)
	if p, ok := tailPercentile(n); ok && p > 50 {
		e.set("core.run_s_tail", percentile(all, float64(p)), n)
		e.set("core.run_tail_pct", float64(p), n)
	}
	accounted := 0.0
	for name, metric := range phaseMetric {
		e.set(metric, phases[name], n)
		accounted += phases[name]
	}
	if engineWall > 0 {
		e.set("core.phase_coverage", accounted/engineWall, n)
	}
	// Traced and untraced ops alternate over the same specs, so the ratio
	// of their total walls is the cost of the benchmark's own spans.
	if k := min(len(traced), len(plain)); k > 0 {
		e.set("bench.trace_overhead_frac", sum(traced[:k])/sum(plain[:k])-1, k)
	}
}

// window runs op in a closed loop — the next op starts only when the
// previous one returned — until the measured time is up and at least
// minOps ran. It returns when the window opened.
func (e *env) window(minOps int, op func(i int) error) (time.Time, error) {
	start := time.Now()
	budget := time.Duration(e.cfg.seconds * float64(time.Second))
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		if err := op(i); err != nil {
			return start, err
		}
	}
	return start, nil
}

// minOps is how many ops a window over a cycle of n specs must run at
// least. Untraced it is the whole cycle and one more, so every spec is
// measured and at least one is replayed; traced every spec runs twice in a
// row anyway, so one pair is enough.
func (e *env) minOps(n int) int {
	if e.cfg.trace {
		return 2
	}
	return n + 1
}

// specAt maps op i to a spec of the cycle. order is the pass seed's
// permutation of the cycle. Untraced the window walks it round and round;
// traced every spec runs twice in a row, first without and then with the
// benchmark's spans.
func (e *env) specAt(order []int, i int) (spec int, traced bool) {
	if e.cfg.trace {
		return order[(i/2)%len(order)], i%2 == 1
	}
	return order[i%len(order)], false
}
