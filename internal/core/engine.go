package core

import (
	"context"
	"strconv"
	"time"

	"zombie/internal/fault"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/otrace"
	"zombie/internal/parallel"
	"zombie/internal/rng"
	"zombie/internal/stats"
	"zombie/internal/trace"
)

// Run executes the inner loop over the task's input pool, drawing inputs
// from the source Config.Mode names: the index groups under the bandit
// policy (zombie), or a scan or oracle order that ignores groups.
func (e *Engine) Run(task *featurepipe.Task, groups *index.Groups) (*RunResult, error) {
	return e.RunContext(context.Background(), task, groups)
}

// RunContext is Run with cancellation: the loop checks ctx once per step
// and, when cancelled, returns the partial result accumulated so far with
// Stop = StopCancelled rather than an error.
func (e *Engine) RunContext(ctx context.Context, task *featurepipe.Task, groups *index.Groups) (*RunResult, error) {
	return e.RunWithExecutor(ctx, task, groups, NewLocalExecutor(task, e.cfg.Cache, e.cfg.Faults))
}

// RunWithExecutor is RunContext with step execution delegated to exec —
// the entry point the distributed coordinator uses. The RNG derivation,
// input source and loop are exactly RunContext's, so any executor
// producing the same step outcomes yields a byte-identical curve; task
// must be the unwrapped task (the executor owns cache and fault
// wrapping). The run holds a slot of the process-wide helper budget, so
// its holdout build and evaluation borrow only cores no run is using.
func (e *Engine) RunWithExecutor(ctx context.Context, task *featurepipe.Task, groups *index.Groups, exec Executor) (*RunResult, error) {
	defer parallel.Hold()()
	src, r, seeded, err := e.source(task, groups)
	if err != nil {
		return nil, err
	}
	res, err := e.loop(ctx, task, src, r, exec)
	if res != nil {
		res.WarmStartPulls = seeded
	}
	return res, err
}

// source builds the input source Config.Mode names and the run's RNG,
// which each mode derives under its own label; a zombie source is
// warm-started, and seeded counts the synthetic pulls that took.
func (e *Engine) source(task *featurepipe.Task, groups *index.Groups) (src inputSource, r *rng.RNG, seeded int64, err error) {
	id := task.Name + ":" + task.Feature.Name()
	switch e.cfg.Mode {
	case ModeScanRandom:
		r = rng.New(e.cfg.Seed).Split("scan:" + id)
		return newRandomScan(task.PoolIdx, r.Split("order")), r, 0, nil
	case ModeScanSequential:
		r = rng.New(e.cfg.Seed).Split("scan:" + id)
		return newSequentialScan(task.PoolIdx), r, 0, nil
	case ModeOracle:
		r = rng.New(e.cfg.Seed).Split("oracle:" + id)
		return newOracleScan(task, r.Split("order")), r, 0, nil
	}
	r = rng.New(e.cfg.Seed).Split("run:" + id)
	bs, err := newBanditSource(groups, task.PoolSet(), e.cfg.Policy, e.cfg.PolicyStats, r.Split("policy"))
	if err != nil {
		return nil, nil, 0, err
	}
	seeded, err = bs.warmStart(e.cfg.WarmStart, e.cfg.WarmStartDecay)
	return bs, r, seeded, err
}

// failureGraceSteps is how many steps a run processes before the failure
// budget is enforced, so a fraction computed over a handful of early
// steps cannot trip it.
const failureGraceSteps = 20

// loopRun is one execution of the shared inner loop: everything its
// phases — select → execute → account+train → settle reward →
// credit+emit → evaluate — read and write. Phase accounting is always
// on: the timers cost a few time.Now calls per batch against
// feature-extraction work that dominates by orders of magnitude; the
// registry fan-out (po) and span tracing are optional and observational —
// a nil tracer records nothing, so the decision stream cannot depend on
// tracing state. Cache threading and fault wrapping live inside the
// executor (see NewLocalExecutor), after the callers derived their RNG
// substreams and the oracle inspected the concrete feature type; the
// wrappers preserve Name/Dim/fingerprints, so a cached run is
// byte-identical to an uncached one and the loop's own task stays
// unwrapped.
type loopRun struct {
	cfg  *Config
	task *featurepipe.Task
	src  inputSource
	exec Executor
	res  *RunResult

	wallStart time.Time
	phases    phaseTimes
	po        *phaseObs
	tracer    *otrace.Tracer
	runRef    *otrace.SpanRef
	// The batch span rides the ctx through a cursor stamped once and
	// repointed per batch — context.WithValue per iteration would cost two
	// heap allocations. Safe because every consumer of a batch's position
	// (local executor goroutines, shard RPCs) joins before the next batch.
	cursor    *otrace.Cursor
	cursorCtx context.Context
	batchSpan otrace.SpanRef // refilled by StartInto per batch

	// model is the run's one incremental model: every produced example is
	// fitted into it once, and both the reward bracket and the curve
	// score it as it stands.
	model learner.Model
	// eval scores model against the holdout for the curve.
	eval *learner.Evaluator
	// reward scores model against the small fixed subsample the
	// delta-based rewards measure before and after each batch trains; it
	// is eval when the subsample is the whole holdout, nil under
	// RewardUsefulness.
	reward *learner.Evaluator

	steps   int
	simTime time.Duration
	// quarantined counts inputs quarantined by the loop itself
	// (holdout-phase quarantines predate the budget's denominator and are
	// excluded).
	quarantined int

	// notes is the per-input scratch of the current batch, allocated once
	// and reused: the inner loop must not pay an allocation per processed
	// input.
	notes []stepNote

	b batchState
}

// stepNote is what the loop works out about one input of the batch, over
// and above its StepOutcome.
type stepNote struct {
	reward float64       // usefulness bit until settle, then the reward
	errMsg string        // why the input failed, if it did
	simAt  time.Duration // cumulative simulated time after the input
}

// batchState is what one batch's phases hand each other; zeroed at the
// start of every batch.
type batchState struct {
	ctx  context.Context // carries the batch span to the executor
	prev phaseTimes      // phases at batch start, for the span's deltas

	idxs  []int
	arm   int
	first int // steps before this batch
	outs  []StepOutcome
	errs  []error
	wall  time.Duration // execute-stage wall time

	before      float64 // reward quality before the batch trained
	trained     int     // produced examples trained this batch
	advanced    bool    // any input reached the extract stage
	quarantined bool    // any input quarantined this batch
}

// loop is the shared inner loop: one iteration per batch of up to
// BatchSize inputs (K=1, the default, is the classic per-step bandit — a
// batch of one). Cancellation is checked at every batch boundary and
// again after the execute stage; a cancelled loop returns the partial
// result accumulated so far (never an error), skipping the final
// re-evaluation so cancellation latency is one batch, not one holdout
// pass.
func (e *Engine) loop(ctx context.Context, task *featurepipe.Task, src inputSource, r *rng.RNG, exec Executor) (*RunResult, error) {
	l := loopRun{
		cfg: &e.cfg, task: task, src: src, exec: exec,
		res:       &RunResult{Task: task.Name, Strategy: src.name()},
		wallStart: time.Now(),
		po:        newPhaseObs(e.cfg.Obs),
		tracer:    e.cfg.Tracer,
	}
	if err := l.start(ctx, r); err != nil {
		return nil, err
	}
	// The detector stays out of loopRun so that it, like l, lives on this
	// frame: a run allocates for its inputs, not for its bookkeeping.
	detector := stats.NewPlateauDetector(e.cfg.EarlyStop.Window, e.cfg.EarlyStop.SlopeThreshold, e.cfg.EarlyStop.Patience)
	for {
		if stop, done := l.batch(ctx, detector); done {
			return l.finish(stop), nil
		}
	}
}

// start builds the run's holdout, model and scratch and records the
// curve's zero point.
func (l *loopRun) start(ctx context.Context, r *rng.RNG) error {
	l.runRef = l.tracer.Start(0, "run",
		otrace.String("task", l.task.Name),
		otrace.String("strategy", l.src.name()))
	l.cursor = l.tracer.Cursor()
	l.cursorCtx = otrace.ContextWithCursor(ctx, l.cursor)

	hRef := l.tracer.Start(l.runRef.ID(), "holdout")
	tHoldout := time.Now()
	holdout, skips, err := l.exec.BuildHoldout(otrace.ContextWithSpan(ctx, l.tracer, hRef.ID()))
	l.spend(phHoldout, time.Since(tHoldout))
	hRef.End(otrace.Dur(phaseTable[phHoldout].attr, l.phases[phHoldout]))
	for _, s := range skips {
		l.res.Quarantined = append(l.res.Quarantined, Quarantine{
			InputID: s.InputID, Site: "holdout", Step: 0, Reason: s.Reason,
		})
	}
	if err != nil {
		l.runRef.End(otrace.String("error", err.Error()))
		return err
	}
	l.model = l.task.NewModel(l.task.Feature)
	l.eval = holdout.Evaluator(l.model)
	if l.cfg.Reward != RewardUsefulness {
		l.reward = l.eval
		if sub := subsampleHoldout(holdout, l.cfg.RewardSubsample, r.Split("reward-subsample")); sub != holdout {
			l.reward = sub.Evaluator(l.model)
		}
	}
	l.notes = make([]stepNote, 0, l.cfg.BatchSize)

	eRef := l.tracer.Start(l.runRef.ID(), "eval", otrace.Int("inputs", 0))
	l.record(CurvePoint{Inputs: 0, Quality: l.evaluate(), SimTime: 0})
	eRef.End(otrace.Dur(phaseTable[phEval].attr, l.phases[phEval]))
	return nil
}

// batch runs one loop iteration — the stop checks, then the six phases
// over one batch, detector judging each new curve point — and reports
// whether the loop is done and why.
func (l *loopRun) batch(ctx context.Context, detector *stats.PlateauDetector) (StopReason, bool) {
	switch {
	case ctx.Err() != nil:
		return StopCancelled, true
	case l.cfg.MaxInputs > 0 && l.steps >= l.cfg.MaxInputs:
		return StopBudget, true
	case l.cfg.MaxSimTime > 0 && l.simTime >= l.cfg.MaxSimTime:
		return StopBudget, true
	}
	if !l.selectBatch(ctx) {
		l.endBatch()
		return StopExhausted, true
	}
	l.execute()
	if ctx.Err() != nil {
		// A cancel that landed while the batch was in flight fails its rpcs
		// with the context's error; that is the caller stopping the run,
		// not a failing worker, so the batch is dropped unaccounted rather
		// than quarantined and charged to the arm.
		l.endBatch()
		return StopCancelled, true
	}
	l.account()
	l.settle()
	l.credit()
	stop, done := StopExhausted, false
	switch {
	case l.b.quarantined && l.steps >= failureGraceSteps &&
		float64(l.quarantined) > l.cfg.MaxFailureFrac*float64(l.steps):
		stop, done = StopFailed, true
	case l.b.advanced && l.steps/l.cfg.EvalEvery > l.b.first/l.cfg.EvalEvery:
		// Evaluate once per batch boundary: whenever this batch pushed the
		// processed-input count across a multiple of EvalEvery (at K=1,
		// exactly steps%EvalEvery == 0). A batch whose every input failed
		// before extraction records no point.
		q := l.evaluate()
		l.record(CurvePoint{Inputs: l.steps, Quality: q, SimTime: l.simTime})
		plateau := detector.Observe(q)
		if l.cfg.EarlyStop.Enabled && plateau && l.steps >= l.cfg.EarlyStop.MinInputs {
			stop, done = StopEarly, true
		}
	}
	l.endBatch()
	return stop, done
}

// selectBatch opens the batch span and pops up to BatchSize inputs from
// one arm; false means the pool is exhausted. The selected arm may hold
// fewer inputs than asked for; the short batch still trains and evaluates
// normally (see TestPartialBatch).
func (l *loopRun) selectBatch(ctx context.Context) bool {
	// Clamp the batch to the remaining input budget so a batch never
	// overshoots MaxInputs: a K=16 run with MaxInputs=100 processes
	// exactly 100 inputs, same as K=1 would.
	k := l.cfg.BatchSize
	if l.cfg.MaxInputs > 0 && l.steps+k > l.cfg.MaxInputs {
		k = l.cfg.MaxInputs - l.steps
	}
	l.b = batchState{ctx: ctx, prev: l.phases, arm: -1, first: l.steps}
	tSelect := time.Now()
	if l.tracer != nil {
		// One span per batch, bracketing the six phases; it rides the ctx
		// so a distributed executor parents its rpc spans (and the stitched
		// worker spans) under it. StartInto fills the loop-owned ref and
		// shares tSelect's clock reading — the batch span must cost no
		// allocations and no extra syscalls per iteration.
		l.tracer.StartInto(&l.batchSpan, tSelect, l.runRef.ID(), "batch",
			otrace.Int("step", int64(l.steps+1)))
		l.cursor.Move(l.batchSpan.ID())
		l.b.ctx = l.cursorCtx
	}
	idxs, arm, ok := l.src.nextBatch(k)
	l.spend(phSelect, time.Since(tSelect))
	if ok {
		l.b.idxs, l.b.arm = idxs, arm
	}
	return ok
}

// execute hands the batch to the executor: idxs[j] runs as step first+1+j.
func (l *loopRun) execute() {
	tStep := time.Now()
	l.b.outs, l.b.errs = l.exec.ExecuteBatch(l.b.ctx, l.b.first+1, l.b.idxs)
	l.b.wall = time.Since(tStep)
}

// spend accounts d to one phase: in the run's breakdown and, when a
// registry is attached, the phase's histogram.
func (l *loopRun) spend(ph phaseID, d time.Duration) {
	l.phases[ph] += d
	if l.po != nil {
		l.po.phases[ph].ObserveDuration(d)
	}
}

// quarantine records one input the loop gave up on.
func (l *loopRun) quarantine(inputID string, site fault.Site, reason string) {
	l.b.quarantined = true
	l.quarantined++
	l.res.Quarantined = append(l.res.Quarantined, Quarantine{
		InputID: inputID, Site: string(site), Step: l.steps, Reason: reason,
	})
}

// account walks the outcomes in input order, charging cost and phase
// time, quarantining failures and training the model on every produced
// example. An executor error (a worker-reported failure, or a dead worker
// past the transport's retries) or a read error charges no cost and
// quarantines by store index; a feature-code panic quarantines by input
// ID. It opens the reward bracket: an input's note holds its usefulness
// bit until settle folds the batch's quality delta in.
func (l *loopRun) account() {
	l.notes = l.notes[:0]
	var workNanos int64 // worker-side read+extract time, for the rpc split
	for j, idx := range l.b.idxs {
		l.steps++
		l.notes = append(l.notes, stepNote{simAt: l.simTime})
		note := &l.notes[j]
		if err := l.b.errs[j]; err != nil {
			note.errMsg = err.Error()
			l.quarantine("#"+strconv.Itoa(idx), fault.SiteDistStep, note.errMsg)
			continue
		}
		out := &l.b.outs[j]
		workNanos += out.ReadNanos + out.ExtractNanos
		l.spend(phRead, time.Duration(out.ReadNanos))
		if out.ReadErr != "" {
			note.errMsg = out.ReadErr
			l.quarantine("#"+strconv.Itoa(idx), fault.SiteCorpusRead, out.ReadErr)
			continue
		}
		l.b.advanced = true
		l.simTime += out.Cost
		note.simAt = l.simTime
		l.spend(phExtract, time.Duration(out.ExtractNanos))
		switch {
		case out.ExtractErr != "":
			l.res.Errors++
			note.errMsg = out.ExtractErr
			if out.Panicked {
				// A panic is categorically worse than a returned error:
				// the feature code lost control on this input. Quarantine
				// it so the run report names every input of this kind.
				l.quarantine(out.InputID, fault.SiteExtract, out.ExtractErr)
			}
		case out.Res.Produced:
			l.res.Produced++
			if out.Res.Useful {
				l.res.Useful++
				note.reward = 1
			}
			l.train(out.Res.Example)
		}
	}
	// Read and extract are timed where they ran (on a remote worker,
	// inside the worker process); the remainder of the batch wall is
	// transport overhead — nanoseconds of call dispatch for the local
	// executor, real serialization and network time for http. A batch
	// that never executed (dead worker) is all transport time.
	if rpc := l.b.wall - time.Duration(workNanos); rpc > 0 {
		l.spend(phRPC, rpc)
	}
}

// train fits the model on one produced example, measuring the reward
// holdout first if this is the batch's first — one before/after bracket
// per batch is the batch-train amortization, which at K=1 is the exact
// per-input bracket.
func (l *loopRun) train(ex learner.Example) {
	tTrain := time.Now()
	if l.reward != nil && l.b.trained == 0 {
		l.b.before = l.reward.Quality()
	}
	l.model.PartialFit(ex)
	l.b.trained++
	l.spend(phTrain, time.Since(tTrain))
}

// settle closes the reward bracket: one "after" measurement for the whole
// batch, then every produced input's reward from its usefulness bit and
// the shared before/after pair.
func (l *loopRun) settle() {
	if l.b.trained == 0 {
		return
	}
	var after float64
	if l.reward != nil {
		tTrain := time.Now()
		after = l.reward.Quality()
		l.spend(phTrain, time.Since(tTrain))
	}
	for j := range l.b.idxs {
		if l.b.errs[j] == nil && l.b.outs[j].Res.Produced {
			l.notes[j].reward = bracketReward(l.cfg.Reward, l.notes[j].reward, l.b.before, after, rewardScale)
		}
	}
}

// rewardScale multiplies a batch's quality delta before it is clamped to
// [0,1]: a holdout-subsample move of 0.05 earns the full reward.
const rewardScale = 20

// bracketReward is the reward one produced input earns: its usefulness
// bit, the clamped scaled quality delta of the batch it trained in, or
// the mean of the two.
func bracketReward(kind RewardKind, useful, before, after, scale float64) float64 {
	if kind == RewardUsefulness {
		return useful
	}
	delta := clamp01((after - before) * scale)
	if kind == RewardQualityDelta {
		return delta
	}
	return 0.5*useful + 0.5*delta // RewardHybrid
}

// credit feeds the arm once per input and, in input order, hands each
// step event to the Event hook — the engine's only step channel.
func (l *loopRun) credit() {
	for j, idx := range l.b.idxs {
		out, note := &l.b.outs[j], &l.notes[j]
		l.src.feedback(l.b.arm, note.reward)
		if l.cfg.Event != nil {
			l.cfg.Event(trace.Event{
				Step: l.b.first + 1 + j, InputIdx: idx, Arm: l.b.arm, Reward: note.reward,
				Produced: out.Res.Produced, Useful: out.Res.Useful, Err: note.errMsg,
				SimTime: note.simAt, CacheHit: out.CacheHit,
				Quarantined: l.b.errs[j] != nil || out.ReadErr != "" || out.Panicked,
			})
		}
	}
}

// evaluate scores the model, trained on every example produced so far,
// against the holdout.
func (l *loopRun) evaluate() float64 {
	tEval := time.Now()
	defer func() { l.spend(phEval, time.Since(tEval)) }()
	return l.eval.Quality()
}

// record appends a curve point and mirrors it to the Progress hook.
func (l *loopRun) record(p CurvePoint) {
	l.res.Curve = append(l.res.Curve, p)
	if l.cfg.Progress != nil {
		l.cfg.Progress(p)
	}
}

// endBatch closes the batch span with the arm and the per-phase wall
// deltas this batch contributed — the attrs the cost summary aggregates.
func (l *loopRun) endBatch() {
	if l.tracer == nil {
		return
	}
	// Stack-built: the batch span must cost no allocation of its own.
	attrs := [1 + numPhases]otrace.Attr{
		otrace.Int("arm", int64(l.b.arm)),
		otrace.Int("steps", int64(len(l.b.idxs))),
	}
	for ph := phSelect; ph < numPhases; ph++ { // holdout precedes every batch
		attrs[1+ph] = otrace.Dur(phaseTable[ph].attr, l.phases[ph]-l.b.prev[ph])
	}
	l.batchSpan.End(attrs[:]...)
}

// finish records the final curve point and folds the run's tallies into
// the result.
func (l *loopRun) finish(stop StopReason) *RunResult {
	res := l.res
	// Reuse the last in-loop evaluation when it already covers the final
	// step: re-evaluating the same example set would only repeat a full
	// holdout pass. A cancelled run also reuses it — the caller asked the
	// loop to stop, so it must not pay for one more holdout evaluation.
	var final float64
	if n := len(res.Curve); n > 0 && (res.Curve[n-1].Inputs == l.steps || stop == StopCancelled) {
		final = res.Curve[n-1].Quality
	} else {
		evalPrev := l.phases[phEval]
		fRef := l.tracer.Start(l.runRef.ID(), "eval", otrace.Int("inputs", int64(l.steps)))
		final = l.evaluate()
		fRef.End(otrace.Dur(phaseTable[phEval].attr, l.phases[phEval]-evalPrev))
		l.record(CurvePoint{Inputs: l.steps, Quality: final, SimTime: l.simTime})
	}
	res.InputsProcessed = l.steps
	res.FinalQuality = final
	res.SimTime = l.simTime
	res.WallTime = time.Since(l.wallStart)
	res.Stop = stop
	res.Arms = l.src.arms()
	st := l.exec.Stats()
	res.CacheHits = st.CacheHits
	res.CacheMisses = st.CacheMisses
	res.Phases = l.phases.breakdown(time.Duration(st.CacheLookupNanos))
	if l.po != nil {
		l.po.run.ObserveDuration(res.WallTime)
	}
	if l.tracer != nil {
		// One zero-length "part" span per recipe part carries the run's
		// per-part extraction cost (cached runs only; holdout extractions
		// included) — pure data carriers the cost summary groups by part.
		for _, pc := range st.Parts {
			l.tracer.Start(l.runRef.ID(), "part",
				otrace.String("part", pc.Part),
				otrace.Int("hits", pc.Hits),
				otrace.Int("misses", pc.Misses),
				otrace.Dur("ns.cache_lookup", time.Duration(pc.LookupNanos)),
				otrace.Dur("ns.extract", time.Duration(pc.ComputeNanos)),
			).End()
		}
		l.runRef.End(
			otrace.String("stop", stop.String()),
			otrace.Int("inputs", int64(l.steps)),
			otrace.Dur("ns.cache_lookup", time.Duration(st.CacheLookupNanos)),
		)
	}
	return res
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// subsampleHoldout returns a holdout over up to n examples sampled without
// replacement from h, preserving metric configuration. With n >= len it
// reuses the full example set, and so does n <= 0: an empty subsample
// would silently zero every quality-delta reward, turning the bandit into
// a uniform sampler with no visible error (Config.RewardSubsample
// documents the floor).
func subsampleHoldout(h *learner.Holdout, n int, r *rng.RNG) *learner.Holdout {
	if n <= 0 || n >= len(h.Examples) {
		return h
	}
	picks := r.SampleWithoutReplacement(len(h.Examples), n)
	sub := make([]learner.Example, n)
	for i, p := range picks {
		sub[i] = h.Examples[p]
	}
	return learner.NewHoldout(sub, h.Metric, h.Positive)
}
