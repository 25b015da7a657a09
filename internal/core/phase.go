package core

import (
	"time"

	"zombie/internal/obs"
)

// PhaseBreakdown accounts a run's wall-clock time to the inner loop's
// phases. The seven primary phases are disjoint — each loop instruction is
// timed into at most one — so Accounted() is a true lower bound on the
// run's wall time and Coverage() measures how much of the run the
// breakdown explains (the remainder is loop bookkeeping: plateau
// detection, curve recording, trace appends, and the timers themselves).
//
// CacheLookup is the exception: it is the extraction cache's own
// overhead (key hashing, shard locking, decode) and is a subset of
// Extract and Holdout, reported separately so a cache-heavy run can
// split "feature code ran" from "cache answered". It is excluded from
// Accounted().
type PhaseBreakdown struct {
	// Holdout is the holdout-set construction before the loop (extracting
	// every holdout example through the feature code).
	Holdout time.Duration `json:"holdout"`
	// Select is bandit work: arm selection plus reward feedback.
	Select time.Duration `json:"select"`
	// Read is corpus input fetch (disk-backed stores pay real IO here).
	Read time.Duration `json:"read"`
	// Extract is feature-code execution over streamed inputs, cache
	// traffic included.
	Extract time.Duration `json:"extract"`
	// Train is model updates plus reward computation (for delta rewards,
	// the bracketing subsample evaluations).
	Train time.Duration `json:"train"`
	// Eval is full-holdout quality evaluation at curve points.
	Eval time.Duration `json:"eval"`
	// RPC is step-dispatch overhead: the part of each step's wall time not
	// spent reading or extracting where the work ran. For the in-process
	// executor this is nanoseconds of call dispatch; for a distributed run
	// it is serialization, network and coordinator retry time.
	RPC time.Duration `json:"rpc"`
	// CacheLookup is extraction-cache overhead, a subset of Extract and
	// Holdout (see above). Zero when the run had no cache.
	CacheLookup time.Duration `json:"cache_lookup"`
}

// phaseID indexes a primary (disjoint) phase, in reporting order.
type phaseID int

const (
	phHoldout phaseID = iota
	phSelect
	phRead
	phExtract
	phTrain
	phEval
	phRPC
	numPhases
)

// phaseTable is where each primary phase is named: name is its key in
// reports and its zombie_phase_seconds label, attr the span attribute
// carrying its wall time. The loop accumulates into a phaseTimes and the
// reports, histograms and batch spans all walk this table.
var phaseTable = [numPhases]struct{ name, attr string }{
	phHoldout: {"holdout", "ns.holdout"},
	phSelect:  {"select", "ns.select"},
	phRead:    {"read", "ns.read"},
	phExtract: {"extract", "ns.extract"},
	phTrain:   {"train", "ns.train"},
	phEval:    {"eval", "ns.eval"},
	phRPC:     {"rpc", "ns.rpc"},
}

// phaseTimes is wall time per primary phase, indexed by phaseID.
type phaseTimes [numPhases]time.Duration

// breakdown is the exported form of t plus the cache's lookup overhead.
func (t phaseTimes) breakdown(cacheLookup time.Duration) PhaseBreakdown {
	return PhaseBreakdown{
		Holdout: t[phHoldout], Select: t[phSelect], Read: t[phRead], Extract: t[phExtract],
		Train: t[phTrain], Eval: t[phEval], RPC: t[phRPC], CacheLookup: cacheLookup,
	}
}

// Millis renders the primary phases as name → milliseconds, the wire form
// RunInfo and the benchmark use. CacheLookup is excluded (it overlaps
// Extract/Holdout).
func (p PhaseBreakdown) Millis() map[string]float64 {
	out := make(map[string]float64, numPhases)
	for ph, d := range (phaseTimes{
		phHoldout: p.Holdout, phSelect: p.Select, phRead: p.Read, phExtract: p.Extract,
		phTrain: p.Train, phEval: p.Eval, phRPC: p.RPC,
	}) {
		out[phaseTable[ph].name] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Accounted sums the disjoint phases — the portion of the run's wall
// time the breakdown explains.
func (p PhaseBreakdown) Accounted() time.Duration {
	return p.Holdout + p.Select + p.Read + p.Extract + p.Train + p.Eval + p.RPC
}

// Coverage returns Accounted as a fraction of the given wall time
// (0 when wall is 0). The telemetry contract keeps this above 0.9 for
// real workloads: if it drifts lower, the loop grew an untimed phase.
func (p PhaseBreakdown) Coverage(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(p.Accounted()) / float64(wall)
}

// phaseObs is the registry-backed side of phase timing: one histogram
// series per phase (family zombie_phase_seconds) plus the whole-run
// histogram, declared idempotently so every run of a process shares the
// same series. A nil *phaseObs means no registry: the engine times
// phases unconditionally (RunResult.Phases is always filled) and only
// the histogram fan-out is optional.
type phaseObs struct {
	phases [numPhases]*obs.Histogram
	run    *obs.Histogram
}

func newPhaseObs(r *obs.Registry) *phaseObs {
	if r == nil {
		return nil
	}
	const name, help = "zombie_phase_seconds", "Inner-loop wall time by phase."
	o := &phaseObs{
		run: r.Histogram("zombie_run_seconds", "Engine run wall time.", obs.RunBuckets),
	}
	for ph, row := range phaseTable {
		o.phases[ph] = r.HistogramL(name, help, "phase", row.name, obs.LatencyBuckets)
	}
	return o
}
