package server

import (
	"zombie/internal/featcache"
	"zombie/internal/obs"
	"zombie/internal/otrace"
)

// Metrics is the server's counter set, declared against an obs.Registry
// so one set of declarations feeds both /metrics expositions (the flat
// JSON map served since PR 1 and the Prometheus text format). Counters
// are registry atomics so run workers and HTTP handlers update them
// without shared locks; gauges (queue depth, running count, cache
// residency) are registered as sampling funcs against their owners.
type Metrics struct {
	reg *obs.Registry

	// Run lifecycle counters. RunsTimedOut is the subset of RunsCancelled
	// that hit their deadline rather than a client's DELETE.
	RunsStarted   *obs.Counter
	RunsCompleted *obs.Counter
	RunsFailed    *obs.Counter
	RunsCancelled *obs.Counter
	RunsTimedOut  *obs.Counter
	// InputsProcessed sums RunResult.InputsProcessed over finished runs;
	// InputsQuarantined sums their quarantine-list lengths.
	InputsProcessed   *obs.Counter
	InputsQuarantined *obs.Counter
	// RunWallMillis sums wall-clock run time (start to terminal state) over
	// finished runs, in milliseconds. Exposed as both run_wall_ms and the
	// truncated run_seconds.
	RunWallMillis *obs.Counter
	// Index cache traffic: builds actually executed vs. requests served
	// from (or coalesced onto) an existing entry. IndexBuildRetries counts
	// attempts after a failed first build.
	IndexBuilds       *obs.Counter
	IndexCacheHits    *obs.Counter
	IndexBuildRetries *obs.Counter
	// Durability counters. RunsRecovered / VersionsRecovered count
	// interrupted runs and session versions re-queued from the state
	// directory at startup; JournalErrors counts absorbed journal write
	// failures.
	RunsRecovered     *obs.Counter
	VersionsRecovered *obs.Counter
	JournalErrors     *obs.Counter
	// Span-tracer counters: spans recorded into any run or process tracer,
	// and spans refused because a bounded buffer was full (the buffer keeps
	// the earliest spans — see otrace — so a non-zero drop count means the
	// tail of a long run is unattributed, not the start).
	SpansRecorded *obs.Counter
	SpansDropped  *obs.Counter
}

// NewMetrics declares the server's counters against reg (a fresh registry
// when nil). Declaration is idempotent, so two Metrics over one registry
// share series.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{
		reg:               reg,
		RunsStarted:       reg.Counter("runs_started", "Runs accepted and enqueued."),
		RunsCompleted:     reg.Counter("runs_completed", "Runs finished in state done."),
		RunsFailed:        reg.Counter("runs_failed", "Runs finished in state failed."),
		RunsCancelled:     reg.Counter("runs_cancelled", "Runs cancelled by a client or a deadline."),
		RunsTimedOut:      reg.Counter("runs_timed_out", "Cancelled runs that hit their deadline."),
		InputsProcessed:   reg.Counter("inputs_processed", "Inputs run through feature code, summed over finished runs."),
		InputsQuarantined: reg.Counter("inputs_quarantined", "Inputs quarantined after absorbed failures, summed over finished runs."),
		RunWallMillis:     reg.Counter("run_wall_ms", "Cumulative run wall-clock time in milliseconds."),
		IndexBuilds:       reg.Counter("index_builds", "Index builds actually executed."),
		IndexCacheHits:    reg.Counter("index_cache_hits", "Index requests served from (or coalesced onto) a cached build."),
		IndexBuildRetries: reg.Counter("index_build_retries", "Index build attempts after a failed first try."),
		RunsRecovered:     reg.Counter("runs_recovered", "Interrupted runs re-queued from the state directory at startup."),
		VersionsRecovered: reg.Counter("versions_recovered", "Interrupted session versions re-queued from the state directory at startup."),
		JournalErrors:     reg.Counter("journal_errors", "Run-journal write failures absorbed by the durable store."),
		SpansRecorded:     reg.Counter("spans_recorded", "Timing spans recorded across all span tracers."),
		SpansDropped:      reg.Counter("spans_dropped", "Timing spans refused by full span buffers."),
	}
	reg.CounterFunc("run_seconds", "Cumulative run wall-clock time in whole seconds.",
		func() int64 { return m.RunWallMillis.Load() / 1000 })
	// The server no longer writes state snapshots, but /metrics never
	// drops a key, so their time counters stay registered at 0.
	reg.Counter("snapshot_ms", "Retired: state snapshots are no longer written; always 0.")
	reg.Counter("snapshot_seconds", "Retired: state snapshots are no longer written; always 0.")
	return m
}

// Registry returns the registry the metrics are declared on.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveTracer wires a span tracer's per-span hook into the
// spans_recorded / spans_dropped counters. A nil tracer is a no-op.
func (m *Metrics) ObserveTracer(tr *otrace.Tracer) {
	if tr == nil {
		return
	}
	tr.OnSpan(func(ok bool) {
		if ok {
			m.SpansRecorded.Add(1)
		} else {
			m.SpansDropped.Add(1)
		}
	})
}

// registerFeatCacheMetrics exposes the extraction cache's own tallies
// through the registry under the feat_cache_* keys /metrics has always
// carried. The cache owns the numbers, so every series is a sampling
// func over its Stats snapshot.
func registerFeatCacheMetrics(reg *obs.Registry, fc *featcache.Cache) {
	counter := func(name, help string, f func(featcache.Stats) int64) {
		reg.CounterFunc(name, help, func() int64 { return f(fc.Stats()) })
	}
	gauge := func(name, help string, f func(featcache.Stats) int64) {
		reg.GaugeFunc(name, help, func() int64 { return f(fc.Stats()) })
	}
	counter("feat_cache_hits", "Extraction-cache memory hits.",
		func(s featcache.Stats) int64 { return s.Hits })
	counter("feat_cache_misses", "Extraction-cache misses (feature code ran).",
		func(s featcache.Stats) int64 { return s.Misses })
	counter("feat_cache_disk_hits", "Extraction-cache hits served from the disk store.",
		func(s featcache.Stats) int64 { return s.DiskHits })
	counter("feat_cache_evictions", "Extraction-cache in-memory evictions.",
		func(s featcache.Stats) int64 { return s.Evictions })
	counter("feat_cache_disk_errors", "Extraction-cache disk store errors.",
		func(s featcache.Stats) int64 { return s.DiskErrors })
	gauge("feat_cache_entries", "Extraction-cache resident in-memory entries.",
		func(s featcache.Stats) int64 { return s.Entries })
	gauge("feat_cache_bytes", "Extraction-cache resident in-memory bytes.",
		func(s featcache.Stats) int64 { return s.Bytes })
	gauge("feat_cache_disk_entries", "Extraction-cache disk store entries.",
		func(s featcache.Stats) int64 { return s.DiskEntries })
	gauge("feat_cache_disk_bytes", "Extraction-cache disk store bytes.",
		func(s featcache.Stats) int64 { return s.DiskBytes })
	gauge("feat_cache_disk_demoted", "1 when the disk store has been demoted to memory-only after errors.",
		func(s featcache.Stats) int64 {
			if s.DiskDemoted {
				return 1
			}
			return 0
		})
}
