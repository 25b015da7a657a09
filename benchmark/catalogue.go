package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// metricDef declares one metric: the name the program prints, its unit and
// which direction is better. Bound is set on end-to-end metrics only: the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// exact marks a count made by the program that must repeat exactly
	// between two passes over the same seed (the A/A self-check).
	exact bool
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env) error
}

// runSeconds is the measured window BENCHMARK.json declares. The contract
// caps a whole acceptance run at 57 minutes for 114 passes, set-up
// included, so the window is 8 s and the issue's repetition counts are cut
// to what it fits; corpus size is never scaled.
const runSeconds = 8

// cycleOps is the length of each workload's cycle of run specs: the script
// every pass walks, in an order its seed shuffles. A window always runs the
// whole cycle and at least one op more, so every pass measures the same
// specs and replays at least one. The issue's counts were 240, 6, 12, 240
// and 8; these are what an 8 s window fits once round on two cores.
var cycleOps = map[string]int{
	"wiki_verdict":  40, // 5 engine seeds x 8 feature versions
	"songs_exhaust": 2,  // 2 engine seeds
	"wiki_session":  4,  // 4 engine seeds, each a cold and a warm pass of 4 versions
	"serve_verdict": 8,  // 8 feature versions, 4 to each of the 2 clients
	"dist_exhaust":  3,  // feature versions 1, 4 and 8
}

// nameRE is the alphabet every workload and metric name must stay within.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var workloads = []workloadDef{
	{Name: "wiki_verdict", run: runWikiVerdict,
		Why: "in-process early-stop runs, 8 feature versions x 5 engine seeds, K=1, no cache: the only workload where holdout build + extract and learner eval share the time"},
	{Name: "songs_exhaust", run: runSongsExhaust,
		Why: "dense 10-class GaussianNB to exhaustion (18k inputs, K=16, 2 seeds): eval is ~99% of the time, so extract, cache, wire and server changes must show nothing here"},
	{Name: "wiki_session", run: runWikiSession,
		Why: "recipe.Session, 3 parts x 4 versions, 4 seeds, cold then warm pass over a 256 MiB featcache: the only workload where featcache, recipe and bandit warm-start do work"},
	{Name: "serve_verdict", run: runServeVerdict,
		Why: "2 closed-loop HTTP clients submit early-stop runs, 8 versions, to one zombie-serve (journal on, 2 workers): the only workload touching server, runstore and the index cache; 2 runs on 2 cores"},
	{Name: "dist_exhaust", run: runDistExhaust,
		Why: "coordinator + 2 worker zombie-serve processes, batch 16, shards 2, to exhaustion (18k inputs), versions 1/4/8, 1 client: the only workload where dist and the JSON+base64 wire do work"},
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, and none is ever 0.
//
// The bounds come from measurement (README.md, "Steadiness"): over ten pass
// seeds every timing spreads by at most 3.4% of its median and peak RSS by
// at most 4.9%, and two sets of passes a quarter of an hour apart on the
// same binary drift by up to 8%. Each bound is at least three times the
// spread and clear of the drift. The two counts repeat exactly; their bound
// is what a change may cost in inputs or quality before it is a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "inputs_per_s", Unit: "inputs/s", Better: "higher", Bound: 0.15},
	{Name: "inputs_to_verdict_p50", Unit: "inputs", Better: "lower", Bound: 0.02, exact: true},
	{Name: "verdict_quality_p50", Unit: "quality", Better: "higher", Bound: 0.02, exact: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
}

// perLayer are the metrics of single layers; layers are this repository's
// packages. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "core.runs", Unit: "count", Better: "higher"},
	{Name: "core.inputs", Unit: "count", Better: "higher"},
	{Name: "core.evals", Unit: "count", Better: "lower"},
	{Name: "core.run_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s_tail", Unit: "s", Better: "lower"},
	{Name: "core.run_tail_pct", Unit: "%", Better: "higher"},
	{Name: "core.exec_s", Unit: "s", Better: "lower"},
	{Name: "core.decide_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_holdout_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_select_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_read_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_extract_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_train_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_eval_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_rpc_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_coverage", Unit: "ratio", Better: "higher"},
	{Name: "core.ladder_coverage", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_input", Unit: "count", Better: "lower"},

	{Name: "learner.eval_dense_ms", Unit: "ms", Better: "lower"},
	{Name: "learner.fit_dense_ns", Unit: "ns", Better: "lower"},
	{Name: "learner.eval_sparse_ms", Unit: "ms", Better: "lower"},
	{Name: "learner.fit_sparse_ns", Unit: "ns", Better: "lower"},
	{Name: "learner.eval_allocs", Unit: "count", Better: "lower"},
	{Name: "linalg.dot_dense_ns", Unit: "ns", Better: "lower"},
	{Name: "linalg.dot_sparse_ns", Unit: "ns", Better: "lower"},

	{Name: "featurepipe.extract_wiki_us", Unit: "us", Better: "lower"},
	{Name: "featurepipe.extract_composite_us", Unit: "us", Better: "lower"},
	{Name: "featurepipe.extract_song_us", Unit: "us", Better: "lower"},
	{Name: "featurepipe.holdout_build_ms", Unit: "ms", Better: "lower"},
	{Name: "featurepipe.extract_allocs", Unit: "count", Better: "lower"},
	{Name: "featurepipe.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "featurepipe.codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "featurepipe.codec_bytes", Unit: "bytes", Better: "lower"},

	{Name: "bandit.select_update_ns", Unit: "ns", Better: "lower"},
	{Name: "bandit.seed_us", Unit: "us", Better: "lower"},

	{Name: "index.build_text_s", Unit: "s", Better: "lower"},
	{Name: "index.build_numeric_s", Unit: "s", Better: "lower"},

	{Name: "corpus.generate_s", Unit: "s", Better: "lower"},
	{Name: "corpus.write_jsonl_s", Unit: "s", Better: "lower"},
	{Name: "corpus.read_jsonl_s", Unit: "s", Better: "lower"},
	{Name: "corpus.bytes", Unit: "bytes", Better: "lower"},

	{Name: "featcache.hits", Unit: "count", Better: "higher"},
	{Name: "featcache.misses", Unit: "count", Better: "lower"},
	{Name: "featcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "featcache.warm_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "featcache.evictions", Unit: "count", Better: "lower"},
	{Name: "featcache.bytes", Unit: "bytes", Better: "lower"},
	{Name: "featcache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "featcache.miss_ns", Unit: "ns", Better: "lower"},

	{Name: "recipe.compile_us", Unit: "us", Better: "lower"},
	{Name: "recipe.submit_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "recipe.seeded_pulls", Unit: "count", Better: "higher"},
	{Name: "recipe.session_cold_s_p50", Unit: "s", Better: "lower"},
	{Name: "recipe.session_warm_s_p50", Unit: "s", Better: "lower"},

	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.info_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.start_s", Unit: "s", Better: "lower"},
	{Name: "server.first_run_s", Unit: "s", Better: "lower"},
	{Name: "server.index_builds", Unit: "count", Better: "lower"},
	{Name: "server.index_cache_hits", Unit: "count", Better: "higher"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.http_requests", Unit: "count", Better: "lower"},

	{Name: "runstore.append_us", Unit: "us", Better: "lower"},
	{Name: "runstore.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "runstore.records_per_run", Unit: "count", Better: "lower"},
	{Name: "runstore.bytes_per_run", Unit: "bytes", Better: "lower"},
	{Name: "runstore.journal_errors", Unit: "count", Better: "lower"},

	{Name: "dist.rpcs", Unit: "count", Better: "lower"},
	{Name: "dist.rpc_s", Unit: "s", Better: "lower"},
	{Name: "dist.step_batch_rtt_us", Unit: "us", Better: "lower"},
	{Name: "dist.rpc_share", Unit: "ratio", Better: "lower"},
	{Name: "dist.rpc_errors", Unit: "count", Better: "lower"},
	{Name: "dist.encode_us", Unit: "us", Better: "lower"},
	{Name: "dist.decode_us", Unit: "us", Better: "lower"},
	{Name: "dist.bytes_per_input", Unit: "bytes", Better: "lower"},
	{Name: "dist.local_twin_s", Unit: "s", Better: "lower"},

	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func findMetric(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// benchmarkSpec is the exact shape of the repository's BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// layerDef is a per-layer entry: a metricDef without a bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// specJSON renders BENCHMARK.json from the catalogue, so the declaration
// and the program cannot drift: a test compares the file with this output.
func specJSON() ([]byte, error) {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render BENCHMARK.json: %w", err)
	}
	return append(b, '\n'), nil
}
