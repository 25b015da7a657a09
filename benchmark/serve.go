package main

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zombie/internal/server"
)

// serveState is what a service workload's set-up leaves behind: the
// corpus file, the server clients talk to, and any dist workers behind it.
type serveState struct {
	corpus    *corpusSetup
	front     *child
	workers   []*child
	stateDir  string
	startS    float64
	firstRunS float64
}

// stop stops every process of the state; it is safe on a state whose
// set-up failed half way.
func (st *serveState) stop() {
	if st == nil {
		return
	}
	if st.front != nil {
		st.front.stop()
	}
	for _, w := range st.workers {
		w.stop()
	}
}

// peakRSS is the largest peak resident set (VmHWM) over the state's
// processes, as of now for a live process and as of its stop otherwise.
func (st *serveState) peakRSS() float64 {
	rss := 0.0
	for _, c := range append([]*child{st.front}, st.workers...) {
		if c.stopped {
			rss = max(rss, c.rss)
		} else {
			rss = max(rss, peakRSS(c.cmd.Process.Pid))
		}
	}
	return rss
}

// rssTracker turns the peaks of a pass's repeated set-ups into one
// peak_rss_mb. The servers' high-water mark is set during the index build,
// and on roughly one build in ten a badly timed GC cycle lifts it by a
// tenth; that spike is not the program's footprint. So the set-up's peak is
// the lowest of the repeats, and the measured window counts whenever it
// raises the last server's mark above where its own set-up left it.
type rssTracker struct{ setups []float64 }

func (r *rssTracker) afterSetup(st *serveState) { r.setups = append(r.setups, st.peakRSS()) }

func (r *rssTracker) peak(final float64) float64 {
	lowest := r.setups[0]
	for _, s := range r.setups {
		lowest = min(lowest, s)
	}
	if final > r.setups[len(r.setups)-1] {
		return max(lowest, final)
	}
	return lowest
}

// specSeed is the seed every submitted run carries: the data seed, so the
// service derives the same split and index as the in-process workloads and
// its index cache hits after the first run. The service reads 0 as
// "default", so 0 is avoided.
func (e *env) specSeed() int64 {
	if e.cfg.dataSeed == 0 {
		return 1
	}
	return e.cfg.dataSeed
}

// httpTimings are the client-side timings of one served run.
type httpTimings struct {
	submitMs, infoMs, overheadMs, queueMs float64
}

// servedRun is one run submitted through the service, as one client saw it.
type servedRun struct {
	label   string
	sample  runSample
	t       httpTimings
	hash    string
	problem string // non-empty when the run failed a check
	// rejected marks a submission the service refused (queue full).
	rejected bool
}

// serveOnce drives one run through the service the way a client does:
// POST /runs, follow the curve stream until the server closes it, GET the
// run. The run's wall is submit-to-done. The authoritative curve is then
// fetched outside the timed interval (the live stream may skip frames for
// a slow reader) and hashed.
func serveOnce(tr *tracer, root spanID, c *client, spec server.RunSpec, label string, op, lane int) servedRun {
	out := servedRun{label: label}
	fail := func(format string, args ...any) servedRun {
		out.problem = label + ": " + fmt.Sprintf(format, args...)
		return out
	}
	sp := tr.start(root, op, lane, "op")
	defer tr.end(sp)

	start := time.Now()
	s := tr.start(sp, op, lane, "http.submit")
	var submitted server.RunInfo
	err := c.do("POST", "/runs", spec, &submitted, http.StatusAccepted)
	tr.end(s)
	out.t.submitMs = time.Since(start).Seconds() * 1e3
	if err != nil {
		var se *statusError
		out.rejected = errors.As(err, &se) && se.code == http.StatusServiceUnavailable
		return fail("%v", err)
	}
	s = tr.start(sp, op, lane, "http.follow")
	final, err := c.follow(submitted.ID)
	tr.end(s)
	wall := time.Since(start)
	if err != nil {
		return fail("%v", err)
	}
	t := time.Now()
	s = tr.start(sp, op, lane, "http.info")
	var info server.RunInfo
	err = c.do("GET", "/runs/"+submitted.ID, nil, &info, http.StatusOK)
	tr.end(s)
	out.t.infoMs = time.Since(t).Seconds() * 1e3
	if err != nil {
		return fail("%v", err)
	}

	var curve struct {
		Curve []curvePoint `json:"curve"`
	}
	if err := c.do("GET", "/runs/"+submitted.ID+"/curve", nil, &curve, http.StatusOK); err != nil {
		return fail("%v", err)
	}
	switch {
	case info.State != server.StateDone || final.State != server.StateDone:
		return fail("ended %s: %s", info.State, info.Error)
	case len(curve.Curve) == 0:
		return fail("empty curve")
	case info.Quarantined > 0:
		return fail("quarantined %d inputs", info.Quarantined)
	}
	out.hash = hashCurve(curve.Curve)
	out.sample = runSample{
		spec: spec.FeatureVersion, version: spec.FeatureVersion, lane: lane,
		end: start.Add(wall), wall: wall.Seconds(), engineWall: float64(info.WallMillis) / 1e3,
		inputs: info.InputsProcessed, quality: info.FinalQuality,
		evals: len(curve.Curve), phaseMs: info.PhaseMillis, traced: tr != nil,
	}
	out.t.overheadMs = wall.Seconds()*1e3 - float64(info.WallMillis)
	created, err1 := time.Parse(time.RFC3339Nano, info.Created)
	started, err2 := time.Parse(time.RFC3339Nano, info.Started)
	if err1 == nil && err2 == nil {
		out.t.queueMs = started.Sub(created).Seconds() * 1e3
	}
	return out
}

// absorb folds one client's served runs into the pass: failures are
// counted and replays checked; the good runs come back as samples.
func (e *env) absorb(runs []servedRun) (samples []runSample, timings []httpTimings, rejected int) {
	for _, r := range runs {
		e.res.Attempted++
		if r.problem != "" {
			e.fail("%s", r.problem)
			if r.rejected {
				rejected++
			}
			continue
		}
		e.checkReplay(r.label, r.hash)
		samples = append(samples, r.sample)
		timings = append(timings, r.t)
	}
	return samples, timings, rejected
}

// reportHTTP sets the client-side server metrics and the counters the
// server publishes, as deltas of /metrics over the measured window.
func (e *env) reportHTTP(timings []httpTimings, before, after map[string]float64, rejected int) {
	var submit, info, overhead, queue []float64
	for _, t := range timings {
		submit, info = append(submit, t.submitMs), append(info, t.infoMs)
		overhead, queue = append(overhead, t.overheadMs), append(queue, t.queueMs)
	}
	e.set("server.submit_ms_p50", median(submit), len(submit))
	e.set("server.info_get_ms_p50", median(info), len(info))
	e.set("server.overhead_ms_p50", median(overhead), len(overhead))
	e.set("server.queue_wait_ms_p50", median(queue), len(queue))
	e.set("server.rejected", float64(rejected), len(timings)+rejected)
	delta := func(key string) float64 { return after[key] - before[key] }
	e.set("server.index_builds", delta("index_builds"), 1)
	e.set("server.index_cache_hits", delta("index_cache_hits"), 1)
	e.set("server.http_requests", delta("zombie_http_request_seconds_count"), 1)
	hits, misses := delta("feat_cache_hits"), delta("feat_cache_misses")
	e.set("featcache.hits", hits, 1)
	e.set("featcache.misses", misses, 1)
	if hits+misses > 0 {
		e.set("featcache.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	e.set("featcache.evictions", delta("feat_cache_evictions"), 1)
	e.set("featcache.bytes", after["feat_cache_bytes"], 1)
}

// reportServeSetup sets what the traced pass knows about the set-up.
func (e *env) reportServeSetup(st *serveState) {
	st.corpus.report(e)
	e.set("server.start_s", st.startS, 1)
	e.set("server.first_run_s", st.firstRunS, 1)
}

// firstRun submits the server's first run, which pays the index build every
// later run of the same seed finds cached.
func (e *env) firstRun(st *serveState, spec server.RunSpec, parent spanID) error {
	c := newClient(st.front.url)
	defer c.close()
	sp := e.tr.start(parent, 0, 0, "server.first_run")
	t := time.Now()
	first := serveOnce(nil, 0, c, spec, "first run", 0, 0)
	st.firstRunS = time.Since(t).Seconds()
	e.tr.end(sp)
	if first.problem != "" {
		return errors.New(first.problem)
	}
	return nil
}

// emptyCaches empties the extraction cache of each server, so the next run
// pays extraction the way a new feature version does.
func emptyCaches(owners ...*client) error {
	for _, o := range owners {
		if err := o.do("DELETE", "/cache", nil, nil, http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

// verdictSpec is the served twin of wiki_verdict's run: same policy,
// reward, early stop and batch size, through the service's defaults.
func (e *env) verdictSpec(version int) server.RunSpec {
	return server.RunSpec{
		Corpus: "wiki", Task: "wiki", Seed: e.specSeed(),
		FeatureVersion: version, EarlyStop: true,
	}
}

func runServeVerdict(e *env) error {
	var rss rssTracker
	st, err := repeatSetup(e, func(parent spanID) (*serveState, error) {
		cs, err := e.buildCorpus("wiki", parent, false)
		if err != nil {
			return nil, err
		}
		st := &serveState{corpus: cs, stateDir: filepath.Join(e.cfg.workDir, fmt.Sprintf("state-%d", len(rss.setups)))}
		t := time.Now()
		st.front, err = e.startServer("serve", parent,
			"-workers", "2", "-corpus", "wiki="+cs.path, "-state-dir", st.stateDir)
		st.startS = time.Since(t).Seconds()
		if err == nil {
			err = e.firstRun(st, e.verdictSpec(1), parent)
		}
		if err != nil {
			st.stop()
			return nil, err
		}
		rss.afterSetup(st)
		return st, nil
	}, (*serveState).stop)
	if err != nil {
		return err
	}
	defer st.stop()

	// Two closed-loop clients, one connection each. Client 0 cycles the odd
	// feature versions and client 1 the even ones, and each empties the
	// extraction cache before its own run, so every run pays extraction the
	// way a new feature version does: a run on a cold cache never rereads
	// an entry, so the other client's DELETE cannot change its hits.
	const clients = 2
	perClient := cycleOps["serve_verdict"] / clients
	runs := make([][]servedRun, clients)
	admin := newClient(st.front.url)
	defer admin.close()
	before, err := admin.metrics()
	if err != nil {
		return err
	}
	start := time.Now()
	budget := time.Duration(e.cfg.seconds * float64(time.Second))
	var wg sync.WaitGroup
	for lane := 0; lane < clients; lane++ {
		order := e.order(perClient, fmt.Sprintf("client%d", lane))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(st.front.url)
			defer c.close()
			for i := 0; i < e.minOps(perClient) || time.Since(start) < budget; i++ {
				k, traced := e.specAt(order, i)
				version := 1 + lane + clients*k
				var tr *tracer
				if traced {
					tr = e.tr
				}
				if err := emptyCaches(c); err != nil {
					runs[lane] = append(runs[lane], servedRun{problem: err.Error()})
					continue
				}
				runs[lane] = append(runs[lane], serveOnce(tr, e.root, c, e.verdictSpec(version),
					fmt.Sprintf("serve/wiki-v%d", version), 1+i*clients+lane, lane))
			}
		}()
	}
	wg.Wait()
	after, err := admin.metrics()
	if err != nil {
		return err
	}

	var samples []runSample
	var timings []httpTimings
	rejected := 0
	for lane := range runs {
		s, t, r := e.absorb(runs[lane])
		samples, timings, rejected = append(samples, s...), append(timings, t...), rejected+r
	}
	e.reportRuns(samples, start, perClient)
	e.reportHTTP(timings, before, after, rejected)
	if n := after["runs_completed"] - before["runs_completed"]; n > 0 {
		e.set("runstore.records_per_run", max(0, after["journal_records"]-before["journal_records"])/n, int(n))
		e.set("runstore.bytes_per_run", max(0, after["journal_bytes"]-before["journal_bytes"])/n, int(n))
	}
	e.set("runstore.journal_errors", after["journal_errors"]-before["journal_errors"], 1)
	if e.cfg.trace {
		e.reportServeSetup(st)
		e.rungs(func() { e.runstoreRungs(st.stateDir) })
	}
	st.stop()
	e.set("peak_rss_mb", rss.peak(st.peakRSS()), 1)
	return nil
}

// distVersions are the feature versions dist_exhaust cycles: the cheapest,
// the service's default and the most expensive. The issue's cycle is all
// eight; three is what the measured window fits once round.
var distVersions = []int{1, 4, 8}

func runDistExhaust(e *env) error {
	var rss rssTracker
	var urls []string
	// Sharded execution over the real wire: batch 16, two shards, the two
	// worker processes, run to exhaustion unless capped.
	distSpec := func(version, maxInputs int) server.RunSpec {
		return server.RunSpec{
			Corpus: "wiki", Task: "wiki", Seed: e.specSeed(),
			FeatureVersion: version, Batch: 16, MaxInputs: maxInputs,
			Shards: len(urls), DistWorkers: urls,
		}
	}
	st, err := repeatSetup(e, func(parent spanID) (*serveState, error) {
		cs, err := e.buildCorpus("wiki", parent, false)
		if err != nil {
			return nil, err
		}
		st := &serveState{corpus: cs}
		urls = nil
		t := time.Now()
		for w := 0; w < 2 && err == nil; w++ {
			var c *child
			if c, err = e.startServer(fmt.Sprintf("worker%d", w), parent, "-corpus", "wiki="+cs.path); err == nil {
				st.workers = append(st.workers, c)
				urls = append(urls, c.url)
			}
		}
		if err == nil {
			st.front, err = e.startServer("coordinator", parent, "-workers", "1", "-corpus", "wiki="+cs.path)
		}
		st.startS = time.Since(t).Seconds()
		if err == nil {
			// A short first run is enough to build the coordinator's index:
			// the index key does not depend on the input budget.
			err = e.firstRun(st, distSpec(distVersions[0], 64), parent)
		}
		if err != nil {
			st.stop()
			return nil, err
		}
		rss.afterSetup(st)
		return st, nil
	}, (*serveState).stop)
	if err != nil {
		return err
	}
	defer st.stop()

	c := newClient(st.front.url)
	defer c.close()
	var workerClients []*client
	for _, w := range st.workers {
		wc := newClient(w.url)
		defer wc.close()
		workerClients = append(workerClients, wc)
	}
	before, err := c.metrics()
	if err != nil {
		return err
	}
	var runs []servedRun
	order := e.order(len(distVersions), "specs")
	start, err := e.window(e.minOps(len(distVersions)), func(i int) error {
		k, traced := e.specAt(order, i)
		var tr *tracer
		if traced {
			tr = e.tr
		}
		if err := emptyCaches(workerClients...); err != nil {
			return err
		}
		v := distVersions[k]
		runs = append(runs, serveOnce(tr, e.root, c, distSpec(v, 0), fmt.Sprintf("dist/wiki-v%d", v), i+1, 0))
		return nil
	})
	if err != nil {
		return err
	}
	after, err := c.metrics()
	if err != nil {
		return err
	}
	samples, timings, rejected := e.absorb(runs)
	e.reportRuns(samples, start, len(distVersions))
	e.reportHTTP(timings, before, after, rejected)

	// The local twin: the first op's spec without shards, on the
	// coordinator alone. Sharding only changes where steps execute, so the
	// twin's curve must equal the distributed run's.
	if err := emptyCaches(c); err != nil {
		return err
	}
	twinVersion := distVersions[order[0]]
	twinSpec := distSpec(twinVersion, 0)
	twinSpec.Shards, twinSpec.DistWorkers = 0, nil
	twin := serveOnce(nil, 0, c, twinSpec, fmt.Sprintf("twin/wiki-v%d", twinVersion), 0, 0)
	e.res.Attempted++
	distHash := e.seen[fmt.Sprintf("dist/wiki-v%d", twinVersion)]
	switch {
	case twin.problem != "":
		e.fail("%s", twin.problem)
	case distHash != "" && distHash != twin.hash:
		e.fail("dist/wiki-v%d curve %s differs from its local twin's %s", twinVersion, distHash[:12], twin.hash[:12])
	}
	e.set("dist.local_twin_s", twin.sample.wall, 1)

	// The coordinator publishes dist_rpc_seconds{method} and
	// dist_rpc_errors{method,worker}; the flat map joins labels with "_".
	rpcs, rpcMs, errs := 0.0, 0.0, 0.0
	for k, v := range after {
		switch d := v - before[k]; {
		case strings.HasPrefix(k, "dist_rpc_seconds_") && strings.HasSuffix(k, "_count"):
			rpcs += d
		case strings.HasPrefix(k, "dist_rpc_seconds_") && strings.HasSuffix(k, "_sum_ms"):
			rpcMs += d
		case strings.HasPrefix(k, "dist_rpc_errors"):
			errs += d
		}
	}
	e.set("dist.rpcs", rpcs, len(runs))
	e.set("dist.rpc_s", rpcMs/1e3, int(rpcs))
	e.set("dist.rpc_errors", errs, 1)
	const stepBatch = "dist_rpc_seconds_step-batch"
	if n := after[stepBatch+"_count"] - before[stepBatch+"_count"]; n > 0 {
		ms := after[stepBatch+"_sum_ms"] - before[stepBatch+"_sum_ms"]
		e.set("dist.step_batch_rtt_us", ms*1e3/n, int(n))
	}
	if wall := e.res.Metrics["core.run_wall_s"].Value; wall > 0 {
		e.set("dist.rpc_share", e.res.Metrics["core.phase_rpc_s"].Value/wall, len(runs))
	}
	if e.cfg.trace {
		e.reportServeSetup(st)
		e.rungs(func() { e.wireRungs(st.corpus) })
	}
	st.stop()
	e.set("peak_rss_mb", rss.peak(st.peakRSS()), 1)
	return nil
}
