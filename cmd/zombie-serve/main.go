// Command zombie-serve runs the Zombie engine as a long-lived HTTP
// service: engineers register JSONL corpora, submit feature-evaluation
// runs, stream live learning curves over SSE, and cancel runs that are
// clearly not converging — the inner loop as a service rather than a
// one-shot CLI.
//
// Usage:
//
//	zombie-serve -addr :8080 -workers 4
//	zombie-serve -corpus wiki=wiki.jsonl -corpus imgs=images.jsonl
//	zombie-serve -corpus big=crawl.jsonl -stream   # corpora larger than RAM
//
// Then:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/runs -d '{"corpus":"wiki","task":"wiki"}'
//	curl -N 'localhost:8080/runs/r1/curve?follow=1'
//	curl -s -X DELETE localhost:8080/runs/r1
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops, queued
// and running runs drain (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zombie/internal/buildinfo"
	"zombie/internal/fault"
	"zombie/internal/obs"
	"zombie/internal/server"
)

// corpusFlags collects repeated -corpus name=path pairs.
type corpusFlags []string

func (c *corpusFlags) String() string { return strings.Join(*c, ",") }

func (c *corpusFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zombie-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "worker-pool size: runs and session versions executing at once, together")
	queueCap := flag.Int("queue", 64, "max queued runs and session versions before submissions get 503")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight runs")
	stream := flag.Bool("stream", false, "open preregistered corpora as streamed DiskStores")
	cacheDir := flag.String("cache-dir", "", "persist the extraction cache to this directory (survives restarts)")
	stateDir := flag.String("state-dir", "", "journal run and session state to this directory; on restart, interrupted runs resume automatically")
	cacheMemMB := flag.Int("cache-mem-mb", 64, "extraction cache in-memory budget in MiB")
	runTimeout := flag.Duration("run-timeout", 0, "default per-run wall-clock deadline, e.g. 10m (0 = none; a run's timeout_ms overrides)")
	maxFailures := flag.Float64("max-failures", 0, "default failure budget: fraction of a run's inputs that may be quarantined before it degrades (0 = engine default 0.5)")
	distWorkers := flag.String("dist-workers", "", "comma-separated worker base URLs (zombie-serve processes serving /dist/*) that sharded runs execute over, e.g. http://w1:8080,http://w2:8080 (empty = shards run in-process)")
	faultSpec := flag.String("faults", "", "inject deterministic faults into every run, e.g. extract:err=0.01 (chaos deployments)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for -faults decisions")
	logFormat := flag.String("log-format", "text", "structured log format: text or json (stderr)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address, e.g. localhost:6060 (empty = off)")
	version := flag.Bool("version", false, "print version and exit")
	var corpora corpusFlags
	flag.Var(&corpora, "corpus", "preregister a corpus as name=path (repeatable)")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("zombie-serve"))
		return nil
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	injector, err := fault.Parse(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	var workerAddrs []string
	for _, a := range strings.Split(*distWorkers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workerAddrs = append(workerAddrs, a)
		}
	}
	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		CacheDir:       *cacheDir,
		StateDir:       *stateDir,
		CacheMemMB:     *cacheMemMB,
		RunTimeout:     *runTimeout,
		MaxFailureFrac: *maxFailures,
		Faults:         injector,
		DistWorkers:    workerAddrs,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling is never
		// exposed on the service port.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}
	for _, spec := range corpora {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-corpus wants name=path, got %q", spec)
		}
		info, err := srv.Registry().Add(name, path, *stream)
		if err != nil {
			return err
		}
		fmt.Printf("registered corpus %q: %d inputs from %s (stream=%t)\n",
			info.Name, info.Inputs, info.Path, info.Stream)
	}
	// Recovery waits until here: interrupted runs name corpora that only
	// now exist, and re-queuing them earlier would fail each one.
	if runs, versions := srv.Recover(); runs > 0 || versions > 0 {
		fmt.Printf("recovered state from %s: re-queued %d runs, %d session versions\n",
			*stateDir, runs, versions)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("zombie-serve listening on %s (%d workers)\n", *addr, *workers)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("shutting down: draining in-flight runs...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so no new work arrives, then drain runs.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Println("drain budget exceeded; in-flight runs were cancelled")
	}
	return nil
}
