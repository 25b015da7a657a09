# Development workflow for the zombie repo. `make ci` is the full gate the
# first goroutines in internal/server made meaningful: the race detector
# runs over every package, and the smoke targets prove the contracts that
# need a live zombie-serve (telemetry, real-socket dist, trace stitching)
# end to end. The CLI's determinism contracts (cache, faults, batching,
# shards, recipes) are Go tests in cmd/zombie, and the kill -9 resume
# contract is a Go test in cmd/zombie-serve. `make cover` holds the
# robustness-critical packages and the learners to a coverage floor. `make loc`
# prints the size metric ROADMAP's "least code" aim is judged by: non-test
# Go lines per package and the repo total outside benchmark/.

# The smoke recipes use bash-isms (trap on EXIT inside a one-liner,
# $(( )) arithmetic); pin the shell so they behave the same under any
# make invocation, including CI images whose /bin/sh is dash.
SHELL := /bin/bash

GO ?= go

# Build identity, injected into internal/buildinfo at link time so
# -version and /healthz name the exact build. A plain `go build` still
# works — buildinfo falls back to the toolchain's VCS stamp.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X zombie/internal/buildinfo.Version=$(VERSION) -X zombie/internal/buildinfo.Commit=$(COMMIT)

# staticcheck runs through `go run` at a pinned version so neither CI nor
# developer machines need a global install; 2025.1.1 is the release line
# that understands this repo's go1.22 directive on current toolchains.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1

# Packages under the coverage floor gate, and the floor itself. These are
# the robustness-critical packages: the fault injector, the engine that
# quarantines around it, the cache that degrades under it, the journal
# the control plane's crash-resume rides on, and the learners every curve
# point is fitted and scored by.
COVER_PKGS := ./internal/core ./internal/featcache ./internal/fault ./internal/runstore ./internal/learner
COVER_FLOOR := 70

# Smoke targets bind loopback ports derived from SMOKE_PORT_BASE (each
# target uses a fixed offset below 40) so two checkouts or CI matrix
# entries can run side by side by exporting different bases.
SMOKE_PORT_BASE ?= 18800

# When SMOKE_DIR is set, smoke targets put their work directories (logs,
# corpora, state dirs) under it and keep them after the run — CI points
# it at a scratch path and uploads it as the failure artifact. Unset,
# each target uses a private mktemp dir removed on exit.
SMOKE_DIR ?=

# smoke_tmp initializes $$tmp (and $$keep) for a smoke recipe: a kept
# directory under SMOKE_DIR when set, else a throwaway mktemp dir.
define smoke_tmp
if [ -n "$(SMOKE_DIR)" ]; then tmp="$(SMOKE_DIR)/$(1)"; rm -rf "$$tmp"; mkdir -p "$$tmp"; keep=1; else tmp=$$(mktemp -d); keep=; fi
endef

.PHONY: all build bin test race vet fmt-check lint loc cover bench-smoke fuzz-smoke bench-selftest obs-smoke dist-smoke trace-smoke ci

all: build

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

# bin produces the stamped binaries under bin/.
bin:
	$(GO) build -ldflags "$(LDFLAGS)" -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc counts non-test Go lines (wc -l) per package directory and in total,
# benchmark/ and its build directory excluded.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d total (non-test Go lines, benchmark/ excluded)\n", t }'

# lint runs staticcheck pinned through `go run`. The first invocation
# downloads the module, which needs the network — in an offline sandbox
# that manifests as a resolver/dial error, and the target degrades to a
# notice instead of failing the build. Real findings still fail.
lint:
	@out="$$($(GO) run $(STATICCHECK) ./... 2>&1)"; st=$$?; \
	if [ $$st -ne 0 ] && echo "$$out" | grep -qE 'no such host|dial tcp|i/o timeout|connection refused|proxyconnect'; then \
		echo "lint: staticcheck not cached and network unavailable; skipping"; \
	elif [ $$st -ne 0 ]; then \
		echo "$$out"; exit 1; \
	else \
		echo "lint OK"; \
	fi

# cover enforces a per-package coverage floor on the robustness-critical
# packages. A package slipping under the floor fails the gate and names
# itself; the rest still report so one failure shows the whole picture.
cover:
	@fail=0; \
	for pkg in $(COVER_PKGS); do \
		line="$$($(GO) test -cover $$pkg | tail -1)"; \
		pct="$$(echo "$$line" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')"; \
		if [ -z "$$pct" ]; then \
			echo "cover: no coverage reported for $$pkg:"; echo "$$line"; fail=1; continue; \
		fi; \
		if awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(p < f)}'; then \
			echo "cover: $$pkg at $$pct% is under the $(COVER_FLOOR)% floor"; fail=1; \
		else \
			echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		fi; \
	done; exit $$fail

# bench-smoke runs every benchmark exactly once — not for timing, but to
# catch benchmarks that rot (compile errors, panics, fixture drift).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# fuzz-smoke gives each fuzz target (package:target) ten seconds beyond
# its checked-in seed corpus: the token scanner against its Tokenize
# oracle, the bounded k-means pass against the plain Lloyd loop it
# replaced, LoadGroups against arbitrary file bytes, OpenJournal against
# arbitrary journal bytes, and the server's state load path (legacy
# translation included) against arbitrary snapshot and record bytes.
# Minimizing a new input is capped at a second so the ten seconds go to
# fuzzing: the state seeds are whole fixture directories, and minimizing
# one of those under the default cap can take the entire budget.
fuzz-smoke:
	@for target in index:FuzzScanTokens index:FuzzKMeansBounded index:FuzzLoadGroups runstore:FuzzOpenJournal server:FuzzRestoreState; do \
		$(GO) test ./internal/$${target%%:*} -run '^$$' -fuzz "^$${target#*:}\$$" -fuzztime 10s -fuzzminimizetime 1s || exit 1; \
	done

# bench-selftest compiles and tests the benchmark program against this
# tree. benchmark/ is a module of its own, so nothing above reaches it: an
# internal API change that breaks it would otherwise surface only when the
# benchmark next runs.
bench-selftest:
	$(GO) test -C benchmark ./...

# obs-smoke proves the telemetry contract end to end against a live
# zombie-serve: /healthz carries build identity, a traced run populates
# both /metrics expositions (the stable flat-JSON keys and Prometheus
# TYPE/bucket lines), and the terminal trace snapshot carries events and
# a non-zero phase breakdown. Needs curl + jq (standard on CI images).
obs-smoke:
	@command -v curl >/dev/null && command -v jq >/dev/null || { echo "obs-smoke: needs curl and jq"; exit 1; }; \
	$(call smoke_tmp,obs-smoke); pid=; trap 'kill $$pid 2>/dev/null; [ -n "$$keep" ] || rm -rf "$$tmp"' EXIT; \
	port=$$(( $(SMOKE_PORT_BASE) + 8 )); base=http://127.0.0.1:$$port; \
	$(GO) run ./cmd/zombie-datagen -task wiki -n 600 -out $$tmp/wiki.jsonl >/dev/null && \
	$(GO) build -ldflags "$(LDFLAGS)" -o $$tmp/zombie-serve ./cmd/zombie-serve && \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$port -corpus wiki=$$tmp/wiki.jsonl -log-format json >$$tmp/serve.log 2>&1 & pid=$$!; }; \
	up=0; for i in $$(seq 1 50); do curl -sf $$base/healthz >/dev/null && { up=1; break; }; sleep 0.1; done; \
	[ $$up = 1 ] || { echo "obs-smoke: server never came up"; cat $$tmp/serve.log; exit 1; }; \
	commit=$$(curl -sf $$base/healthz | jq -r '.commit // empty'); \
	[ -n "$$commit" ] && [ "$$commit" != unknown ] || { echo "obs-smoke: healthz build identity missing (commit=$$commit)"; exit 1; }; \
	id=$$(curl -sf -X POST $$base/runs -d '{"corpus":"wiki","task":"wiki","max_inputs":150,"eval_every":25,"trace":true}' | jq -r '.id // empty'); \
	[ -n "$$id" ] || { echo "obs-smoke: run submission failed"; cat $$tmp/serve.log; exit 1; }; \
	state=; for i in $$(seq 1 200); do \
		state=$$(curl -sf $$base/runs/$$id | jq -r .state); \
		case $$state in done|failed|cancelled) break;; esac; sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "obs-smoke: run ended in state $$state"; curl -s $$base/runs/$$id; exit 1; }; \
	curl -sf $$base/metrics > $$tmp/flat.json && \
	for key in runs_completed inputs_processed feat_cache_hits queue_depth \
			zombie_run_seconds_count zombie_phase_seconds_extract_count zombie_http_request_seconds_count; do \
		jq -e --arg k $$key 'has($$k)' $$tmp/flat.json >/dev/null || \
			{ echo "obs-smoke: flat /metrics missing key $$key"; cat $$tmp/flat.json; exit 1; }; \
	done && \
	curl -sf "$$base/metrics?format=prom" > $$tmp/metrics.prom && \
	grep -q '^# TYPE runs_completed counter' $$tmp/metrics.prom && \
	grep -q 'zombie_phase_seconds_bucket{phase="extract",le="+Inf"}' $$tmp/metrics.prom || \
		{ echo "obs-smoke: Prometheus exposition incomplete"; head -40 $$tmp/metrics.prom; exit 1; }; \
	curl -sf $$base/runs/$$id/trace > $$tmp/trace.json && \
	nev=$$(jq '.events | length' $$tmp/trace.json); \
	extract_ms=$$(jq -r '.phase_ms.extract // 0' $$tmp/trace.json); \
	[ "$$nev" -ge 1 ] || { echo "obs-smoke: trace snapshot has no events"; cat $$tmp/trace.json; exit 1; }; \
	awk -v x="$$extract_ms" 'BEGIN{exit !(x > 0)}' || \
		{ echo "obs-smoke: terminal trace phase_ms.extract not > 0 (got $$extract_ms)"; exit 1; }; \
	echo "obs-smoke OK: $$nev trace events, extract $$extract_ms ms, both expositions served"

# dist-smoke proves the distributed determinism contract against real
# processes and real sockets: a coordinator zombie-serve fronting two
# worker zombie-serve processes over loopback HTTP must produce a
# learning curve byte-identical to its own single-process run of the
# same spec, and the run must report the http transport with both
# workers executing. Needs curl + jq (standard on CI images).
dist-smoke:
	@command -v curl >/dev/null && command -v jq >/dev/null || { echo "dist-smoke: needs curl and jq"; exit 1; }; \
	$(call smoke_tmp,dist-smoke); pids=; trap 'kill $$pids 2>/dev/null; [ -n "$$keep" ] || rm -rf "$$tmp"' EXIT; \
	cport=$$(( $(SMOKE_PORT_BASE) + 18 )); wport1=$$(( $(SMOKE_PORT_BASE) + 19 )); wport2=$$(( $(SMOKE_PORT_BASE) + 20 )); \
	base=http://127.0.0.1:$$cport; w1=http://127.0.0.1:$$wport1; w2=http://127.0.0.1:$$wport2; \
	$(GO) run ./cmd/zombie-datagen -task wiki -n 600 -out $$tmp/wiki.jsonl >/dev/null && \
	$(GO) build -ldflags "$(LDFLAGS)" -o $$tmp/zombie-serve ./cmd/zombie-serve && \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$wport1 -corpus wiki=$$tmp/wiki.jsonl >$$tmp/w1.log 2>&1 & pids="$$pids $$!"; }; \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$wport2 -corpus wiki=$$tmp/wiki.jsonl >$$tmp/w2.log 2>&1 & pids="$$pids $$!"; }; \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$cport -corpus wiki=$$tmp/wiki.jsonl \
		-dist-workers $$w1,$$w2 >$$tmp/coord.log 2>&1 & pids="$$pids $$!"; }; \
	for b in $$base $$w1 $$w2; do \
		up=0; for i in $$(seq 1 50); do curl -sf $$b/healthz >/dev/null && { up=1; break; }; sleep 0.1; done; \
		[ $$up = 1 ] || { echo "dist-smoke: $$b never came up"; cat $$tmp/*.log; exit 1; }; \
	done; \
	spec='{"corpus":"wiki","task":"wiki","max_inputs":150,"eval_every":25,"seed":9}'; \
	dspec='{"corpus":"wiki","task":"wiki","max_inputs":150,"eval_every":25,"seed":9,"shards":2}'; \
	id1=$$(curl -sf -X POST $$base/runs -d "$$spec" | jq -r '.id // empty'); \
	id2=$$(curl -sf -X POST $$base/runs -d "$$dspec" | jq -r '.id // empty'); \
	[ -n "$$id1" ] && [ -n "$$id2" ] || { echo "dist-smoke: run submission failed"; cat $$tmp/coord.log; exit 1; }; \
	for id in $$id1 $$id2; do \
		state=; for i in $$(seq 1 300); do \
			state=$$(curl -sf $$base/runs/$$id | jq -r .state); \
			case $$state in done|failed|cancelled) break;; esac; sleep 0.1; \
		done; \
		[ "$$state" = done ] || { echo "dist-smoke: run $$id ended in state $$state"; \
			curl -s $$base/runs/$$id; cat $$tmp/coord.log; exit 1; }; \
	done; \
	curl -sf $$base/runs/$$id2 > $$tmp/dist.info; \
	transport=$$(jq -r '.transport // empty' $$tmp/dist.info); \
	nworkers=$$(jq '.workers | length' $$tmp/dist.info); \
	busy=$$(jq '[.workers[] | select(.steps > 0)] | length' $$tmp/dist.info); \
	if [ "$$transport" != http ] || [ "$$nworkers" != 2 ] || [ "$$busy" != 2 ]; then \
		echo "dist-smoke: sharded run reports transport=$$transport workers=$$nworkers busy=$$busy, want http/2/2"; \
		cat $$tmp/dist.info; exit 1; \
	fi; \
	curl -sf $$base/runs/$$id1/curve | jq .curve > $$tmp/single.curve && \
	curl -sf $$base/runs/$$id2/curve | jq .curve > $$tmp/dist.curve && \
	if ! cmp -s $$tmp/single.curve $$tmp/dist.curve; then \
		echo "dist-smoke: sharded curve diverged from single-process"; \
		diff $$tmp/single.curve $$tmp/dist.curve; exit 1; \
	fi; \
	steps=$$(jq '[.workers[].steps] | add' $$tmp/dist.info); \
	echo "dist-smoke OK: http transport over 2 workers, $$steps worker steps, curve identical to single-process"

# trace-smoke proves cross-process span stitching end to end: a live
# coordinator + 2 worker processes run a sharded traced run, and the
# coordinator's /runs/{id}/spans tree must contain the workers' spans
# (worker.step_batch / worker.holdout, shipped back over
# HTTP and re-parented via traceparent) strictly underneath the
# coordinator's dist.* rpc spans, which in turn hang off the engine's
# batch spans. Also checks per-shard cost cells and the chrome export.
# Needs curl + jq (standard on CI images).
trace-smoke:
	@command -v curl >/dev/null && command -v jq >/dev/null || { echo "trace-smoke: needs curl and jq"; exit 1; }; \
	$(call smoke_tmp,trace-smoke); pids=; trap 'kill $$pids 2>/dev/null; [ -n "$$keep" ] || rm -rf "$$tmp"' EXIT; \
	cport=$$(( $(SMOKE_PORT_BASE) + 24 )); wport1=$$(( $(SMOKE_PORT_BASE) + 25 )); wport2=$$(( $(SMOKE_PORT_BASE) + 26 )); \
	base=http://127.0.0.1:$$cport; w1=http://127.0.0.1:$$wport1; w2=http://127.0.0.1:$$wport2; \
	$(GO) run ./cmd/zombie-datagen -task wiki -n 600 -out $$tmp/wiki.jsonl >/dev/null && \
	$(GO) build -ldflags "$(LDFLAGS)" -o $$tmp/zombie-serve ./cmd/zombie-serve && \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$wport1 -corpus wiki=$$tmp/wiki.jsonl >$$tmp/w1.log 2>&1 & pids="$$pids $$!"; }; \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$wport2 -corpus wiki=$$tmp/wiki.jsonl >$$tmp/w2.log 2>&1 & pids="$$pids $$!"; }; \
	{ $$tmp/zombie-serve -addr 127.0.0.1:$$cport -corpus wiki=$$tmp/wiki.jsonl \
		-dist-workers $$w1,$$w2 >$$tmp/coord.log 2>&1 & pids="$$pids $$!"; }; \
	for b in $$base $$w1 $$w2; do \
		up=0; for i in $$(seq 1 50); do curl -sf $$b/healthz >/dev/null && { up=1; break; }; sleep 0.1; done; \
		[ $$up = 1 ] || { echo "trace-smoke: $$b never came up"; cat $$tmp/*.log; exit 1; }; \
	done; \
	spec='{"corpus":"wiki","task":"wiki","max_inputs":150,"eval_every":25,"seed":9,"shards":2,"spans":true}'; \
	id=$$(curl -sf -X POST $$base/runs -d "$$spec" | jq -r '.id // empty'); \
	[ -n "$$id" ] || { echo "trace-smoke: run submission failed"; cat $$tmp/coord.log; exit 1; }; \
	state=; for i in $$(seq 1 300); do \
		state=$$(curl -sf $$base/runs/$$id | jq -r .state); \
		case $$state in done|failed|cancelled) break;; esac; sleep 0.1; \
	done; \
	[ "$$state" = done ] || { echo "trace-smoke: run $$id ended in state $$state"; \
		curl -s $$base/runs/$$id; cat $$tmp/coord.log; exit 1; }; \
	curl -sf $$base/runs/$$id/spans > $$tmp/spans.json || { echo "trace-smoke: spans fetch failed"; cat $$tmp/coord.log; exit 1; }; \
	nspans=$$(jq -r .spans $$tmp/spans.json); \
	[ "$$nspans" -gt 0 ] || { echo "trace-smoke: traced run recorded $$nspans spans"; cat $$tmp/spans.json; exit 1; }; \
	wtotal=$$(jq '[.tree[] | .. | objects | select(.name? // "" | startswith("worker."))] | length' $$tmp/spans.json); \
	wstitched=$$(jq '[.tree[] | .. | objects | select(.name? // "" | startswith("dist.")) | .children[]? | select(.name | startswith("worker."))] | length' $$tmp/spans.json); \
	if [ "$$wtotal" -lt 1 ] || [ "$$wstitched" != "$$wtotal" ]; then \
		echo "trace-smoke: $$wstitched of $$wtotal worker spans sit under dist.* rpc spans, want all and >= 1"; \
		jq '.tree[0]' $$tmp/spans.json; exit 1; \
	fi; \
	underbatch=$$(jq '[.tree[] | .. | objects | select(.name? == "batch") | .children[]? | select(.name | startswith("dist."))] | length' $$tmp/spans.json); \
	[ "$$underbatch" -ge 1 ] || { echo "trace-smoke: no dist.* rpc spans under the engine's batch spans"; \
		jq '.tree[0]' $$tmp/spans.json; exit 1; }; \
	nshards=$$(jq '[.cost.cells[] | select(.shard >= 0) | .shard] | unique | length' $$tmp/spans.json); \
	[ "$$nshards" = 2 ] || { echo "trace-smoke: cost cells cover $$nshards shards, want 2"; \
		jq .cost $$tmp/spans.json; exit 1; }; \
	curl -sf "$$base/runs/$$id/spans?format=chrome" | jq -e '.traceEvents | length > 0' >/dev/null \
		|| { echo "trace-smoke: chrome trace export is empty or invalid"; exit 1; }; \
	echo "trace-smoke OK: $$nspans spans, $$wstitched worker spans stitched under coordinator rpc spans, cost cells for 2 shards"

ci: fmt-check vet lint build race cover bench-smoke fuzz-smoke bench-selftest obs-smoke dist-smoke trace-smoke
