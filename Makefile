# Development workflow for the zombie repo. `make ci` is the full gate the
# first goroutines in internal/server made meaningful: the race detector
# runs over every package, and obs-smoke proves the telemetry contract
# against a live zombie-serve end to end. The CLI's determinism contracts
# (cache, faults, batching, shards, recipes) are Go tests in cmd/zombie;
# the kill -9 resume contract and the real-socket dist contract (curve
# identity and trace stitching across a coordinator and two worker
# processes) are Go tests in cmd/zombie-serve. `make cover` holds the
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

.PHONY: all build bin test race vet fmt-check lint loc cover bench-smoke fuzz-smoke bench-selftest obs-smoke ci

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
# replaced, LoadGroups against arbitrary file bytes, the fault spec's
# Parse/String round trip, OpenJournal against arbitrary journal bytes, and the server's state load path (legacy
# translation included) against arbitrary snapshot and record bytes.
# Minimizing a new input is capped at a second so the ten seconds go to
# fuzzing: the state seeds are whole fixture directories, and minimizing
# one of those under the default cap can take the entire budget.
fuzz-smoke:
	@for target in index:FuzzScanTokens index:FuzzKMeansBounded index:FuzzLoadGroups fault:FuzzFaultSpec runstore:FuzzOpenJournal server:FuzzRestoreState; do \
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

ci: fmt-check vet lint build race cover bench-smoke fuzz-smoke bench-selftest obs-smoke
