# Development workflow for the zombie repo. `make ci` is the full gate the
# first goroutines in internal/server made meaningful: the race detector
# runs over every package. The CLI's determinism contracts (cache, faults,
# batching, shards, recipes, the -session output) are Go tests in
# cmd/zombie; the kill -9 resume contract, the real-socket dist contract
# (curve identity and trace stitching across a coordinator and two worker
# processes) and the telemetry contract (build identity in /healthz, both
# /metrics expositions, a traced run's phase breakdown) are Go tests in
# cmd/zombie-serve. `make cover` holds the robustness-critical packages and
# the learners to a coverage floor. `make loc` prints the size metric
# ROADMAP's "least code" aim is judged by: non-test Go lines per package
# and the repo total outside benchmark/.

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

.PHONY: all build bin test race vet fmt-check lint loc cover cpu-matrix bench-smoke fuzz-smoke bench-selftest ci

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

# cpu-matrix runs the packages that share cores through the idle-core
# budget (parallel.Hold/Share) at GOMAXPROCS 1 and 4: a caller that
# borrows a helper it should not have, or a test that only passes with
# several cores, shows only at 1, which a multi-core runner never sets.
cpu-matrix:
	$(GO) test -count=1 -cpu 1,4 ./internal/parallel ./internal/index ./internal/featurepipe

# bench-smoke runs every benchmark exactly once — not for timing, but to
# catch benchmarks that rot (compile errors, panics, fixture drift).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# fuzz-smoke gives each fuzz target (package:target) ten seconds beyond
# its checked-in seed corpus: the token scanner against its Tokenize
# oracle, the bounded k-means pass against the plain Lloyd loop it
# replaced, LoadGroups against arbitrary file bytes, the fault spec's
# Parse/String round trip, the recipe spec's parse and JSON round trip,
# OpenJournal against arbitrary journal bytes, the server's state load
# path (legacy translation included) against arbitrary snapshot and
# record bytes, GaussianNB's certified holdout argmax against its exact
# predict over arbitrary moments, priors and features, the strict and
# tolerant JSONL corpus decodes against each other over arbitrary bytes,
# and the extraction-result codec's Decode, round trip and Size over
# arbitrary bytes — ten targets.
# Minimizing a new input is capped at a second so the ten seconds go to
# fuzzing: the state seeds are whole fixture directories, and minimizing
# one of those under the default cap can take the entire budget.
fuzz-smoke:
	@for target in index:FuzzScanTokens index:FuzzKMeansBounded index:FuzzLoadGroups fault:FuzzFaultSpec recipe:FuzzRecipeSpec runstore:FuzzOpenJournal server:FuzzRestoreState learner:FuzzGaussianCertifiedArgmax corpus:FuzzDecodeJSONL featurepipe:FuzzResultCodec; do \
		$(GO) test ./internal/$${target%%:*} -run '^$$' -fuzz "^$${target#*:}\$$" -fuzztime 10s -fuzzminimizetime 1s || exit 1; \
	done

# bench-selftest compiles and tests the benchmark program against this
# tree. benchmark/ is a module of its own, so nothing above reaches it: an
# internal API change that breaks it would otherwise surface only when the
# benchmark next runs.
bench-selftest:
	$(GO) test -C benchmark ./...

ci: fmt-check vet lint build race cover cpu-matrix bench-smoke fuzz-smoke bench-selftest
