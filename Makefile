GO ?= go
GOFMT ?= gofmt

.PHONY: all build test check examples lint mutate loc race bench bench-record bench-trend clean clean-store store-smoke mt-smoke serve-smoke surrogate-smoke

all: build

build:
	$(GO) build ./...

# Full tier-1 verification: everything must build and every test pass.
test: build
	$(GO) test ./...

# Fast CI gate: formatting + vet + the simlint gate + the race detector over
# the short test set (the expensive collections are guarded by
# testing.Short) + the four CLI smokes. Run this before every commit.
check: build
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...
	$(GO) test -run TestRepoClean ./tools/simlint/internal/rules
	$(GO) test -race -short ./...
	$(MAKE) store-smoke
	$(MAKE) mt-smoke
	$(MAKE) serve-smoke
	$(MAKE) surrogate-smoke

# Durable-store round-trip smoke: the same design point simulated twice
# against a fresh store must compute once and disk-hit once, and the store
# must verify clean afterwards.
store-smoke:
	@rm -rf .store-smoke
	@$(GO) run ./cmd/scalesim simulate -machine 1:PRS -bench mcf -fast -store .store-smoke | grep "store: compute" >/dev/null \
		|| { echo "store-smoke: first run did not compute" >&2; exit 1; }
	@$(GO) run ./cmd/scalesim simulate -machine 1:PRS -bench mcf -fast -store .store-smoke | grep "store: disk" >/dev/null \
		|| { echo "store-smoke: second run did not hit the store" >&2; exit 1; }
	@$(GO) run ./cmd/scalesim store -dir .store-smoke
	@rm -rf .store-smoke
	@echo "store-smoke: ok"

# Threaded-study smoke: the §V-E6 extension is 24 engine jobs, so a second
# regeneration against the same store simulates nothing, reads all 24 back
# and prints the same figure.
mt-smoke:
	@rm -rf .mt-smoke && mkdir -p .mt-smoke
	@$(GO) build -o .mt-smoke/experiments ./cmd/experiments
	@./.mt-smoke/experiments -fast -figs mt -store .mt-smoke/store > .mt-smoke/first
	@./.mt-smoke/experiments -fast -figs mt -store .mt-smoke/store > .mt-smoke/second
	@grep "24 distinct simulations, 0 served from store" .mt-smoke/first >/dev/null \
		|| { echo "mt-smoke: first run did not simulate the 24 jobs" >&2; cat .mt-smoke/first >&2; exit 1; }
	@grep " 0 distinct simulations, 24 served from store" .mt-smoke/second >/dev/null \
		|| { echo "mt-smoke: second run did not read the 24 jobs back" >&2; cat .mt-smoke/second >&2; exit 1; }
	@for f in first second; do grep -v -e "regenerated in" -e "^total:" .mt-smoke/$$f > .mt-smoke/$$f.fig; done
	@cmp .mt-smoke/first.fig .mt-smoke/second.fig \
		|| { echo "mt-smoke: the figure served from the store differs" >&2; exit 1; }
	@$(GO) run ./cmd/scalesim store -dir .mt-smoke/store
	@rm -rf .mt-smoke
	@echo "mt-smoke: ok"

# Surrogate-tier smoke: a sequential dense DRAM sweep with the learned fast
# path on (gates wide open, training threshold at the base grid) must
# compute the 5 base points, then serve the 4 midpoints from the model —
# visible both per point and in the campaign stats line.
surrogate-smoke:
	@$(GO) run ./cmd/scalesim sweep -knob dram -dense -campaign-workers 1 \
		-surrogate -surrogate-min 5 -surrogate-gate 1e9 -surrogate-dist 1e9 \
		| tee .surrogate-smoke.out | grep "from model (approximate)" >/dev/null \
		|| { echo "surrogate-smoke: no model hits in the dense sweep" >&2; cat .surrogate-smoke.out >&2; rm -f .surrogate-smoke.out; exit 1; }
	@grep -c "(approximate, from model)" .surrogate-smoke.out | grep -q "^4$$" \
		|| { echo "surrogate-smoke: expected exactly 4 model-served midpoints" >&2; cat .surrogate-smoke.out >&2; rm -f .surrogate-smoke.out; exit 1; }
	@rm -f .surrogate-smoke.out
	@echo "surrogate-smoke: ok"

# Campaign-service smoke: start `scalesim serve` on an ephemeral port,
# submit the same design point twice through `scalesim request` (compute,
# then memory), drain the daemon with SIGINT, and verify the store it
# left behind.
serve-smoke:
	@rm -rf .serve-smoke && mkdir -p .serve-smoke
	@$(GO) build -o .serve-smoke/scalesim ./cmd/scalesim
	@./.serve-smoke/scalesim serve -addr 127.0.0.1:0 -addrfile .serve-smoke/addr -store .serve-smoke/store & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s .serve-smoke/addr ] && break; sleep 0.1; done; \
	[ -s .serve-smoke/addr ] || { echo "serve-smoke: daemon never published an address" >&2; kill $$pid 2>/dev/null; exit 1; }; \
	addr=$$(cat .serve-smoke/addr); \
	./.serve-smoke/scalesim request -server http://$$addr -machine 1:PRS -bench mcf -fast -client smoke | grep "server: compute" >/dev/null \
		|| { echo "serve-smoke: first request did not compute" >&2; kill $$pid 2>/dev/null; exit 1; }; \
	./.serve-smoke/scalesim request -server http://$$addr -machine 1:PRS -bench mcf -fast -client smoke | grep "server: memory" >/dev/null \
		|| { echo "serve-smoke: repeat request was not memoized" >&2; kill $$pid 2>/dev/null; exit 1; }; \
	kill -INT $$pid; \
	wait $$pid || { echo "serve-smoke: daemon did not drain cleanly on SIGINT" >&2; exit 1; }
	@$(GO) run ./cmd/scalesim store -dir .serve-smoke/store
	@rm -rf .serve-smoke
	@echo "serve-smoke: ok"

# Run every program under examples/ (≈ 25 s in all; none writes a file): a
# non-zero exit from any of them fails the target.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d >/dev/null || { echo "examples: $$d failed" >&2; exit 1; }; \
	done
	@echo "examples: ok"

# The simlint gate (DESIGN.md, "Static analysis invariants"): TestRepoClean
# loads the module once, runs every rule and fails, printing each finding,
# on any that is not suppressed in-source. Its surface census runs with it.
lint:
	$(GO) test -run TestRepoClean ./tools/simlint/internal/rules

# Executable mutants: each tools/mutants/NN-name.patch seeds one violation of
# an invariant and names the check that must catch it; the driver applies
# them one at a time to a temporary copy of the tree and fails if any
# survives. Independent of `make check`; CI runs it after the test suite.
mutate:
	sh tools/mutants/run.sh

# The sizes ROADMAP budgets, over tracked files: non-test Go outside bench/
# (testdata aside), bench/'s non-test Go, simlint's (inside the first count
# too), and the two prose docs' lines.
loc:
	@printf 'non-test Go outside bench/:       '; \
	git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e '/testdata/' | xargs cat | wc -l
	@printf 'non-test Go under bench/:         '; \
	git ls-files '*.go' | grep '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l
	@printf 'non-test Go under tools/simlint/: '; \
	git ls-files 'tools/simlint/*.go' | grep -v -e '_test\.go$$' -e '/testdata/' | xargs cat | wc -l
	@printf 'DESIGN.md:                        '; wc -l < DESIGN.md
	@printf 'README.md:                        '; wc -l < README.md

# Race detector over the full test set (slow).
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -timeout=2h ./...

# Benchmark trajectory: run scalebench on all five workloads BENCH_N times
# and write BENCH_<yyyymmdd>.json (medians, quartiles, digests, tier counts,
# host facts). With BENCH_PARENT=<checkout of the parent commit> the runs
# alternate parent/change and the file carries the paired comparison that
# bench/README.md requires of a claimed gain. Commit one per perf-claiming PR.
# An existing BENCH_<yyyymmdd>.json is never replaced: name a second record of
# the day with BENCH_OUT=<file>.
BENCH_N ?= 10
bench-record:
	$(GO) run ./tools/benchrecord -n $(BENCH_N) $(if $(BENCH_PARENT),-parent $(BENCH_PARENT)) $(if $(BENCH_OUT),-out $(BENCH_OUT))

# The line through the committed records: ops_per_s per record and workload,
# with host drift between consecutive records flagged. Runs nothing.
bench-trend:
	$(GO) run ./tools/benchrecord -trend

clean:
	$(GO) clean ./...

# Remove durable campaign stores created by the smoke step or local runs
# with the conventional .scalesim-store directory.
clean-store:
	rm -rf .store-smoke .mt-smoke .scalesim-store .surrogate-smoke.out
