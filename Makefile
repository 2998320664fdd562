DUNE ?= dune

BENCHES = jacobi spmul ep cg backprop bfs cfd srad hotspot kmeans lud nw

.PHONY: all build test lint fault-matrix wall-smoke perf-smoke goldens check \
	bench clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

# The hand-optimized suite is the end state of the paper's optimization
# sessions: it must lint warning-free.
lint: build
	@for b in $(BENCHES); do \
	  echo "lint bench:$$b:opt"; \
	  $(DUNE) exec --no-build bin/openarc.exe -- \
	    lint bench:$$b:opt --deny-warnings || exit 1; \
	done

# Resilience smoke: every fault kind x recovery policy on a small subset
# of the suite must recover verified-correct (the full sweep is
# `bench/main.exe faults`, which regenerates BENCH_faults.json).
# --devices 2,4 adds the device-loss-with-failover rows: a member killed
# at a kernel-launch gate whose shard must re-execute on the survivors.
fault-matrix: build
	$(DUNE) exec --no-build bin/openarc.exe -- \
	  fault-matrix --benches jacobi,ep,srad --seed 42 --devices 2,4

# Wall-clock smoke.  Every row is timed in interleaved rounds (each side
# once per round, after a full major collection) and reads the median of
# its per-round ratios.  A run and a symbolic kernel verification of a
# 3-benchmark subset, tree vs compiled (3 rounds each): the compiled
# engine must be at least twice as fast on both suite medians, so
# verification losing its compiled sequential regions fails CI.  A plain
# run of 100 copies of a three-block program (400 kernels, 13 rounds):
# the compiled engine must be no slower, so costly per-kernel work on
# every run fails CI.  Instrumentation and lint on 100 vs 17 copies of
# that program (13 rounds): neither may grow more than 7.3x for the 5.9x
# larger program, so check placement or the transfer lint turning
# quadratic again fails CI.  The sequential reference run of one loop
# under 16 vs 1 enclosing scopes (13 rounds): it may grow at most 1.3x,
# so a name lookup whose cost grows with scope depth fails CI.
# wall-report.json carries the measurements (the full sweep is
# `bench/main.exe wall`, which regenerates BENCH_wall.json).
wall-smoke: build
	$(DUNE) exec --no-build bench/main.exe -- \
	  wall --benches jacobi,ep,srad --repeats 3 --min-speedup 2.0 \
	  --json wall-report.json

# Benchmark oracle smoke: one short pass of each perfbench workload, whose
# independent oracles (saturate results re-run outside the search, the
# measurement reproducing the final simulated time, ledger conservation,
# Table II's 4 active / 0 latent detections) must all hold, printing
# "correct": true.  The benchmark alone still calls the labelled
# Interp.run, so this is also where its ~coherence agreement guard runs.
# It builds perfbench from scratch, so it stays out of `make check`.
perf-smoke: build
	@for w in debug-suite saturate-suite compile-large; do \
	  line=$$(bash perfbench/run.sh --workload "$$w" \
	    --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	  echo "$$w: $$line"; \
	  case "$$line" in \
	    *'"correct": true'*) ;; \
	    *) echo "perfbench $$w: an oracle failed"; exit 1 ;; \
	  esac; \
	done

# Every byte golden: regenerate each BENCH_<tier>.json (paper, profile,
# faults, symeq, scale, imbalance, memtrace, saturate) in memory, run its gate,
# and require it to match the committed file byte for byte; a mismatch
# prints the first differing line of both versions.  BENCH_wall.json
# holds real wall-clock times, so it is not a byte golden.
goldens: build
	$(DUNE) exec --no-build bench/main.exe check

check: build test lint fault-matrix wall-smoke goldens

bench: build
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
