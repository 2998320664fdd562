DUNE ?= dune

BENCHES = jacobi spmul ep cg backprop bfs cfd srad hotspot kmeans lud nw

.PHONY: all build test lint fault-matrix wall-smoke goldens check bench clean

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

# Wall-clock smoke: time a run and a symbolic kernel verification of a
# 3-benchmark subset under both execution engines (median of 3) and
# require the compiled engine to be at least twice as fast as the tree
# walker on both suite medians — so verification losing its compiled
# sequential regions fails CI; wall-report.json carries the measurements
# (the full sweep is `bench/main.exe wall`, which regenerates
# BENCH_wall.json).
wall-smoke: build
	$(DUNE) exec --no-build bench/main.exe -- \
	  wall --benches jacobi,ep,srad --repeats 3 --min-speedup 2.0 \
	  --json wall-report.json

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
