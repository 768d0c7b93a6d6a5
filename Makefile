.PHONY: all build test smoke sweep-check golden golden-update bench-json profile ci clean

# Cell-level parallelism for the experiment sweeps below. Output and
# trace exports are byte-identical at any value (see DESIGN.md §11), so
# JOBS only changes wall-clock: `make smoke JOBS=4`.
JOBS ?= 1

# Root seed for `make bench-json`; event counts in BENCH_ENGINE.json are
# a pure function of it.
SEED ?= 42

all: build

build:
	dune build

test: build
	dune runtest

# Fast end-to-end check for CI: full build + unit/property suites, then
# short traced runs whose JSON exports must lint clean (trace_lint exits
# non-zero otherwise): fig12, for the occupancy invariant; the seeded
# chaos fault matrix, with the Core_state audit and the hung-vCPU
# watchdog oracle; the overload storm, for the ladder checks (transition
# sequence, one rung at a time, minimum dwell); the multitenant grid, for
# the per-tenant lane checks (registered — possibly sparse — ids,
# non-negative rows, per-tenant sums equal to the globals); the churn
# grid, for the frozen-lane rule (no overload transitions after a
# tenant's retirement marker); and the fleet grid restricted to the
# 8-NIC failover-on cells, for the fleet checks (".nic<NN>" labels,
# recv-side cross-NIC causality, non-negative fleet.* counters).
smoke: test
	dune exec bin/taichi_sim.exe -- fig12 --seed 42 --scale 0.05 \
		--jobs $(JOBS) --trace-json _build/smoke-trace.json
	dune exec bin/trace_lint.exe -- _build/smoke-trace.json
	dune exec bin/taichi_sim.exe -- chaos --seed 42 --scale 0.1 \
		--jobs $(JOBS) --trace-json _build/chaos-trace.json
	dune exec bin/trace_lint.exe -- _build/chaos-trace.json
	dune exec bin/taichi_sim.exe -- overload --seed 42 --scale 0.25 \
		--jobs $(JOBS) --trace-json _build/overload-trace.json
	dune exec bin/trace_lint.exe -- _build/overload-trace.json
	dune exec bin/taichi_sim.exe -- multitenant --seed 42 --scale 0.25 \
		--jobs $(JOBS) --trace-json _build/multitenant-trace.json
	dune exec bin/trace_lint.exe -- _build/multitenant-trace.json
	dune exec bin/taichi_sim.exe -- churn --seed 42 --scale 0.25 \
		--jobs $(JOBS) --churn-profile steady \
		--trace-json _build/churn-trace.json
	dune exec bin/trace_lint.exe -- _build/churn-trace.json
	dune exec bin/taichi_sim.exe -- fleet --seed 42 --scale 0.25 \
		--jobs $(JOBS) --nics 8 --failover on \
		--trace-json _build/fleet-trace.json
	dune exec bin/trace_lint.exe -- _build/fleet-trace.json

# The sweep determinism contract, end to end through the real CLI: the
# same experiment at --jobs 1 and --jobs 4 must produce byte-identical
# stdout (modulo the export path echoed in the final line) and
# byte-identical taichi-trace-v1 JSON, which must also lint clean.
sweep-check: build
	mkdir -p _build/sweep
	dune exec bin/taichi_sim.exe -- fig17 --seed 42 --jobs 1 \
		--trace-json _build/sweep/j1.json > _build/sweep/j1.out
	dune exec bin/taichi_sim.exe -- fig17 --seed 42 --jobs 4 \
		--trace-json _build/sweep/j4.json > _build/sweep/j4.out
	cmp _build/sweep/j1.json _build/sweep/j4.json
	sed 's|_build/sweep/j1.json|TRACE|' _build/sweep/j1.out > _build/sweep/j1.norm
	sed 's|_build/sweep/j4.json|TRACE|' _build/sweep/j4.out > _build/sweep/j4.norm
	cmp _build/sweep/j1.norm _build/sweep/j4.norm
	dune exec bin/trace_lint.exe -- _build/sweep/j4.json

# The golden-digest contract: every experiment at seed 42, scale 0.05,
# --jobs 2 with a trace export; the sha256 of each stdout (export path
# normalised) and of each trace JSON must match the committed
# GOLDEN.sha256. An intentional output change runs `make golden-update`
# and records why in CHANGES.md.
golden: build
	scripts/golden.sh check

golden-update: build
	scripts/golden.sh update

# Engine throughput trajectory: the bench's calendar-vs-seed-heap
# hot-path replay, its full-work string-vs-handle replay and its per-op
# microbench table, written as the seed-stamped BENCH_ENGINE.json (schema
# taichi-bench-engine-v3). The bench checks its four timing floors itself
# (minimum hot-path events/sec and three speedups) and exits non-zero if
# one is missed. Event counts and minor words per op are deterministic
# for a given seed; only wall-clock fields vary run to run. CI uploads the
# file as an artifact so the speedups are a tracked trajectory.
bench-json: build
	BENCH_SEED=$(SEED) BENCH_ENGINE_JSON=_build/BENCH_ENGINE.json \
		dune exec bench/main.exe

# Sampling profile of one experiment: `make profile EXP=table5 SCALE=0.02`
# runs it at jobs=1 under a SIGPROF call-stack sampler and prints the top
# self and inclusive file:line frames, also written to
# _build/profile-$(EXP).txt. Shares are approximate (samples land on
# OCaml poll points); see bin/taichi_prof.ml.
EXP ?= table5
SCALE ?= 1.0

profile: build
	dune exec bin/taichi_prof.exe -- $(EXP) --scale $(SCALE) --seed $(SEED) \
		--out _build/profile-$(EXP).txt

ci: smoke sweep-check golden

clean:
	dune clean
