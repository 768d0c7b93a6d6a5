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

# Fast end-to-end check for CI: full build + unit/property suites, then a
# small traced bench run whose JSON export must parse and satisfy the
# occupancy invariant (trace_lint exits non-zero otherwise), then a short
# chaos run — the seeded fault matrix with the Core_state audit, the
# hung-vCPU watchdog oracle and trace_lint as pass/fail gates — then the
# overload storm, whose export additionally exercises trace_lint's ladder
# checks (transition sequence, one rung at a time, minimum dwell), then
# the multitenant grid, whose export exercises trace_lint's per-tenant
# lane checks (registered — possibly sparse — ids, non-negative rows,
# per-tenant sums equal to the globals), then the churn grid, whose
# export exercises the frozen-lane rule (no overload transitions after a
# tenant's retirement marker), then the fleet grid restricted to the
# 8-NIC failover-on cells, whose per-NIC exports exercise trace_lint's
# fleet checks (".nic<NN>" labels, recv-side cross-NIC causality,
# non-negative fleet.* counters).
smoke: test
	BENCH_ONLY=fig12 BENCH_SCALE=0.05 BENCH_JOBS=$(JOBS) \
		BENCH_TRACE_JSON=_build/smoke-trace.json \
		dune exec bench/main.exe
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

# Engine throughput trajectory: run the bench's engine sections (the
# fig17-shaped hot-path replay against the seed binary-heap engine, the
# full-work string-vs-handle hot path, the counter and packet-arena
# microbenches, plus per-fig17-cell events/sec) and write the
# schema-versioned, seed-stamped BENCH_ENGINE.json, then validate its
# shape with bench_lint and hold it to the committed perf floors
# (BENCH_FLOORS.json: minimum events/sec and speedups, zero allocation
# per op on the handle/arena paths). Event counts and allocation rates
# are deterministic for a given seed; only wall-clock fields vary run to
# run. CI uploads the file as an artifact so the speedup is a tracked
# trajectory rather than a number in a commit message.
bench-json: build
	BENCH_ONLY=none BENCH_SCALE=0.05 BENCH_SEED=$(SEED) \
		BENCH_ENGINE_JSON=_build/BENCH_ENGINE.json \
		dune exec bench/main.exe
	dune exec bin/bench_lint.exe -- _build/BENCH_ENGINE.json BENCH_FLOORS.json

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
