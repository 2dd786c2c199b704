.PHONY: all build test test-faults fmt fmt-check check perf perf-quick \
	profile-smoke predict-smoke chip-smoke synth-smoke partition-smoke \
	stencil-smoke serve-smoke serve-soak env-lint clean

all: build

build:
	dune build @all

test:
	dune runtest

# Just the fault-containment suite (static deadlock verifier, watchdog,
# fault injection, poisoned sweeps). Included in `dune runtest`; this
# target isolates it for quick iteration.
test-faults:
	dune exec test/test_main.exe -- test faults

# dune formats its own files natively (ocamlformat is not a dependency);
# `make fmt` promotes, `make fmt-check` fails on drift.
fmt:
	dune fmt

fmt-check:
	dune build @fmt

# The full local gate: everything builds, formatting is clean, the
# compiler reads no environment globals, tests pass,
# the quick perf snapshot still runs end to end on two domains, the
# profiler's CLI surface emits conserving buckets and trace JSON that parses,
# the analytic performance model stays sound (floor <= simulator), and
# the multi-SM chip layer is deterministic and schema-clean, the
# shuffle-exchange rewrite stays bit-exact and profitable, the partition
# searcher rediscovers-or-beats the hand mapping under its deadlock gate,
# the stencil pipelines stay bit-exact against their host oracle in both
# tiling modes, and the serve loop answers a hostile request mix with
# typed responses.
check: build fmt-check env-lint test perf-quick profile-smoke predict-smoke chip-smoke \
	synth-smoke partition-smoke stencil-smoke serve-smoke

# No environment globals below the front ends: configuration reaches the
# compiler as explicit arguments. The only environment reads allowed in
# lib/ are the domain budget (SINGE_JOBS, lib/util/domain_pool.ml) and the
# figures' fast mode (SINGE_FAST, lib/experiments/figures.ml).
env-lint:
	@hits=$$(grep -rnE --include='*.ml' '(Sys|Unix)\.getenv' lib \
		| grep -v -e '^lib/util/domain_pool\.ml:' \
			-e '^lib/experiments/figures\.ml:'); \
	if [ -n "$$hits" ]; then \
		echo "env-lint: environment read outside the allowed modules:"; \
		echo "$$hits"; exit 1; \
	fi; \
	echo "env-lint ok"

# Machine-readable performance snapshot (see bench/main.ml).
perf:
	dune exec bench/main.exe -- perf

# Smoke run of the perf snapshot at a fixed two-domain fan-out (results are
# identical at any --jobs value). It measures the same configs and sizes as
# `make perf`; only the domain count differs.
perf-quick:
	dune exec bench/main.exe -- perf --jobs 2

# Profiler smoke: run `singe profile` on one kernel with --check, which
# verifies bucket conservation, that the Chrome trace parses as JSON, and
# timestamp monotonicity in-process (exit 1 on any failure).
profile-smoke:
	dune exec bin/singe_cli.exe -- profile --mech dme --kernel viscosity \
		--points 1248 --chrome-trace /tmp/singe-profile-smoke.json --check

# Performance-model smoke: `singe predict --check` predicts every kernel x
# version, simulates each, and exits 1 if the model drifts past its
# accuracy gate or the simulator ever beats the provable floor.
predict-smoke:
	dune exec bin/singe_cli.exe -- predict --mech hydrogen --check

# Chip-layer smoke: a 4-SM DME viscosity launch must be byte-identical
# whether simulated serially or on concurrent domains, dispatch every
# CTA, and emit a perf-v10 "chip" JSON object that parses back (exit 1 on
# any failure).
chip-smoke:
	dune exec bench/main.exe -- chip-smoke

# Exchange-rewrite smoke: DME diffusion with the shuffle-exchange
# superoptimizer on vs off must produce bit-identical outputs, remove
# round trips without costing cycles, and emit a perf-v10 "exchange" JSON
# object that parses back (exit 1 on any failure).
synth-smoke:
	dune exec bench/main.exe -- synth-smoke

# Partition-search smoke: the three-phase searcher (propose, model-rank,
# deadlock-gate, simulate-confirm) on hydrogen viscosity must rediscover
# or beat the hand partition in under ~30 s, with every winner passing
# the safety gate and a perf-v10 "partition" JSON object that parses back
# (exit 1 on any failure).
partition-smoke:
	dune exec bench/main.exe -- partition-smoke

# Stencil smoke: both bundled stencil pipelines, warp-specialized on both
# architectures, must match the host reference bit-for-bit, agree across
# the two tiling modes on the commonly-simulated prefix, keep the model
# floor sound, and emit a perf-v10 stencil JSON object that parses back
# (exit 1 on any failure).
stencil-smoke:
	dune exec bench/main.exe -- stencil-smoke

# Serve smoke: drive the real `singe serve` binary over one session of
# mixed requests — every request family, every error class, an idempotent
# replay, a degraded deadline overrun, and a backpressure burst — and
# check that every response line parses and carries the expected status
# (exit 1 on any failure).
serve-smoke: build
	dune exec bench/main.exe -- serve-smoke

# Serve soak: hundreds of mixed requests (valid work, malformed lines,
# injected deadlocks and silent corruption, deadline busters, replays)
# against one warm serve process. On demand, not part of `make check`.
serve-soak: build
	dune exec bench/main.exe -- serve-soak

clean:
	dune clean
