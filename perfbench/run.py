#!/usr/bin/env python3
"""Benchmark entry point: build the worker, run one workload, print metrics.

    python3 perfbench/run.py --workload search|simulate|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The worker (perfbench/bench.ml) is built
from source with dune, its set-up is timed in several fresh processes,
and one measured run produces the metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; the traced run also writes a Chrome
trace-event file to .perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
SETUP_RUNS = 10  # extra fresh-process set-ups; the measured run adds one
DEADLINE_S = 170  # every run must end within 180 s after the first build

# Environment variables that silently change the measured program.
DOCTORED = ("SINGE_NO_SCHED", "SINGE_FAST", "SINGE_JOBS")

# Per-layer figures that only one workload produces; the others report 0.
WORKLOAD_ONLY = {
    "search.winner_cycles_geomean": "search",
    "sim.kernel_points_per_s_geomean": "simulate",
    "sim.instrs_per_host_s": "simulate",
    "serve.degraded": "serve",
    "serve.wall_overruns": "serve",
    "serve.id_cache_hits": "serve",
    "serve.json_check_failures": "serve",
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def refuse_doctored_environment():
    bad = sorted(k for k in os.environ if k in DOCTORED or k.startswith("SINGE_MODEL_"))
    if bad:
        die(
            "refusing to run: %s set. These variables change what the program "
            "computes (model calibration, scheduling, sweep size, domain count), "
            "so the figures would not measure the program as shipped; the "
            "benchmark sets the domain count itself. Unset them and retry."
            % ", ".join(bad)
        )


def build(deadline):
    for needed in ("dune-project", "BENCHMARK.json", os.path.join("lib", "singe", "compile.ml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("%s not found under %s: run from a checkout of the repository" % (needed, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=deadline,
    )
    if proc.returncode != 0:
        die("build failed", 1)


def worker(args, deadline_at):
    proc = subprocess.run(
        [WORKER] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
        text=True, timeout=max(1.0, deadline_at - time.monotonic()),
    )
    if proc.returncode != 0:
        die("worker %s exited with %d" % (" ".join(args), proc.returncode), 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["search", "simulate", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    refuse_doctored_environment()
    started = time.monotonic()
    build(900)
    # A run ends within 180 s; only a build from scratch may take longer.
    deadline_at = max(started + DEADLINE_S, time.monotonic() + DEADLINE_S - 10)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    base = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = [worker(base + ["--seconds", "0", "--setup-only"], deadline_at)["setup_s"] for _ in range(SETUP_RUNS)]
    run = base + ["--seconds", str(a.seconds)]
    trace_file = None
    if a.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        trace_file = os.path.join(ROOT, ".perfbench", "trace-%s-%d.json" % (a.workload, a.seed))
        run += ["--trace", trace_file]
    r = worker(run, deadline_at)
    setups.append(r["setup_s"])

    attempted, failed = int(r["attempted"]), int(r["failed"])
    for msg in r["failures"]:
        print("check failed: " + msg, file=sys.stderr)
    detail = dict(r["detail"])
    detail["failed_ratio"] = failed / attempted
    # Lines before the result: the results digest (identical for a seed at
    # any domain count and across runs) and the workload figures.
    print("results_digest %s seed=%d %s" % (a.workload, a.seed, r["digest"]))
    print("detail " + json.dumps(detail, sort_keys=True))

    if a.trace:
        layers = dict(r["layers"], **detail)
        values = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in layers:
                values[name] = layers[name]
            elif WORKLOAD_ONLY.get(name, a.workload) != a.workload:
                values[name] = 0.0
            else:
                die("worker reported no per-layer figure %s" % name, 1)
        print("trace written to " + os.path.relpath(trace_file, ROOT), file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": r["rss_mb"],
            "round_s": r["round_s"],
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not a.trace else "per_layer"]}
    if set(values) != set(units):
        die("metrics %s do not match BENCHMARK.json" % sorted(set(values) ^ set(units)), 1)
    print(json.dumps({
        "correct": failed == 0 and not r["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except subprocess.TimeoutExpired as e:
        die("timed out: %s" % " ".join(map(str, e.cmd)), 1)
