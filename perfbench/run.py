#!/usr/bin/env python3
"""Repository benchmark: builds perfbench.exe from source, runs one
workload for a fixed wall time and prints every metric by name with its
unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each iteration runs in a fresh process (so set-up and heap figures start
cold every time) on the same seed-drawn inputs. The run repeats
iterations until the wall time is used and reports medians. Every
iteration must pass the correctness gate, and all iterations, traced or
not, must print the same fingerprint of the simulated results.

setup_s is the median cold set-up time over every untraced iteration
and SETUP_SAMPLES set-up-only processes run after each of them: one
set-up takes milliseconds, so a handful of samples would move with
every scheduling hiccup of the host.

--trace 0 reports the end-to-end metrics from untraced iterations.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics: span metrics from the traced ones, GC and model
counters from the untraced ones, and the tracing overhead between them.

The metric names and units printed in the final JSON object are the ones
BENCHMARK.json lists; a listed metric the program did not measure fails
the run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SCRATCH = os.path.join(ROOT, ".perfbench")
MIN_ITERATIONS = 3
SETUP_SAMPLES = 8
ITERATION_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def child_env():
    env = dict(os.environ)
    # keep every write inside the checkout: no shared dune cache, and
    # the runtime_events ring files of traced iterations go to SCRATCH
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = SCRATCH
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAMLRUNPARAM", None)
    return env


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found next to perfbench/: run from a full checkout" % need)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % proc.returncode)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def iteration(workload, seed, traced, tiny, setup_only=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("iteration timed out: %s" % " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(proc.stderr)
        fail("iteration printed no result (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    if proc.returncode != 0 and result.get("correct", False):
        result["correct"] = False
        result["errors"].append("exit code %d" % proc.returncode)
    return result


def setup_samples(workload, seed, tiny):
    return [iteration(workload, seed, False, tiny, setup_only=True)
            for _ in range(SETUP_SAMPLES)]


def run_iterations(workload, seed, seconds, trace):
    """Fresh-process iterations until the wall time is used (at least
    MIN_ITERATIONS; with tracing, alternating untraced and traced).
    Returns the iterations and the set-up-only samples."""
    results, setups = [], []
    start = time.monotonic()
    durations = []
    while True:
        traced = trace and len(results) % 2 == 1
        t0 = time.monotonic()
        result = iteration(workload, seed, traced, tiny=False)
        results.append(result)
        if not trace:
            setups += setup_samples(workload, seed, tiny=False)
        durations.append(time.monotonic() - t0)
        log("iteration %d%s: %s" % (len(results), " traced" if traced else "",
                                    " ".join("%s=%.6g" % (k, m["value"])
                                             for k, m in result["metrics"].items()
                                             if k in ("wall_s", "setup_s", "decisions_per_s"))))
        elapsed = time.monotonic() - start
        need = MIN_ITERATIONS + (1 if trace else 0)
        if len(results) >= need and elapsed + statistics.median(durations) > seconds:
            return results, setups


def median_metrics(results):
    """name -> (median value, unit) over the iterations that report it."""
    values, units = {}, {}
    for r in results:
        for name, m in r["metrics"].items():
            if m["value"] is None:
                continue
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {n: (statistics.median(v), units[n]) for n, v in values.items()}


def summarize(workload, seed, results, setups, trace, spec):
    errors = []
    for r in results + setups:
        errors += ["%s iteration: %s" % ("traced" if r["traced"] else "untraced", e)
                   for e in r["errors"]]
    prints = sorted({r["fingerprint"] for r in results})
    if len(prints) != 1:
        errors.append("fingerprints differ between iterations: %s" % prints)
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    measured = median_metrics(untraced)
    measured["setup_s"] = (statistics.median(
        r["metrics"]["setup_s"]["value"] for r in untraced + setups), "s")
    if trace:
        u_wall = measured["wall_s"][0]
        measured.update(median_metrics(traced))
        t_wall = measured["wall_s"][0]
        measured["trace.overhead_pct"] = (100.0 * (t_wall - u_wall) / u_wall, "%")
        measured["wall_s"] = (u_wall, "s")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            errors.append("metric %s not measured" % m["name"])
            continue
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s"
                          % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    print("workload %s  seed %d  iterations %d untraced + %d traced, %d set-up samples"
          % (workload, seed, len(untraced), len(traced), len(setups)))
    print("fingerprint %s" % (prints[0] if prints else "-"))
    print("%-34s %d %s" % ("flows", attempted // max(1, len(results)), "count"))
    print("%-34s %d %s" % ("flows_failed", failed // max(1, len(results)), "count"))
    for name in sorted(measured):
        value, unit = measured[name]
        print("%-34s %.6g %s" % (name, value, unit))
    for e in errors:
        print("error: %s" % e)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke(spec):
    """Every workload at a tiny size through the full pipeline; summarize
    fails a run whose metrics miss a BENCHMARK.json name or unit."""
    proc = subprocess.run([EXE, "--smoke"], cwd=ROOT, env=child_env(),
                          timeout=ITERATION_TIMEOUT_S)
    ok = proc.returncode == 0
    for workload in workloads(spec):
        for trace in (False, True):
            results = [iteration(workload, 7, traced, True)
                       for traced in ([False, True] if trace else [False])]
            setups = [] if trace else setup_samples(workload, 7, tiny=True)
            if not summarize(workload, 7, results, setups, trace, spec)["correct"]:
                ok = False
    print("smoke: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at a tiny size, with all checks")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    build()
    spec = load_spec()
    if args.smoke:
        sys.exit(smoke(spec))
    if args.workload not in workloads(spec):
        ap.error("unknown workload %s (BENCHMARK.json lists %s)"
                 % (args.workload, ", ".join(workloads(spec))))
    results, setups = run_iterations(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    summary = summarize(args.workload, args.seed, results, setups,
                        bool(args.trace), spec)
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
