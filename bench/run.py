"""The cubicnorm benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload axioms|lifts|orbits|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in its own single-threaded worker process, a
closed loop with one client.  All timings are CPU time of that process
(``time.process_time``).

``--trace 0`` prints the end-to-end metrics: set-up time (the median over
several fresh processes), items per CPU second, median and 90th-percentile
CPU time per item, peak RSS and the share of items whose checks passed.
``--trace 1`` runs a fixed number of items once untraced and once with every
layer wrapped (see ``tracing.py``) and prints the per-layer metrics, so that
the counts repeat exactly for a given seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (input summary, sample
count, check results, per-item-kind self-time shares) go to
``bench/out/<workload>-s<seed>-t<trace>.json``, spans of a traced run to
``bench/out/<workload>.spans.tsv.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

WORKLOAD_NAMES = ["axioms", "lifts", "orbits", "cli"]
MIN_ITEMS = 100          # so that at least 10 samples lie beyond p90
SETUP_PROBES = 4         # fresh set-up processes, after one bytecode warm-up
WALL_LIMIT_S = 120       # stop the timed loop early on a heavily loaded machine
WORKER_TIMEOUT_S = 170
REF_NOMINAL_NS = 2_000_000   # CPU time of one reference call at nominal speed
REF_SHARE = 0.1              # reference calls take about this share of a run
BLOCK_NS = 2_500_000_000     # items are rescaled by the references of their block
SETUP_REFS = 30              # references around each set-up, half before it

E2E_UNITS = {
    "setup_s": "s",
    "items_per_cpu_s": "items/s",
    "item_cpu_ms.p50": "ms",
    "item_cpu_ms.p90": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".tried")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".max"):
        return "bits"
    return "ratio"


# -- worker side ----------------------------------------------------------------


def reference_ns() -> int:
    """CPU time of a fixed stdlib-only Fraction loop (about 2 ms).

    On a shared machine the CPU time of identical work drifts by a quarter
    over tens of seconds; the ratio of library time to this loop's time,
    interleaved in the same process, stays within a few percent."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.process_time_ns()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        return time.process_time_ns() - t
    finally:
        if enabled:
            gc.enable()


def rescaled(samples_ns, refs) -> list[float]:
    """Item CPU times in ms at the reference's nominal speed.

    The items are cut into consecutive blocks of about BLOCK_NS of CPU time;
    each item is divided by the mean reference time of its block over
    REF_NOMINAL_NS.  refs holds (index of the next item, reference ns)."""
    out: list[float] = []
    start = 0
    while start < len(samples_ns):
        end, cpu = start, 0
        while end < len(samples_ns) and (cpu < BLOCK_NS or end == start):
            cpu += samples_ns[end]
            end += 1
        if len(samples_ns) - end < 3:   # fold a short tail into this block
            end = len(samples_ns)
        block = [ns for i, ns in refs if start <= i < end] or [ns for _, ns in refs]
        speed = sum(block) / len(block) / REF_NOMINAL_NS
        out.extend(ns / 1e6 / speed for ns in samples_ns[start:end])
        start = end
    return out


def _run_item(run):
    """Run one item; any exception is a failed item, reported by name."""
    try:
        ok, outputs = run()
        return ok, outputs, None
    except Exception as exc:  # the loop must go on and count the failure
        return False, None, f"{type(exc).__name__}: {exc}"


def _cli_checks(wl, seed: int) -> dict:
    """Stdout of the README commands, and at the recorded seed of every
    command, must hash to the recorded SHA-256."""
    expected = json.loads(EXPECTED.read_text())["cli"]
    checks = {"readme_stdout_sha256": wl.stdout_digest(True) == expected["readme_sha256"]}
    if seed == expected["seed"]:
        checks["seed_stdout_sha256"] = wl.stdout_digest(False) == expected["seed_sha256"]
    return checks


def worker(args) -> dict:
    around = [reference_ns() for _ in range(SETUP_REFS // 2)]
    t0 = time.process_time()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.process_time() - t0
    around += [reference_ns() for _ in range(SETUP_REFS - SETUP_REFS // 2)]
    setup = {"setup_s": setup_s, "speed": sum(around) / len(around) / REF_NOMINAL_NS}
    if args.role == "setup":
        return setup
    result = {"setup": setup, "inputs": wl.summary(), "errors": [], "failed": 0}

    def note_failure(i, kind, variant, error):
        result["failed"] += 1
        if len(result["errors"]) < 10:
            result["errors"].append(f"item {i} {kind}:{variant}: {error or 'check failed'}")

    if args.role == "measure":
        samples, refs = [], []
        budget = args.seconds * 1e9
        spent = ref_spent = 0
        wall0 = time.perf_counter()
        min_items = max(MIN_ITEMS, wl.min_items)
        i = 0
        while True:
            # interleave the reference so that it samples the same moments
            while ref_spent <= REF_SHARE * spent:
                refs.append((i, reference_ns()))
                ref_spent += refs[-1][1]
            kind, variant, run = wl.item(i)
            t = time.process_time_ns()
            ok, _, error = _run_item(run)
            dt = time.process_time_ns() - t
            samples.append(dt)
            spent += dt
            if not ok:
                note_failure(i, kind, variant, error)
            i += 1
            if (spent >= budget and i >= min_items) or \
                    time.perf_counter() - wall0 > WALL_LIMIT_S:
                break
        result["samples_ns"] = samples
        result["references"] = refs
    else:
        import tracing
        from workloads import coeff_bits

        n = wl.trace_items
        untraced = bits = 0
        for i in range(n):
            kind, variant, run = wl.item(i)
            t = time.process_time_ns()
            ok, outputs, error = _run_item(run)
            untraced += time.process_time_ns() - t
            if not ok:
                note_failure(i, kind, variant, error)
            bits = max(bits, coeff_bits(outputs))
        tracer = tracing.Tracer()
        tracer.install()
        kinds = {}
        traced = 0
        try:
            for i in range(n):
                kind, variant, run = wl.item(i)
                kinds[i] = kind
                tracer.item_id = i
                t = time.process_time_ns()
                span = tracer.open(f"bench:item.{kind}")
                ok, _, error = _run_item(run)
                tracer.close(span)
                traced += time.process_time_ns() - t
                if not ok:
                    note_failure(i, kind, variant, error)
        finally:
            tracer.uninstall()
        analysis = tracer.analyse(kinds)
        metrics = tracer.metrics(analysis)
        metrics["scalars.coeff_bits.max"] = bits
        metrics["trace.overhead_frac"] = traced / untraced - 1
        result["layer_metrics"] = metrics
        result["shares_by_kind"] = tracer.shares(analysis)
        result["trace_items"] = n
        result["spans"] = len(tracer.span_start)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{args.workload}.spans.tsv.gz")
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli":
        result["checks"] = _cli_checks(wl, args.seed)
        result["stdout_sha256"] = {"readme": wl.stdout_digest(True),
                                   "all": wl.stdout_digest(False)}
    return result


# -- driver side ----------------------------------------------------------------


def spawn(args, role: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, details: dict) -> dict:
    """The end-to-end metrics.  CPU times are rescaled to the reference speed
    measured alongside them; the raw figures go to the details file."""
    spawn(args, "setup")  # writes bytecode caches; not counted
    # probes before and after the timed loop, so that the median spans both
    setups = [spawn(args, "setup") for _ in range(SETUP_PROBES // 2)]
    res = spawn(args, "measure")
    setups += [spawn(args, "setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups.append(res["setup"])
    samples_ms = rescaled(res["samples_ns"], res["references"])
    attempted = len(samples_ms)
    details.update(res)
    details["setup_samples"] = setups
    details["sample_count"] = attempted
    details["raw_items_per_cpu_s"] = attempted / (sum(res["samples_ns"]) / 1e9)
    return {
        "setup_s": statistics.median(p["setup_s"] / p["speed"] for p in setups),
        "items_per_cpu_s": attempted / (sum(samples_ms) / 1e3),
        "item_cpu_ms.p50": statistics.median(samples_ms),
        "item_cpu_ms.p90": statistics.quantiles(samples_ms, n=10)[8],
        "peak_rss_mb": res["peak_rss_kib"] / 1024,
        "ok_frac": 1 - res["failed"] / attempted,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--role", choices=["main", "setup", "measure", "trace"], default="main",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.role != "main":
        print(json.dumps(worker(args)))
        return 0
    if not (SRC / "cubicnorm" / "__init__.py").is_file():
        print(f"error: no cubicnorm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "seconds": args.seconds}
    if args.trace:
        details.update(spawn(args, "trace"))
        values = details.pop("layer_metrics")
        attempted = details["trace_items"]
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(args, details)
        attempted = details["sample_count"]
        units = E2E_UNITS
    checks = details.get("checks", {})
    correct = details["failed"] == 0 and all(checks.values())
    details["correct"] = correct
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {attempted} items, "
          f"{details['failed']} failed, checks {checks or 'n/a'}")
    print("inputs: " + json.dumps(details["inputs"], sort_keys=True))
    for err in details["errors"]:
        print("failure: " + err)
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
