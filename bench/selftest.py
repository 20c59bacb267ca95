"""Self-test of the cubicnorm benchmark.

    python3 bench/selftest.py [--workloads axioms,lifts,orbits,cli]

Checks, from the root of a source checkout:

* determinism: two traced runs with one seed give identical ``*.calls``,
  ``*.search.tried`` and ``scalars.coeff_bits.max`` on every workload, and
  a run with another seed changes the inputs (their fingerprint);
* the result line: exactly the keys ``correct``, ``attempted``, ``failed``
  and ``metrics``, with the metric names and units of ``BENCHMARK.json``;
* loud failure: tracing refuses to start when a function it names is gone.

It also prints the self-time and inclusive-time ranking of the traced runs
against the profile evidence the benchmark was built from; that ranking is
a property of today's code, so it is reported, not asserted.
Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
WORKLOADS = ["axioms", "lifts", "orbits", "cli"]
EXACT = (".calls", ".search.tried", "scalars.coeff_bits.max")


def run(workload: str, seed: int, trace: int, seconds: float = 1) -> tuple[dict, dict]:
    """One benchmark run: its result line and its details file."""
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    details = json.loads((BENCH / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return result, details


def check_line(result: dict, declared: list[dict], label: str, problems: list[str]) -> None:
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")


def check_loud_failure(problems: list[str]) -> None:
    """Removing a traced function must stop tracing with TraceError."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracing
    from cubicnorm.freudenthal import WSpace

    flat = WSpace.__dict__["flat"]
    del WSpace.flat
    try:
        tracing.Tracer().install()
        problems.append("tracing started without freudenthal:WSpace.flat")
    except tracing.TraceError:
        pass
    finally:
        WSpace.flat = flat


def ranking(traced: dict[str, dict]) -> list[tuple[str, bool]]:
    """The profile evidence, restated on the traced runs' shares."""
    shares = {w: d["shares_by_kind"] for w, d in traced.items()}

    def incl(workload, kind, key):
        return shares.get(workload, {}).get(kind, {}).get("incl", {}).get(key, 0.0)

    def top_group(workload, kind):
        groups = {k: v for k, v in shares.get(workload, {}).get(kind, {}).get("incl", {}).items()
                  if "." in k}
        return max(groups, key=groups.get) if groups else None

    out = []
    if "lifts" in shares:
        out.append(("first-law lifts: flat+t_vvx has the largest inclusive share",
                    top_group("lifts", "first") == "freudenthal.flat+t_vvx"))
    if "orbits" in shares:
        out.append(("cube orbits: gl2_act+det6 has the largest inclusive share",
                    top_group("orbits", "cube") == "freudenthal.gl2_act+det6"))
    if {"axioms", "lifts", "orbits"} <= shares.keys():
        for key in ("scalars.conj+trace", "composition.mul_coords"):
            a = incl("axioms", "axioms", key)
            out.append((f"axioms: {key} share above first-law lifts and cube orbits",
                        a > incl("lifts", "first", key) and a > incl("orbits", "cube", key)))
    if "cli" in shares:
        def front(kind_shares):
            return sum(kind_shares["self"].get(k, 0.0) for k in ("presets", "serialize", "cli"))
        cli = front(shares["cli"]["command"])
        others = [front(s) for w, ks in shares.items() if w != "cli" for s in ks.values()]
        out.append(("cli: presets+serialize+cli self share above every other workload",
                    all(cli > o for o in others)))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    traced = {}
    for w in args.workloads.split(","):
        first, d1 = run(w, 0, 1)
        second, _ = run(w, 0, 1)
        _, d3 = run(w, 1, 1)
        check_line(first, spec["per_layer"], f"{w} traced", problems)
        m1, m2 = first["metrics"], second["metrics"]
        diff = [k for k in m1 if k.endswith(EXACT) and m1[k]["value"] != m2[k]["value"]]
        if diff:
            problems.append(f"{w}: counts differ between two runs of seed 0: {diff}")
        if d1["inputs"]["fingerprint"] == d3["inputs"]["fingerprint"]:
            problems.append(f"{w}: seeds 0 and 1 gave the same inputs")
        traced[w] = d1
        print(f"{w}: {len([k for k in m1 if k.endswith(EXACT)])} exact counts repeat; "
              f"trace overhead {m1['trace.overhead_frac']['value']:.2f}", flush=True)
    result, _ = run("axioms", 0, 0, seconds=0.5)
    check_line(result, spec["end_to_end"], "axioms untraced", problems)
    check_loud_failure(problems)
    for claim, holds in ranking(traced):
        print(f"ranking: {claim}: {'holds' if holds else 'does not hold'}")
    for problem in problems:
        print("FAIL: " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
