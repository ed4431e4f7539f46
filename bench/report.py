#!/usr/bin/env python3
"""Run every workload with tracing off and on and print all metrics.

    python3 bench/report.py [--seed N] [--seconds S]

Prints each run's own report (end-to-end metrics with their units and
``failed_fraction`` against its base; per-layer metrics and self-time
breakdown for the traced runs), then one table of the end-to-end metrics
with a column per workload, then the outcome of the operations that fail
today (``workloads.known_defect_ops``), which the timed workloads leave
out because every timed operation must succeed.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def known_defects():
    """Run each known-defect operation once, untimed, and print how many
    of each group still fail their check."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    import linegeo.cli

    groups = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for op in workloads.known_defect_ops(tmp):
            flag = "--tol" if op.kind == "radial" else "--seed"
            label = f"{op.kind} {flag} {op.argv[op.argv.index(flag) + 1]}"
            rc = linegeo.cli.main(op.argv)
            try:
                workloads.check(op, rc, "")
                groups.setdefault(label, []).append(None)
            except workloads.Mismatch as exc:
                groups.setdefault(label, []).append(str(exc))
    print("known defects (untimed, not part of any workload):")
    for label, outcomes in groups.items():
        errors = [e for e in outcomes if e is not None]
        detail = f"  e.g. {errors[-1]}" if errors else ""
        print(f"  {label:22s} {len(errors):3d} of {len(outcomes):3d} fail{detail}")


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=BENCH.parent, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.exit(f"{name} trace={trace} failed:\n{proc.stderr}")
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
            print()

    print(f"{'end-to-end metric':22s}" + "".join(f"{n:>18s}" for n in names))
    for m in spec["end_to_end"]:
        cells = "".join(f"{results[n, 0]['metrics'][m['name']]['value']:18.6g}" for n in names)
        print(f"{m['name'] + ' [' + m['unit'] + ']':22s}{cells}")
    cells = "".join(
        f"{results[n, 0]['failed']:>9d} of {results[n, 0]['attempted']:<5d}" for n in names
    )
    print(f"{'failed of attempted':22s}{cells}")
    print()
    known_defects()


if __name__ == "__main__":
    main()
