#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for a single cycle (``--seconds 0``), with tracing
off and on, and checks that each run emits exactly the metrics that
BENCHMARK.json names and fails no operation, that the traced self times
add up to the traced operation time, and that a deliberately wrong
reference value is counted as a failed operation.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_emitted(spec, workloads):
    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert result["failed"] == 0, result  # every timed operation must succeed
            names = [m["name"] for m in spec[section]]
            assert list(result["metrics"]) == names, (workload, trace)
            for m in spec[section]:
                value = result["metrics"][m["name"]]
                assert value["unit"] == m["unit"] and math.isfinite(value["value"]), m
            if section == "end_to_end":
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            else:
                record = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
                total = sum(record["self_s_per_op"].values())
                assert math.isclose(total, record["metrics"]["trace.op_s"], rel_tol=1e-9), record
        print(f"ok: {workload} emits every metric", flush=True)


def check_wrong_reference():
    """A wrong blow-up constant must turn the radial export into a failure."""
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    right = workloads.equator_constant()
    workloads.equator_constant = lambda: right * 1.01
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", "cli_cold", "--seed", str(SEED), "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["failed"] == 1 and result["correct"] is False, result
    print(f"ok: wrong reference counted, failed {result['failed']} of {result['attempted']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_emitted(spec, [w["name"] for w in spec["workloads"]])
    check_wrong_reference()


if __name__ == "__main__":
    main()
