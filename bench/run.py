#!/usr/bin/env python3
"""The linegeo benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``bench/workloads.py`` against the package under
``src/`` exactly as the tier-1 tests import it (``PYTHONPATH=src``,
default backend selection), checks every operation's output against a
reference computed here, prints a human-readable report and, as the last
line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with tracing off.  ``--trace 1`` runs every operation twice, once
untraced and once under the tracer, and reports the per-layer metrics of
BENCHMARK.json and the tracing overhead.
Layer times, counts and bytes are per operation, except that on the
in-process workloads the ``import.*`` metrics describe one cold set-up.

Set-up (``setup_s``) is the median of several fresh interpreters that
each import ``linegeo.cli`` and, for the in-process workloads, run one
warm-up operation, so work moved into import or first calls shows there.

The cores this runs on are shared, and their speed drifts by tens of
percent within seconds.  On the in-process workloads every reported time
is therefore scaled to a reference speed by a fixed mix of interpreter,
numpy, formatting and memory work timed just before and just after each
measurement (``speed_scale``); the report prints the unscaled figure
next to each scaled one.  Set-up and ``cli_cold`` cost mostly
interpreter start and imports in a child process, which that mix does
not track; their times are scaled instead by a reference child that only
imports numpy, timed just before and just after each measurement
(``import_scale``).  Results, per-operation times and spans are also
written to ``bench/out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
CHILD_TIMEOUT = 120

#: time of ``speed_scale``'s mix on an uncontended core of a 2 GHz,
#: 2-vCPU virtual machine; reported times are scaled to this speed
REFERENCE_MIX_S = 0.024
_ROTATION = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
_FLOATS = [i * 0.37 / 7 for i in range(6000)]
_BIG = [math.sin(i) for i in range(300_000)]


def _speed_mix():
    """About 6 ms each of complex arithmetic in the interpreter, numpy
    calls on 3-vectors, float formatting into CSV-like text and a pass
    over a list of a few MB: the kinds of work the operations do."""
    x = 0.5 + 0.5j
    for _ in range(60_000):
        x = x * (0.6 + 0.8j) + 0.1
    v = np.array([1.0, 2.0, 3.0])
    for _ in range(1500):
        v = _ROTATION @ v + 0.001
        np.linalg.norm(v)
    "\n".join(",".join(format(x, ".17g") for x in _FLOATS[i:i + 9])
              for i in range(0, len(_FLOATS), 9))
    total = 0.0
    for x in _BIG[::3]:
        total += x * x


def speed_scale():
    """Factors that convert a wall time and a CPU time measured now to
    the reference speed.  On shared cores a fixed mix of work slows down
    with the program when neighbours contend, so the ratio of the two is
    what the program itself costs.  Each part of the mix alone followed
    the operations' drift only in part (a pure-Python loop alone left
    window-to-window spreads of 6-12% on check_suite and geodesic_export
    operations on a shared 2-vCPU VM; the four parts together left 2%).
    The mix runs in this process, as the in-process operations do, and
    one factor serves both."""
    start = time.perf_counter()
    _speed_mix()
    factor = REFERENCE_MIX_S / (time.perf_counter() - start)
    return factor, factor


#: wall and CPU time of ``python -c "import numpy"`` on the same machine
#: when its cores are uncontended; cold-start times are scaled to them
REFERENCE_IMPORT_S = 0.2
REFERENCE_IMPORT_CPU_S = 0.3


def import_scale():
    """Like ``speed_scale``, for cold-start work in a child process.  The
    mix of ``speed_scale`` does not follow how fast a fresh interpreter
    starts and imports, but a child importing numpy does: over 15-second
    windows on a shared 2-vCPU VM the median CLI call moved between 0.81
    and 1.21 s, an in-process loop's median did not follow it, and the
    ratio of the CLI call to this reference stayed within 8% of 5.1.  Contention
    stretches wall time more than CPU time, so CPU times get the factor
    of the reference's own CPU time."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return REFERENCE_IMPORT_S / wall, REFERENCE_IMPORT_CPU_S / cpu


def child_env():
    env = dict(os.environ)
    env.pop("LINEGEO_BACKEND", None)
    env.pop("GEODESIC_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd):
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def cold_start(argv, tmp, trace):
    """One fresh interpreter: import linegeo.cli, then run ``argv`` (if
    any) in-process.  Returns the child's record plus wall time and the
    captured streams."""
    record_path = Path(tmp) / "cold.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(BENCH / "cold.py"), str(record_path), "1" if trace and argv else "0", *argv]
    start = time.monotonic()
    proc = run_child(cmd)
    end = time.monotonic()
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record.update(start=start, end=end, stdout=proc.stdout, stderr=proc.stderr,
                  rc=record.get("rc", proc.returncode))
    return record


def set_up(work, trace):
    """Median cold set-up time over SETUP_REPEATS fresh interpreters
    (scaled and wall), the backend they selected and, when traced, their
    import breakdown."""
    warmup = work.warmup_op().argv if work.in_process else []
    scaled, walls, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        before = import_scale()[0]
        rec = cold_start(warmup, work.tmp, False)
        if rec["rc"] != 0 or "backend" not in rec:
            raise RuntimeError(f"set-up child failed ({rec['rc']}): {rec['stderr'][-2000:]}")
        walls.append(rec["end"] - rec["start"])
        scaled.append(walls[-1] * (before + import_scale()[0]) / 2)
        if trace:
            imports.append(import_breakdown(cold_start([], work.tmp, True)))
    breakdown = {k: statistics.median(d[k] for d in imports) for k in imports[0]} if imports else {}
    return statistics.median(scaled), statistics.median(walls), rec["backend"], breakdown


def import_breakdown(rec):
    """interpreter start, numpy, scipy and linegeo's own import seconds."""
    times = tracing.parse_importtime(rec["stderr"])
    total = rec["t_imported"] - rec["t_start"]
    return {
        "import.interpreter_s": rec["t_start"] - rec["start"],
        "import.numpy_s": times["numpy"],
        "import.scipy_s": times["scipy"],
        "import.linegeo_s": total - times["numpy"] - times["scipy"],
    }


# -- running one operation ---------------------------------------------------


class InProcess:
    """Calls ``linegeo.cli.main`` in this process (import done in set-up)."""

    speed_scale = staticmethod(speed_scale)

    def __init__(self):
        sys.path.insert(0, str(SRC))
        for name in ("LINEGEO_BACKEND", "GEODESIC_LOG"):
            os.environ.pop(name, None)
        import linegeo.cli

        self.cli = linegeo.cli

    def _main(self, argv):
        try:
            return self.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage error
            return exc.code if isinstance(exc.code, int) else 1

    def run(self, op, tracer=None):
        if tracer is not None:
            span = tracer.begin("op")
        start, cpu = time.perf_counter(), time.process_time()
        rc = self._main(op.argv)
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        if tracer is not None:
            tracer.end(span)
        return rc, "", seconds, cpu

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdCli:
    """Runs ``python -m linegeo.cli ARGV`` as a fresh process per call."""

    speed_scale = staticmethod(import_scale)

    def __init__(self, tmp):
        self.tmp = tmp

    def run(self, op, tracer=None):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        if tracer is None:
            start = time.perf_counter()
            proc = run_child([sys.executable, "-m", "linegeo.cli", *op.argv])
            seconds = time.perf_counter() - start
            rc, stdout = proc.returncode, proc.stdout
        else:
            rec = cold_start(op.argv, self.tmp, True)
            seconds, rc, stdout = rec["end"] - rec["start"], rec["rc"], rec["stdout"]
            self._adopt(tracer, rec)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return rc, stdout, seconds, cpu

    @staticmethod
    def _adopt(tracer, rec):
        """File the child's spans under one op span, with interpreter
        start and import spans in front of them."""
        op = tracer.add("op", rec["start"], rec["end"], None)
        if "t_start" not in rec:
            return
        tracer.add("import.interpreter", rec["start"], rec["t_start"], op)
        imp = tracer.add("import.linegeo", rec["t_start"], rec["t_imported"], op)
        times = tracing.parse_importtime(rec["stderr"])
        at = rec["t_start"]
        for pkg in ("numpy", "scipy"):  # importtime gives durations only
            end = min(at + times[pkg], rec["t_imported"])
            tracer.add(f"import.{pkg}", at, end, imp)
            at = end
        offset = len(tracer.spans)
        for name, start, end, parent, _ in rec.get("spans", ()):
            tracer.add(name, start, end, op if parent is None else parent + offset)
        for name, value in rec.get("counters", {}).items():
            tracer.count(name, value)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- measurement loop ---------------------------------------------------------


class Tally:
    """Per-operation results of one phase."""

    def __init__(self):
        self.seconds, self.cpu, self.steps, self.kinds = [], [], [], []
        self.scale, self.cpu_scale = [], []  # speed factors for wall and CPU time
        self.failed = self.known_defects = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.seconds)

    def merge(self, other):
        self.seconds += other.seconds
        self.cpu += other.cpu
        self.scale += other.scale
        self.cpu_scale += other.cpu_scale
        self.steps += other.steps
        self.kinds += other.kinds
        self.failed += other.failed
        self.known_defects += other.known_defects
        self.errors += other.errors


def execute(runner, op, tally, tracer=None):
    for path in op.files.values():
        Path(path).unlink(missing_ok=True)
    before = runner.speed_scale()
    rc, stdout, seconds, cpu = runner.run(op, tracer)
    after = runner.speed_scale()
    tally.scale.append((before[0] + after[0]) / 2)
    tally.cpu_scale.append((before[1] + after[1]) / 2)
    tally.seconds.append(seconds)
    tally.kinds.append(op.kind)
    tally.cpu.append(cpu)
    try:
        tally.steps.append(workloads.check(op, rc, stdout))
    except workloads.KnownDefect:
        tally.steps.append(0)
        tally.failed += 1
        tally.known_defects += 1
    except (workloads.Mismatch, ValueError, KeyError, OSError) as exc:
        tally.steps.append(0)
        tally.failed += 1
        tally.errors.append(f"{op.kind} {' '.join(op.argv)}: {exc!r}")


def run_cycles(work, seconds, run_op):
    """Call ``run_op`` on every operation of whole cycles until
    ``seconds`` have passed; returns the number of operations."""
    n = 0
    start = time.monotonic()
    while True:
        for op in work.next_cycle():
            run_op(n, op)
            n += 1
        if time.monotonic() - start >= seconds:
            return n


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(seconds, cpu, setup_s, peak_rss_mb):
    value, pct = tail(seconds)
    metrics = {
        "setup_s": setup_s,
        "call_s.p50": statistics.median(seconds),
        "call_s.tail": value,
        "ops_per_s": len(seconds) / sum(seconds),
        "cpu_s_per_op": sum(cpu) / len(cpu),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, pct


def per_layer(tracer, n_ops, untraced_s, imports, scale):
    """Per-operation layer metrics; times are scaled by the run's median
    speed factor ``scale`` (rates divided by it)."""
    spans = tracer.spans
    own = tracing.self_times(spans)
    incl, self_s, calls = {}, {}, {}
    for span, mine in zip(spans, own):
        name = span[0]
        incl[name] = incl.get(name, 0.0) + span[2] - span[1]
        self_s[name] = self_s.get(name, 0.0) + mine
        calls[name] = calls.get(name, 0) + 1
    c = tracer.counters

    def per_op(name):
        return incl.get(name, 0.0) / n_ops

    metrics = {
        "cli.main_s": per_op("cli.main"),
        "cli.self_s": self_s.get("cli.main", 0.0) / n_ops,
        "kernels.geod_integrate_s": per_op("kernels.geod_integrate"),
        "kernels.calls": calls.get("kernels.geod_integrate", 0) / n_ops,
        "kernels.steps_per_s": c.get("kernels.steps", 0) / incl.get("kernels.geod_integrate", 1.0),
        "geodesics.integrate_s": per_op("geodesics.integrate"),
        "geodesics.integrate_self_s": self_s.get("geodesics.integrate", 0.0) / n_ops,
        "geodesics.steps": c.get("geodesics.steps", 0) / n_ops,
        "geodesics.radial_equator_ratio":
            c.get("geodesics.radial_equator", 0) / max(c.get("geodesics.radial_runs", 0), 1),
        "geodesics.write_csv_s": per_op("geodesics.write_csv"),
        "geodesics.csv_bytes": c.get("geodesics.csv_bytes", 0) / n_ops,
        "geodesics.csv_rows_per_s":
            c.get("geodesics.csv_rows", 0) / incl.get("geodesics.write_csv", 1.0),
        "checks.run_checks_s": per_op("checks.run_checks"),
        "checks.self_s": self_s.get("checks.run_checks", 0.0) / n_ops,
        "op.self_s": self_s.get("op", 0.0) / n_ops,
        "trace.op_s": per_op("op"),
        "trace.overhead_ratio": incl.get("op", 0.0) / untraced_s,
    }
    for name in ("analysis.radial_quadrature", "analysis.appell_f1_series",
                 "analysis.blowup_time", "analysis.turning_points", "sections.normalize",
                 "line_space.push_forward", "line_space.metric", "line_space.symplectic_form"):
        metrics[name + "_s"] = per_op(name)
        metrics[name + ".calls"] = calls.get(name, 0) / n_ops
    if "import.linegeo" in incl:  # cli_cold: every operation imports
        metrics.update({
            "import.interpreter_s": per_op("import.interpreter"),
            "import.numpy_s": per_op("import.numpy"),
            "import.scipy_s": per_op("import.scipy"),
            "import.linegeo_s": self_s["import.linegeo"] / n_ops,
        })
    else:
        metrics.update(imports)
    for name in metrics:
        if name.endswith("_per_s"):
            metrics[name] /= scale
        elif name.endswith("_s"):
            metrics[name] *= scale
    breakdown = {name: s * scale / n_ops for name, s in self_s.items()}
    return metrics, breakdown


# -- reporting -----------------------------------------------------------------


def metadata_record(seed, backend, loadavg):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "seed": seed,
    }


def emit(spec, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def report(args, meta, tally, section, metrics, notes, breakdown):
    print(f"linegeo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"{'tracing off' if not args.trace else 'untraced + traced'}: {tally.attempted} ops, "
          f"failed_fraction {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} failed of {tally.attempted} attempted; "
          f"{tally.known_defects} of them known defects)")
    print(f"times scaled to the reference speed (x{meta['speed_scale']:.3f} this run)")
    for m in section:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:36s} {metrics[m['name']]:14.6g} {m['unit']:6s} {note}")
    if breakdown:
        total = sum(breakdown.values())
        print(f"self time per op (sums to {total:.6g} s; traced op time "
              f"{metrics['trace.op_s']:.6g} s):")
        for name, s in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {s:14.6g} s {100.0 * s / total:6.1f}%")
    for err in tally.errors[:10]:
        print("FAILED: " + err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole cycles until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linegeo" / "__init__.py").is_file():
        sys.exit(f"bench: no linegeo package under {SRC}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = measure(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


def measure(args, spec, tmp):
    loadavg = os.getloadavg()
    work = workloads.Workload(args.workload, args.seed, tmp)
    setup_s, setup_wall_s, backend, imports = set_up(work, bool(args.trace))
    runner = InProcess() if work.in_process else ColdCli(tmp)
    if work.in_process:
        execute(runner, work.warmup_op(), Tally())  # not counted
    meta = metadata_record(args.seed, backend, loadavg)

    tally = Tally()
    if not args.trace:
        run_cycles(work, args.seconds, lambda n, op: execute(runner, op, tally))
        rss = runner.peak_rss_mb()
        metrics, pct = end_to_end([s * k for s, k in zip(tally.seconds, tally.scale)],
                                  [c * k for c, k in zip(tally.cpu, tally.cpu_scale)], setup_s, rss)
        wall, _ = end_to_end(tally.seconds, tally.cpu, setup_wall_s, rss)
        notes = {name: f"unscaled {wall[name]:.6g}" for name in wall if name != "peak_rss_mb"}
        notes["setup_s"] += f", median of {SETUP_REPEATS}"
        notes["call_s.tail"] += f", p{pct:.1f} of N={tally.attempted}"
        steps = sum(tally.steps)
        if steps:  # not a BENCHMARK.json metric: check_suite exports no steps
            notes["ops_per_s"] += (f"; steps_per_s {steps / sum(tally.seconds):.6g}"
                                   f" unscaled, {steps} steps exported")
        section, breakdown, spans = spec["end_to_end"], {}, None
    else:
        # every operation runs untraced and traced, in alternating order,
        # so that the overhead ratio compares like with like
        tracer, untraced = tracing.Tracer(), Tally()

        def traced(n, op):
            tracer.op = n
            if work.in_process:
                tracer.install()
            try:
                execute(runner, op, tally, tracer)
            finally:
                tracer.uninstall()

        def both(n, op):
            if n % 2:
                traced(n, op)
            execute(runner, op, untraced)
            if not n % 2:
                traced(n, op)

        n_ops = run_cycles(work, args.seconds, both)
        metrics, breakdown = per_layer(tracer, n_ops, sum(untraced.seconds), imports,
                                       statistics.median(tally.scale))
        notes, section, spans = {}, spec["per_layer"], tracer.spans
        tally.merge(untraced)
    meta["speed_scale"] = statistics.median(tally.scale)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": metrics, "notes": notes, "self_s_per_op": breakdown,
              "attempted": tally.attempted, "failed": tally.failed,
              "known_defects": tally.known_defects, "errors": tally.errors,
              "ops": list(zip(tally.kinds, tally.seconds, tally.cpu, tally.scale, tally.cpu_scale))}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    report(args, meta, tally, section, metrics, notes, breakdown)
    correct = tally.failed == tally.known_defects
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": emit(section, metrics)}


if __name__ == "__main__":
    main()
