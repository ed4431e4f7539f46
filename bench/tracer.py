"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from outside the package: ``Tracer.install`` replaces
public functions of the ``linegeo`` modules with wrappers that open a
span around each call, and ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited.  Every span is a list
``[name, start, end, parent, op]`` with ``time.monotonic()`` timestamps
(comparable across processes on Linux), the index of the enclosing span
(or ``None``) and the id of the benchmark operation it belongs to.
"""

import importlib
import time

#: (module under ``linegeo``, attribute, span name).  Calls between these
#: functions go through module attributes, so patching the attribute
#: also catches calls made inside the package.
LAYERS = (
    ("cli", "main", "cli.main"),
    ("_backend.kernels", "geod_integrate", "kernels.geod_integrate"),
    ("geodesics", "integrate", "geodesics.integrate"),
    ("geodesics", "write_csv", "geodesics.write_csv"),
    ("analysis", "radial_quadrature", "analysis.radial_quadrature"),
    ("analysis", "appell_f1_series", "analysis.appell_f1_series"),
    ("analysis", "blowup_time", "analysis.blowup_time"),
    ("analysis", "turning_points", "analysis.turning_points"),
    ("sections", "normalize", "sections.normalize"),
    ("line_space", "push_forward", "line_space.push_forward"),
    ("line_space", "metric", "line_space.metric"),
    ("line_space", "symplectic_form", "line_space.symplectic_form"),
    ("checks", "run_checks", "checks.run_checks"),
)


def _resolve(dotted):
    obj = importlib.import_module("linegeo." + dotted.split(".")[0])
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder plus per-layer counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []
        self._patched = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index):
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    def add(self, name, start, end, parent):
        """Record a finished span measured elsewhere."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, fn, name):
        on_return = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self):
        for module, attr, name in LAYERS:
            owner = _resolve(module)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _count_kernel(tracer, args, result):
    tracer.count("kernels.steps", len(result[0]) - 1)


def _count_integrate(tracer, args, traj):
    tracer.count("geodesics.steps", len(traj) - 1)
    if traj.integrals0.I2 == 0.0:
        tracer.count("geodesics.radial_runs")
        if traj.termination.value == "equator_reached":
            tracer.count("geodesics.radial_equator")


def _count_csv(tracer, args, result):
    tracer.count("geodesics.csv_rows", len(args[0]) + 1)
    try:
        tracer.count("geodesics.csv_bytes", args[1].tell())  # a fresh file per call
    except (OSError, ValueError):
        pass  # not seekable (stdout)


_COUNTERS = {
    "kernels.geod_integrate": _count_kernel,
    "geodesics.integrate": _count_integrate,
    "geodesics.write_csv": _count_csv,
}


def self_times(spans):
    """Self time of every span: its duration minus the union of the parts
    of it that its children cover."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def parse_importtime(stderr):
    """Cumulative import seconds of numpy, scipy and linegeo from the
    ``-X importtime`` report.  Each package is timed at its outermost
    entries.  numpy modules first imported by scipy count as scipy, and
    the linegeo figure includes what linegeo imported."""
    pending = []  # (depth, name, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))

    def member(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    def family(nodes, pkg):
        total = 0
        for _, name, cumulative, children in nodes:
            if member(name, pkg):
                total += cumulative
            elif not (member(name, "numpy") or member(name, "scipy")):
                total += family(children, pkg)
        return total

    return {pkg: family(pending, pkg) * 1e-6 for pkg in ("numpy", "scipy", "linegeo")}
