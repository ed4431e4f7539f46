"""The benchmark's span tracer still reaches every layer it times.

``bench/tracer.py`` patches package functions by module and attribute
name.  If one of them moves, its layer would silently stop being timed;
these tests import the tracer read-only and run it against the package.
"""

import os
import sys
from collections import Counter

import pytest

from linegeo import checks, cli

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import tracer

    return tracer


def test_every_layer_resolves(tracer):
    for module, attr, _ in tracer.LAYERS:
        assert callable(getattr(tracer._resolve(module), attr)), (module, attr)


def test_kernel_spans_nest_in_integrate_and_uninstall_restores(tracer, tmp_path):
    owners = [(tracer._resolve(module), attr) for module, attr, _ in tracer.LAYERS]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in owners]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.main([
            "geodesic", "--xi", "0.3", "0", "--xidot", "0.2", "0.1", "--t-max", "1",
            "--output", str(tmp_path / "orbit.csv"), "--summary", str(tmp_path / "orbit.json"),
        ]) == 0
        assert cli.main(["check", "--output", str(tmp_path / "check.json")]) == 0
    finally:
        recorder.uninstall()

    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr

    spans = recorder.spans
    kernel = [s for s in spans if s[0] == "kernels.geod_integrate"]
    integrate = [s for s in spans if s[0] == "geodesics.integrate"]
    # one orbit from `geodesic`, plus every orbit of the check suite
    assert len(kernel) == len(integrate) >= 2
    for _, start, end, parent, _ in kernel:
        assert parent is not None and spans[parent][0] == "geodesics.integrate"
        assert end >= start
    assert recorder.counters["kernels.steps"] > 0
    assert recorder.counters["kernels.steps"] == recorder.counters["geodesics.steps"]


@pytest.mark.parametrize("samples", [3, 60])
def test_check_calls_every_traced_layer_once_per_use(tracer, tmp_path, monkeypatch, samples):
    # each invariance sample pushes u and v forward and pairs them before
    # and after; each normalization sample normalises one section. The plan
    # is shrunk to a few draws and one short orbit so the count is read at
    # two sizes.
    monkeypatch.setattr(checks, "SAMPLES", samples)
    monkeypatch.setattr(checks, "TRAJECTORIES", 1)
    monkeypatch.setattr(checks, "T_SPAN", 1.0)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert cli.main(["check", "--output", str(tmp_path / "check.json")]) == 0
    finally:
        recorder.uninstall()

    counts = Counter(name for name, *_ in recorder.spans)
    for layer in ("line_space.push_forward", "line_space.metric", "line_space.symplectic_form"):
        assert counts[layer] == 2 * samples, layer
    assert counts["sections.normalize"] == samples // 5
    # the sampled orbit, which both orbit checks measure, and
    # triple_agreement's radial run
    assert counts["geodesics.integrate"] == 2
