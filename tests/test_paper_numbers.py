"""The paper's numbers against mpmath, and the README that quotes them:
its table of those numbers and its command-line examples, run as
written."""

import json
import math
import pathlib
import shlex

import mpmath
import pytest

from linegeo import CRITICAL_RADIUS
from linegeo.cli import main
from oracles import PAPER_NUMBERS

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


@pytest.mark.parametrize(
    "name, call, expression, ulps", PAPER_NUMBERS, ids=[row[0] for row in PAPER_NUMBERS]
)
def test_paper_number_is_within_its_ulps(name, call, expression, ulps):
    with mpmath.workdps(30):
        exact = expression()
        assert abs(call() - exact) <= ulps * math.ulp(float(exact))


def readme_section(title):
    """The text of the README section headed ``## title``."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_quotes_the_table_of_the_paper_s_numbers():
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in readme_section("The paper's numbers").splitlines()
        if line.startswith("| ")
    ]
    assert rows[0] == ["Number", "Library", "Value", "Ulps", "Digits", "Why"]
    quoted = {library.strip("`"): (value, ulps, digits)
              for _, library, value, ulps, digits, _ in rows[1:]}
    expected = {}
    for name, _, expression, ulps in PAPER_NUMBERS:
        with mpmath.workdps(30):
            exact = expression()
        # the significant digits that a relative error of ulps ulps guarantees
        digits = math.floor(-math.log10(ulps * math.ulp(float(exact)) / float(exact)))
        expected[name] = (mpmath.nstr(exact, 20, strip_zeros=False), str(ulps), str(digits))
    assert quoted == expected


def readme_examples():
    """Each ``linegeo`` line of the README's examples block, as argv."""
    block = README.split("\nExamples:\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("linegeo ")]


def _normalize_claim(out):
    assert abs(json.loads(out)["result"]["c"] - math.sqrt(20.0)) <= 1e-12


def _geodesic_claim(out):
    assert abs(json.loads(out)["t_hit"] - 0.599070) <= 1e-6


def _turning_points_claim(out):
    annulus = json.loads(out)
    assert annulus["R_min"] <= CRITICAL_RADIUS <= annulus["R_max"]


def _check_claim(out):
    assert json.loads(out)["all_passed"] is True


#: the claim in the comment above each README example, by its subcommand
EXAMPLE_CLAIMS = {
    "normalize": _normalize_claim,
    "geodesic": _geodesic_claim,
    "analyze turning-points": _turning_points_claim,
    "check": _check_claim,
}


def test_readme_examples_run_as_written(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the geodesic example writes traj.csv
    examples = readme_examples()
    commands = [" ".join(argv[:2] if argv[0] == "analyze" else argv[:1]) for argv in examples]
    assert commands == list(EXAMPLE_CLAIMS)
    for command, argv in zip(commands, examples):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        EXAMPLE_CLAIMS[command](out)
