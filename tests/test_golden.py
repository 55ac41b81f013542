"""The CLI battery of ``tests/golden/cli.txt``, rerun in process.

Each command's exit code, text and integers must match the file exactly,
and its floats to GOLDEN_RTOL relative (with GOLDEN_ATOL for values that
are zero up to rounding, such as an eigenvalue's imaginary part).  A
failure lists every differing line.  ``tests/golden/make_golden.py``
writes the file.
"""

import importlib.util
import math
import pathlib
import re

import pytest

GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12
# a number: digits with an optional fraction and exponent, or a JSON float
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")

_spec = importlib.util.spec_from_file_location(
    "make_golden", pathlib.Path(__file__).with_name("golden") / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def same_line(got: str, want: str) -> bool:
    """Equal text and integers, and floats within the tolerances."""
    a, b = NUMBER.split(got), NUMBER.split(want)
    if len(a) != len(b):
        return False
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2 == 0 or not any(c in x + y for c in ".eE"):  # text, or two integers
            return False
        if not math.isclose(float(x), float(y), rel_tol=GOLDEN_RTOL, abs_tol=GOLDEN_ATOL):
            return False
    return True


def differences(command: str, got: list[str], want: list[str]) -> list[str]:
    """Every differing line of one entry, with its command and line number."""
    out = [f"{command} [{i}]: got {g!r}, want {w!r}"
           for i, (g, w) in enumerate(zip(got, want)) if not same_line(g, w)]
    if len(got) != len(want):
        out.append(f"{command}: {len(got)} lines, want {len(want)}")
    return out


def test_battery_lists_the_golden_commands():
    assert list(make_golden.read()) == make_golden.commands()


def test_cli_matches_the_golden_battery():
    diffs = []
    for command, want in make_golden.read().items():
        diffs += differences(command, make_golden.run(command), want)
    assert not diffs, "\n".join(diffs)


@pytest.mark.parametrize("got, want, same", [
    ("graph,finite,4.53345678901,closed_form", "graph,finite,4.53345678901,closed_form", True),
    ("x,4.533456789011", "x,4.533456789012", True),      # 2e-13 relative
    ("x,4.53345678901", "x,4.53345678911", True),        # the last digit, 2e-11 relative
    ("x,4.53345678901", "x,4.53345679901", False),       # the ninth, 2e-9 relative
    ("[1.0,6.1e-17]", "[1.0,-3e-17]", True),             # rounding-level zeros
    ("exit 0", "exit 2", False),
    ("hypercube:3,finite", "hypercube:4,finite", False),  # integers exactly
    ("closed_form", "pseudo_inverse", False),
    ("a,1.5", "a,1.5,2", False),
])
def test_lines_compare_text_and_integers_exactly_and_floats_to_a_tolerance(got, want, same):
    assert same_line(got, want) is same


def test_a_planted_one_digit_change_fails():
    # the fourth significant digit of one tau, 3.99997108209, moved in a
    # copy of its entry
    command = "hitting --graph hypercube:3 --coin grover --start symmetric --final all-ones --method series"
    want = list(make_golden.read()[command])
    row = next(i for i, line in enumerate(want) if line.startswith("hypercube:3,finite,"))
    fields = want[row].split(",")
    tau = fields[2]
    digit = tau.index(".") + 3
    fields[2] = tau[:digit] + str((int(tau[digit]) + 1) % 10) + tau[digit + 1:]
    want[row] = ",".join(fields)
    diffs = differences(command, make_golden.run(command), want)
    assert len(diffs) == 1 and f"[{row}]" in diffs[0], diffs
