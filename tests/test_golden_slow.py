"""The slow CLI battery of ``tests/golden/cli_slow.txt``, rerun in process.

Closed-form ``hitting`` and ``spectrum`` on hypercube:6-7,
distorted-hypercube:6-7 and cycle:128 and 256 (D = 256 to 896), both
coins: the walks on which changes to the spectral routes promise every
other output unchanged, and the cycles' Stein solve on Q_f U itself.
About 17 s at one BLAS thread, so the tests carry the ``slow`` marker,
which the default run deselects; run them with

    PYTHONPATH=src python -m pytest -m slow tests/test_golden_slow.py

Lines compare as in ``tests/test_golden.py``; ``make_golden.py --slow``
writes the file.
"""

import pytest

from test_golden import differences, make_golden

pytestmark = pytest.mark.slow


def test_slow_battery_lists_the_golden_commands():
    assert list(make_golden.read(make_golden.GOLDEN_SLOW)) == make_golden.slow_commands()


def test_cli_matches_the_slow_golden_battery():
    diffs = []
    for command, want in make_golden.read(make_golden.GOLDEN_SLOW).items():
        diffs += differences(command, make_golden.run(command), want)
    assert not diffs, "\n".join(diffs)
