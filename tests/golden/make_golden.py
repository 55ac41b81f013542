"""Write ``cli.txt``: the CLI's output on a fixed battery of commands.

Run from the repository root after a change that is meant to move an
output, and read the diff before committing it:

    PYTHONPATH=src python tests/golden/make_golden.py
    PYTHONPATH=src python tests/golden/make_golden.py --slow

Run as a script, it pins the BLAS to one thread before numpy loads, as
``perfbench/run.py`` does: the files were written so, and a threaded BLAS
moves the last digits of some eigenvalues.  Imported by the tests, it
leaves the process's environment as it is.

The battery runs ``hitting``, closed form and series, on small walks of
every graph family, both coins, the symmetric and a basis start and two
finals; ``sweep-decoherence`` with the three dephasing kinds at p = 0 and
0.5; ``spectrum`` on every one of those walks, all with D <= 160, with
both coins and both finals; the README's ``spectrum``, ``quotient``,
``dfs`` and ``classical`` runs; and the series the benchmark times.  Each entry is the command line after
``$ qwlab``, its exit code, then what it wrote to stdout and, prefixed
``! ``, to stderr.  The manifest's SHA-256 lines are dropped and its numpy
version is masked, so that a numpy upgrade alone moves no line.  ``tests/test_golden.py`` reruns
every command in process and compares.  ``--slow`` writes ``cli_slow.txt``
instead: ``hitting`` closed form and ``spectrum`` on the walks from D =
256 to 896 that the battery leaves out, which ``tests/test_golden_slow.py``
reruns under ``pytest -m slow``.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import re
import sys

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from qwlab import cli  # after the thread pin

GOLDEN = pathlib.Path(__file__).with_name("cli.txt")
GOLDEN_SLOW = pathlib.Path(__file__).with_name("cli_slow.txt")

HITTING_GRAPHS = (
    ["edge"]
    + [f"hypercube:{n}" for n in range(2, 6)]
    + [f"cycle:{n}" for n in (4, 8, 16, 32, 64)]
    + [f"distorted-hypercube:{n}" for n in range(3, 6)]
    + ["cayley:s3:2gen", "cayley:s3:3gen", "cayley:s4:3gen"]
)
README_RUNS = [
    "spectrum --graph hypercube:4 --coin grover --final all-ones",
    'quotient --graph cayley:s3:2gen --subgroup (1,2) --coin grover',
    "quotient --graph hypercube:8 "
    + " ".join(f"--subgroup ({i},{i + 1})" for i in range(1, 8)),
    "dfs --graph hypercube:3",
    "classical --hypercube 3 --mc-trials 100000 --seed 7",
]
# the benchmark's series, appended after the battery so that no earlier
# line moves: hypercube:6-7 grover, and cycle:16 dft whose mass stalls at
# its rounding, an arrival after 4352 steps
BENCHMARK_SERIES = [
    "hitting --graph hypercube:6 --coin grover --start symmetric --final all-ones --method series",
    "hitting --graph hypercube:7 --coin grover --start symmetric --final all-ones --method series",
    "hitting --graph cycle:16 --coin dft --start symmetric --final all-ones --method series --epsilon 1e-13",
]


# the walks, D <= 64, that the series and the sweep run on too: above, a
# dft series on hypercube:5 takes seconds to stall
STEPPED_GRAPHS = set(HITTING_GRAPHS) - {"hypercube:5", "cycle:64", "distorted-hypercube:5"}


def commands() -> list[str]:
    """The battery, one command line each, arguments split on spaces."""
    out = []
    for graph in HITTING_GRAPHS:
        methods = ("closed-form", "series") if graph in STEPPED_GRAPHS else ("closed-form",)
        for coin in ("grover", "dft"):
            walk = f"--graph {graph} --coin {coin}"
            for start in ("symmetric", "basis:0:1"):
                for final in ("all-ones", "all-ones-but-last"):
                    for method in methods:
                        out.append(f"hitting {walk} --start {start} --final {final} --method {method}")
            if graph in STEPPED_GRAPHS:
                out.append(f"sweep-decoherence {walk} --kinds both,coin,position --p-grid 0,0.5")
    for graph in HITTING_GRAPHS:
        for coin in ("grover", "dft"):
            for final in ("all-ones", "all-ones-but-last"):
                out.append(f"spectrum --graph {graph} --coin {coin} --final {final}")
    return [c for c in out if c not in README_RUNS] + README_RUNS + BENCHMARK_SERIES


SLOW_GRAPHS = ["hypercube:6", "hypercube:7", "distorted-hypercube:6", "distorted-hypercube:7", "cycle:128",
               "cycle:256"]


def slow_commands() -> list[str]:
    """The slow battery: closed-form ``hitting`` from both starts to both
    finals, and ``spectrum`` to both finals, on each slow walk and coin."""
    out = []
    for graph in SLOW_GRAPHS:
        for coin in ("grover", "dft"):
            walk = f"--graph {graph} --coin {coin}"
            for start in ("symmetric", "basis:0:1"):
                for final in ("all-ones", "all-ones-but-last"):
                    out.append(f"hitting {walk} --start {start} --final {final} --method closed-form")
            for final in ("all-ones", "all-ones-but-last"):
                out.append(f"spectrum {walk} --final {final}")
    return out


def run(command: str) -> list[str]:
    """The exit code and output lines of one command, run in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(command.split(" "), out=stdout)
    lines = [f"exit {code}"]
    for line in stdout.getvalue().splitlines():
        if not line.startswith("# manifest-sha256="):
            lines.append(_masked(line))
    lines += [f"! {line}" for line in stderr.getvalue().splitlines()]
    return lines


def _masked(line: str) -> str:
    """A line with a JSON body's manifest hash dropped and the numpy version masked."""
    line = re.sub(r',"manifest_sha256":"[0-9a-f]+"', "", line)
    return re.sub(r'"numpy_version":"[^"]*"', '"numpy_version":"*"', line)


def read(path: pathlib.Path = GOLDEN) -> dict[str, list[str]]:
    """The golden file's entries: command line -> exit code and output lines."""
    entries, lines = {}, None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ qwlab "):
            lines = entries[line.removeprefix("$ qwlab ")] = []
        else:
            lines.append(line)
    return entries


def main(argv: list[str]) -> None:
    if argv not in ([], ["--slow"]):
        raise SystemExit("usage: make_golden.py [--slow]")
    path, battery = (GOLDEN_SLOW, slow_commands()) if argv == ["--slow"] else (GOLDEN, commands())
    with path.open("w", encoding="utf-8") as fh:
        for command in battery:
            fh.write("\n".join([f"$ qwlab {command}", *run(command)]) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
