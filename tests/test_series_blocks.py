"""The unitary series steps in blocks; every number it reports must equal
the per-step loop it replaced, bit for bit, wherever a block edge falls.

``reference_probabilities`` and ``reference_accumulate`` are that loop:
one product with C, one gather, then the finals read by ``np.vdot`` and
zeroed, one step at a time, and the mass summed step by step.
"""

import tracemalloc
from typing import Iterator

import numpy as np
import pytest

from qwlab import graphs, hitting, walk
from qwlab.errors import IndeterminateError, ThresholdUnreachableError

CAPS = [1, 7, 8, 9, 63, 64, 65, 300]


def reference_probabilities(spec) -> Iterator[float]:
    op = spec.walk
    k = spec.columns.shape[1]
    coin_major, rows = op._gathers
    lanes = np.arange(k)
    step = (rows[coin_major][:, None] * k + lanes).ravel()
    at = (np.argsort(coin_major)[spec.final_array][:, None] * k + lanes).ravel()
    b = op.block.shape[0]
    psi = spec.columns[coin_major].ravel()
    while True:
        psi = (op.block @ psi.reshape(b, -1)).reshape(-1)[step]
        amp = psi[at]
        p = float(np.vdot(amp, amp).real)
        psi[at] = 0.0
        yield hitting._clamp_probability(p)


def reference_accumulate(probabilities, target, step_cap, stall_window):
    if step_cap < 1:
        raise ValueError("step_cap must be >= 1")
    mass = 0.0
    tau = 0.0
    mark_step, mark_mass = 0, 0.0
    for t in range(1, step_cap + 1):
        p = next(probabilities)
        mass += p
        tau += t * p
        if mass >= target:
            return hitting.HittingResult("series", value=tau, arrival_mass=mass, truncation=t)
        if t - mark_step >= stall_window:
            if mass - mark_mass < hitting.STALL_GAIN:
                if mass >= target - hitting.ESCAPE_ATOL:
                    return hitting.HittingResult("series", value=tau, arrival_mass=mass, truncation=t)
                return hitting.HittingResult("series", escape_probability=1.0 - mass, arrival_mass=mass,
                                             truncation=t)
            mark_step, mark_mass = t, mass
    raise IndeterminateError(f"series did not reach mass {target:.12g} or stall within {step_cap} steps")


def reference_series(spec, epsilon, step_cap, stall_window=None):
    window = 4 * spec.dim if stall_window is None else stall_window
    return reference_accumulate(reference_probabilities(spec), 1.0 - epsilon, step_cap, window)


def reference_concurrent(spec, threshold, step_cap):
    # the reachable-mass refusal reads the spectrum before any step, the
    # same code on both sides, so the threshold here is always reachable
    result = reference_accumulate(reference_probabilities(spec), threshold, step_cap, 4 * spec.dim)
    if not result.is_finite:
        raise ThresholdUnreachableError(
            f"threshold {threshold} exceeds total arrival mass ~{result.arrival_mass:.6f}",
            arrival_mass=result.arrival_mass,
        )
    return result.truncation


def outcome(call):
    """What a call reports: its result's fields, or its error's type and text."""
    try:
        res = call()
    except (IndeterminateError, ThresholdUnreachableError) as err:
        return type(err).__name__, str(err)
    if isinstance(res, hitting.HittingResult):
        assert type(res.truncation) is int
        return res.method, res.kind, res.value, res.escape_probability, res.arrival_mass, res.truncation
    assert type(res) is int
    return res


def cube(n, coin_kind):
    g = graphs.build_hypercube(n)
    coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
    return g, walk.evolution_operator(g, coin)


def cube3_basis():  # stalls: an infinite time with escape 0.4
    g, op = cube(3, "grover")
    return hitting.measured_walk(op, hitting.basis_state(g, 0, 1), final_vertices=[7])


def cube4_mixed():  # the maximally mixed start: 64 columns, blocks of 16 steps
    g, op = cube(4, "grover")
    return hitting.measured_walk(op, np.eye(64) / 64, final_vertices=[15])


def cube4_dft_rank3():  # a complex rank-3 start on a complex walk
    g, op = cube(4, "dft")
    z = np.random.default_rng(5).standard_normal((64, 3, 2)) @ [1, 1j]
    return hitting.measured_walk(op, z @ z.conj().T / np.linalg.norm(z) ** 2, final_vertices=[15])


def cube5(coin_kind):
    g, op = cube(5, coin_kind)
    return hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[31])


def cycle16_dft():  # at epsilon 1e-13 it stalls at its rounding: an arrival, 4352 steps
    g = graphs.build_cycle(16)
    op = walk.evolution_operator(g, walk.dft_coin(2))
    return hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[15])


WALKS = {
    "hypercube:3-basis": (cube3_basis, 1e-6, 0.5),
    "cycle:16-dft": (cycle16_dft, 1e-13, 0.9),
    "hypercube:4-mixed": (cube4_mixed, 1e-6, 0.5),
    "hypercube:4-dft-rank3": (cube4_dft_rank3, 1e-6, 0.3),
    "hypercube:5-grover": (lambda: cube5("grover"), 1e-6, 0.9),
    "hypercube:5-dft": (lambda: cube5("dft"), 1e-6, 0.5),
}


@pytest.mark.parametrize("name", list(WALKS))
def test_distribution_matches_the_per_step_loop(name):
    build, _, _ = WALKS[name]
    spec = build()
    steps = reference_probabilities(spec)
    want = [next(steps) for _ in range(max(CAPS))]
    for horizon in CAPS:
        got = hitting.first_hit_distribution(spec, horizon)
        assert got.dtype == np.float64 and got.tolist() == want[:horizon]


@pytest.mark.parametrize("name", list(WALKS))
def test_series_and_concurrent_time_match_the_per_step_loop(name):
    build, epsilon, threshold = WALKS[name]
    spec = build()
    caps = CAPS
    if name != "hypercube:5-dft":  # which creeps toward its reachable mass too slowly to stall
        # and a cap at the stop, or one step short of it
        stop = reference_series(spec, epsilon, hitting.DEFAULT_STEP_CAP).truncation
        caps = caps + [stop - 1, stop, hitting.DEFAULT_STEP_CAP]
    for cap in caps:
        assert outcome(lambda: hitting.hitting_time_series(spec, epsilon, step_cap=cap)) == \
            outcome(lambda: reference_series(spec, epsilon, cap))
        assert outcome(lambda: hitting.concurrent_hitting_time(spec, threshold, step_cap=cap)) == \
            outcome(lambda: reference_concurrent(spec, threshold, cap))


@pytest.mark.parametrize("window", [1, 7, 8, 9, 64, 65])
def test_stall_window_edges_match_the_per_step_loop(window):
    for build in (cube3_basis, lambda: cube5("grover")):
        spec = build()
        assert outcome(lambda: hitting.hitting_time_series(spec, 1e-6, step_cap=300, stall_window=window)) == \
            outcome(lambda: reference_series(spec, 1e-6, 300, window))


@pytest.mark.parametrize("n", [4, 6, 7])
@pytest.mark.parametrize("coin_kind", ["grover", "dft"])
def test_series_peak_within_its_estimate(n, coin_kind):
    # the held buffer of D k entries and its rows of finals' amplitudes,
    # the product with C and the int64 gather index, by tracemalloc against
    # the SERIES_COLUMN_ARRAYS complex D x k arrays the series is refused
    # by, for a rank-64 start; the blocks hold 16 steps at D = 64 (rows as
    # large as the state), 64 at D = 384 and D = 896
    g, op = cube(n, coin_kind)
    q = np.linalg.qr(np.random.default_rng(n).standard_normal((op.dim, 64)))[0]
    spec = hitting.measured_walk(op, q @ q.T / 64, final_vertices=[2 ** n - 1])
    assert spec.columns.shape == (op.dim, 64)
    op._gathers  # the walk's own index arrays, held with the walk
    tracemalloc.start()
    try:
        hitting.first_hit_distribution(spec, 130)  # blocks of 8, 16, 32, 64 and 64 steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= hitting.SERIES_COLUMN_ARRAYS * spec.columns.size * 16, peak / (spec.columns.size * 16)
