import functools
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwlab import decoherence, graphs, hitting, quotient, spectral, walk
from qwlab.errors import IndeterminateError, ThresholdUnreachableError

from conftest import battery, color_permuted, random_unitary, trapped_projector, two_four_cycles


def edge_spec():
    g = graphs.build_edge_graph()
    op = walk.evolution_operator(g, walk.grover_coin(1))
    return hitting.measured_walk(op, hitting.basis_state(g, 0, 1), final_vertices=[1])


def hypercube_spec(n, coin_kind="grover", start="symmetric"):
    g = graphs.build_hypercube(n)
    coin = walk.grover_coin(n) if coin_kind == "grover" else walk.dft_coin(n)
    op = walk.evolution_operator(g, coin)
    psi = hitting.symmetric_state(g, 0) if start == "symmetric" else hitting.basis_state(g, 0, 1)
    return hitting.measured_walk(op, psi, final_vertices=[2 ** n - 1])


def line_spec(n):
    """Hamming-weight line walk of the n-cube from |R,0> to |L,n>."""
    lw = quotient.hypercube_line_reduction(n)
    start = np.zeros(lw.dim, dtype=complex)
    start[lw.start_index] = 1.0
    return hitting.measured_walk(
        walk.WalkOperator(lw.matrix), start, final_indices=[lw.final_index]
    )


def dense_oracle(spec):
    """The vectorized formula on the D^2 x D^2 superoperators."""
    report = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
    return hitting.closed_form_engine(
        *hitting.superoperators(spec),
        spec.rho0.reshape(-1),
        escape_fn=lambda: spectral.escape_probability(report, spec.rho0),
    )


def cycle4_deterministic_spec():
    # the two-dimensional uniform-coin reflection is a bit flip, so this
    # walk hops deterministically around the cycle
    g = graphs.build_cycle(4)
    op = walk.evolution_operator(g, walk.grover_coin(2))
    return hitting.measured_walk(op, hitting.basis_state(g, 0, 1), final_vertices=[2])


class TestSpecValidation:
    def test_unnormalized_start_rejected(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        with pytest.raises(ValueError, match="normalized"):
            hitting.measured_walk(op, np.array([1.0, 1.0]), final_vertices=[1])

    def test_bad_trace_rejected(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        with pytest.raises(ValueError, match="trace"):
            hitting.measured_walk(op, np.eye(2, dtype=complex), final_vertices=[1])

    def test_non_psd_rejected(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        rho = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(ValueError, match="positive"):
            hitting.measured_walk(op, rho, final_vertices=[1])

    def test_needs_final(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        with pytest.raises(ValueError, match="final"):
            hitting.measured_walk(op, hitting.basis_state(g, 0, 1))

    def test_finals_given_once(self):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.grover_coin(3))
        with pytest.raises(ValueError, match="exactly one"):
            hitting.measured_walk(
                op, hitting.symmetric_state(g, 0), final_vertices=[3], final_indices=[0]
            )

    def test_finals_are_held_sorted_once_and_read_only(self):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.grover_coin(3))
        spec = hitting.MeasuredWalkSpec(op, [23, 5, 21, 5, 23], hitting.symmetric_state(g, 0))
        assert spec.final_indices.tolist() == [5, 21, 23]
        assert spec.final_array is spec.final_indices and not spec.final_indices.flags.writeable
        twice = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[7, 7])
        assert twice.final_indices.tolist() == [21, 22, 23]

    def test_non_hermitian_rejected(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hitting.measured_walk(op, rho, final_vertices=[1])

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 3), (2, 2, 2)])
    def test_start_of_wrong_shape_rejected(self, shape):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        start = np.zeros(shape, dtype=complex)
        start.flat[0] = 1.0
        with pytest.raises(ValueError, match="dimension"):
            hitting.measured_walk(op, start, final_vertices=[1])

    @pytest.mark.parametrize("vertex", [-1, 8])
    def test_out_of_range_vertex_rejected(self, vertex):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.grover_coin(3))
        with pytest.raises(ValueError, match="out of range"):
            hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[vertex])
        with pytest.raises(ValueError, match="out of range"):
            hitting.symmetric_state(g, vertex)
        with pytest.raises(ValueError, match="out of range"):
            hitting.basis_state(g, vertex, 1)

    @pytest.mark.parametrize("finals", [[21.5, 22.9, 23.2], ["21"], [True], np.array([21.9])],
                             ids=["fractions", "string", "bool", "fractional-array"])
    def test_final_index_that_is_no_whole_number_rejected(self, finals):
        # once truncated silently: the fractions measured 21-23 for tau 4.0
        spec = hypercube_spec(3)
        with pytest.raises(ValueError, match="is not an integer"):
            hitting.measured_walk(spec.walk, spec.state, final_indices=finals)

    @pytest.mark.parametrize("vertex", [True, 2.7, "7"])
    def test_final_vertex_that_is_no_whole_number_rejected(self, vertex):
        # True once measured vertex 1, and 2.7 raised a raw TypeError
        spec = hypercube_spec(3)
        with pytest.raises(ValueError, match="is not an integer"):
            hitting.measured_walk(spec.walk, spec.state, final_vertices=[vertex])

    def test_integral_float_finals_accepted(self):
        spec = hypercube_spec(3)
        for finals in (np.array([21.0, 22.0, 23.0]), [21.0, 22, np.int64(23)]):
            got = hitting.measured_walk(spec.walk, spec.state, final_indices=finals)
            assert got.final_indices.dtype == int and got.final_indices.tolist() == [21, 22, 23]
        got = hitting.measured_walk(spec.walk, spec.state, final_vertices=[7.0])
        assert np.array_equal(got.final_indices, spec.final_indices)

    def test_pure_start_forms_no_density_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pure start was factored by an eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        spec = hypercube_spec(3)
        assert spec.psi0 is spec.state
        assert spec.columns.shape == (24, 1) and np.shares_memory(spec.columns, spec.state)
        hitting.hitting_time_series(spec, 1e-6)
        assert "rho0" not in vars(spec)
        assert np.array_equal(spec.rho0, np.outer(spec.psi0, spec.psi0.conj()))


class TestStartColumns:
    @pytest.mark.parametrize("rank", [1, 2, 5, 24])
    def test_a_rank_k_start_holds_k_columns(self, rng, rank):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.dft_coin(3))
        z = rng.standard_normal((24, rank)) + 1j * rng.standard_normal((24, rank))
        rho = z @ z.conj().T
        spec = hitting.measured_walk(op, rho / np.trace(rho).real, final_vertices=[7])
        assert spec.psi0 is None and spec.columns.shape == (24, rank)
        assert np.max(np.abs(spec.columns @ spec.columns.conj().T - spec.state)) <= 1e-15

    def test_eigenvalues_at_rounding_level_are_dropped(self):
        # diag(1 - 2e-15, 1e-15, 1e-15, 0...): at D = 24 the cut is
        # 24 eps ~ 5.3e-15 times the largest eigenvalue
        rho = np.zeros((24, 24))
        rho[0, 0], rho[1, 1], rho[2, 2] = 1 - 2e-15, 1e-15, 1e-15
        g = graphs.build_hypercube(3)
        spec = hitting.measured_walk(walk.evolution_operator(g, walk.grover_coin(3)), rho, final_vertices=[7])
        assert spec.columns.shape == (24, 1) and spec.columns.dtype == np.float64
        assert abs(abs(spec.columns[0, 0]) - np.sqrt(1 - 2e-15)) <= 1e-16


class TestFirstHitDistribution:
    def test_single_edge_hits_immediately(self):
        dist = hitting.first_hit_distribution(edge_spec(), 5)
        assert dist[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(dist[1:] == 0.0)

    def test_partial_sums_monotone(self):
        dist = hitting.first_hit_distribution(hypercube_spec(3), 120)
        sums = np.cumsum(dist)
        assert np.all(np.diff(sums) >= -1e-15)
        assert sums[-1] <= 1 + 1e-9

    @pytest.mark.parametrize("start", ["symmetric", "basis"])
    def test_trace_conservation_pure(self, start):
        spec = hypercube_spec(3, start=start)
        u = spec.walk.matrix
        fin = spec.final_array
        psi = spec.psi0.copy()
        total = 0.0
        for _ in range(60):
            phi = u @ psi
            total += float(np.real(np.vdot(phi[fin], phi[fin])))
            phi[fin] = 0.0
            psi = phi
            assert abs(np.vdot(psi, psi).real + total - 1.0) < 1e-9

    def test_trace_conservation_mixed(self):
        g = graphs.build_cycle(6)
        op = walk.evolution_operator(g, walk.dft_coin(2))
        rho = np.diag([0.5, 0.0, 0.25, 0.0, 0.25, 0.0] + [0.0] * 6).astype(complex)
        spec = hitting.measured_walk(op, rho, final_vertices=[3])
        dist = hitting.first_hit_distribution(spec, 80)
        u, fin = op.matrix, spec.final_array
        sig = rho.copy()
        mass = 0.0
        for t in range(80):
            sig = u @ sig @ u.conj().T
            mass += float(np.real(np.sum(sig[fin, fin])))
            sig[fin, :] = 0.0
            sig[:, fin] = 0.0
            assert abs(np.trace(sig).real + mass - 1.0) < 1e-9
        assert mass == pytest.approx(dist.sum(), abs=1e-12)


class TestSeries:
    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    def test_fused_step_matches_apply_bit_for_bit(self, coin_kind):
        # the series steps in the coin-major order that apply multiplies in
        spec = hypercube_spec(5, coin_kind)
        fin, psi, want = spec.final_array, spec.psi0, []
        for _ in range(300):
            psi = spec.walk.apply(psi)
            want.append(float(np.real(np.vdot(psi[fin], psi[fin]))))
            psi[fin] = 0.0
        assert hitting.first_hit_distribution(spec, 300).tolist() == want

    def test_single_edge(self):
        for eps in (0.5, 1e-3, 1e-9):
            res = hitting.hitting_time_series(edge_spec(), eps)
            assert res.value == pytest.approx(1.0, abs=1e-15)
            assert res.method == "series"
            assert res.truncation == 1

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            hitting.hitting_time_series(edge_spec(), 0.0)

    def test_stall_reports_infinite_with_escape(self):
        spec = hypercube_spec(3, start="basis")
        res = hitting.hitting_time_series(spec, 1e-8)
        assert not res.is_finite
        rep = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
        esc = spectral.escape_probability(rep, spec.psi0)
        assert res.escape_probability == pytest.approx(esc, abs=2e-3)

    def test_stall_at_the_rounding_of_the_mass_is_an_arrival(self):
        # epsilon below the rounding of the mass sum: the series stalls
        # 7e-13 short of 1 - epsilon, within ESCAPE_ATOL, on a walk with no
        # trapped subspace, and returns the closed form's finite time
        g = graphs.build_cycle(16)
        spec = hitting.measured_walk(walk.evolution_operator(g, walk.dft_coin(2)), hitting.symmetric_state(g, 0),
                                     final_vertices=[15])
        res = hitting.hitting_time_series(spec, 1e-13)
        assert res.is_finite and res.arrival_mass < 1.0 - 1e-13
        assert res.value == pytest.approx(hitting.hitting_time_closed_form(spec).value, rel=1e-9)

    def test_step_cap_raises_indeterminate(self):
        with pytest.raises(IndeterminateError):
            hitting.hitting_time_series(hypercube_spec(3, start="basis"), 1e-8, step_cap=40)

    @pytest.mark.parametrize(
        "spec_builder",
        [
            lambda: hypercube_spec(3),
            lambda: hypercube_spec(3, start="basis"),
            lambda: hypercube_spec(3, coin_kind="dft"),
            lambda: hypercube_spec(2, coin_kind="dft", start="basis"),
        ],
        ids=["cube3-sym", "cube3-trapped", "cube3-dft", "cube2-dft-basis"],
    )
    def test_arrival_plus_escape_mass_is_unity(self, spec_builder):
        spec = spec_builder()
        res = hitting.hitting_time_series(spec, 1e-6)
        rep = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
        escape = spectral.escape_probability(rep, spec.psi0)
        assert res.arrival_mass + escape == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_a_bad_argument(self, cap):
        with pytest.raises(ValueError, match="step_cap must be >= 1"):
            hitting.hitting_time_series(hypercube_spec(3), 1e-6, step_cap=cap)

    @pytest.mark.parametrize("window", [0, -5])
    @pytest.mark.parametrize("entry", ["series", "decohered-series"])
    def test_stall_window_below_one_is_refused_before_stepping(self, monkeypatch, entry, window):
        # with a window of 0 the mass was declared stalled after one step:
        # "infinite, escape 1.0" on a walk whose time is 4
        def refuse(*args, **kwargs):
            raise AssertionError("step started")

        spec = hypercube_spec(3)
        ch = decoherence.dephasing_channel("coin", 0.5, 8, 3)
        monkeypatch.setattr(walk.WalkOperator, "apply", refuse)
        monkeypatch.setattr(walk.WalkOperator, "_gathers", property(refuse))
        with pytest.raises(ValueError, match="stall_window must be >= 1"):
            if entry == "series":
                hitting.hitting_time_series(spec, 1e-6, stall_window=window)
            else:
                decoherence.decohered_hitting_series(spec, ch, 1e-6, stall_window=window)

    def test_target_prints_its_digits(self):
        with pytest.raises(IndeterminateError, match=r"did not reach mass 0\.999999 or stall within 2"):
            hitting.hitting_time_series(hypercube_spec(3), 1e-6, step_cap=2)


class TestConcurrent:
    def test_single_edge(self):
        assert hitting.concurrent_hitting_time(edge_spec(), 0.5) == 1

    def test_monotone_in_threshold(self):
        spec = hypercube_spec(3)
        taus = [hitting.concurrent_hitting_time(spec, p) for p in (0.2, 0.5, 0.9)]
        assert taus == sorted(taus)

    def test_unreachable_threshold(self):
        spec = hypercube_spec(3, start="basis")  # escape mass 0.4
        with pytest.raises(ThresholdUnreachableError) as err:
            hitting.concurrent_hitting_time(spec, 0.7)
        assert err.value.arrival_mass < 0.7

    def test_step_cap(self):
        with pytest.raises(IndeterminateError, match="within 2 steps"):
            hitting.concurrent_hitting_time(hypercube_spec(3), 0.9, step_cap=2)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_a_bad_argument(self, cap):
        with pytest.raises(ValueError, match="step_cap must be >= 1"):
            hitting.concurrent_hitting_time(hypercube_spec(3), 0.9, step_cap=cap)

    def test_cap_below_one_is_refused_before_the_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve started")

        monkeypatch.setattr(spectral, "infinite_hitting_projector", refuse)
        with pytest.raises(ValueError, match="step_cap must be >= 1"):
            hitting.concurrent_hitting_time(hypercube_spec(7), 0.9, step_cap=0)

    def test_spectrum_refuses_before_stepping(self, monkeypatch):
        # on dft hypercube:5 the arrival mass creeps toward 1 - 0.2553 too
        # slowly for the stall rule: 0.7411 after 200,000 steps
        def refuse(*args, **kwargs):
            raise AssertionError("the walk was stepped")

        monkeypatch.setattr(hitting, "_hit_probabilities", refuse)
        spec = hypercube_spec(5, coin_kind="dft")
        with pytest.raises(ThresholdUnreachableError, match="reachable arrival mass 0.7447") as err:
            hitting.concurrent_hitting_time(spec, 0.9)
        escape = hitting.hitting_time_closed_form(spec).escape_probability
        assert err.value.arrival_mass == pytest.approx(1.0 - escape, abs=1e-12)


class TestOneShot:
    def test_zero_steps_when_already_there(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        psi = hitting.basis_state(g, 0, 1)
        assert hitting.one_shot_hitting_time(op, psi, psi, 1.0, 10) == 0

    def test_single_edge_full_transfer(self):
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        start = hitting.basis_state(g, 0, 1)
        final = hitting.basis_state(g, 1, 1)
        assert hitting.one_shot_hitting_time(op, start, final, 1.0, 10) == 1

    def test_matches_matrix_power_oracle(self):
        g = graphs.build_cycle(4)
        op = walk.evolution_operator(g, walk.grover_coin(2))
        start = hitting.basis_state(g, 0, 1)
        final = hitting.basis_state(g, 0, 1)
        probs = []
        psi = start
        for t in range(9):
            oracle_amp = np.vdot(final, np.linalg.matrix_power(op.matrix, t) @ start)
            assert abs(np.vdot(final, psi) - oracle_amp) < 1e-12
            probs.append(abs(np.vdot(final, psi)) ** 2)
            psi = op.matrix @ psi
        first = next(t for t in range(1, 9) if probs[t] >= 0.99)
        assert hitting.one_shot_hitting_time(op, start, final, 0.99, 10) in (0, first)

    def test_not_reached_is_none(self):
        g = graphs.build_cycle(6)
        op = walk.evolution_operator(g, walk.dft_coin(2))
        start = hitting.basis_state(g, 0, 1)
        final = hitting.basis_state(g, 3, 1)
        assert hitting.one_shot_hitting_time(op, start, final, 0.999999, 3) is None


    def test_negative_t_max_is_a_bad_argument(self):
        # it returned None without checking t = 0, where this start is final
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        psi = hitting.basis_state(g, 0, 1)
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            hitting.one_shot_hitting_time(op, psi, psi, 1.0, -1)

    @pytest.mark.parametrize("t_max", [0, 3])
    def test_no_step_past_the_last_check(self, monkeypatch, t_max):
        g = graphs.build_cycle(6)
        op = walk.evolution_operator(g, walk.dft_coin(2))
        start = hitting.basis_state(g, 0, 1)
        final = hitting.basis_state(g, 3, 1)
        steps, apply = [], walk.WalkOperator.apply
        monkeypatch.setattr(walk.WalkOperator, "apply", lambda self, x: steps.append(1) or apply(self, x))
        assert hitting.one_shot_hitting_time(op, start, final, 0.999999, t_max) is None
        assert len(steps) == t_max


class TestVectorize:
    def test_distribution_csv_columns(self):
        body = hitting.distribution_csv(hitting.first_hit_distribution(edge_spec(), 3))
        lines = body.strip().splitlines()
        assert lines[0] == "t,p_t,cumulative"
        assert lines[1].split(",") == ["1", "1", "1"]
        assert len(lines) == 4

    # the oracle's vec(rho) is rho.reshape(-1), which stacks rows
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_kronecker_identity(self, seed):
        r = np.random.default_rng(seed)
        a = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
        b = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
        rho = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
        lhs = (a @ rho @ b).reshape(-1)
        rhs = np.kron(a, b.T) @ rho.reshape(-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_conjugation_identity(self, rng):
        a = random_unitary(3, rng)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = (a @ rho @ a.conj().T).reshape(-1)
        rhs = np.kron(a, a.conj()) @ rho.reshape(-1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestClosedForm:
    def test_single_edge_exact(self):
        res = hitting.hitting_time_closed_form(edge_spec())
        assert res.method == "closed_form"
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_cycle(self):
        spec = cycle4_deterministic_spec()
        dist = hitting.first_hit_distribution(spec, 4)
        assert dist[1] == pytest.approx(1.0, abs=1e-14)
        res = hitting.hitting_time_closed_form(spec)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_pseudo_inverse_matches_series(self):
        spec = hypercube_spec(3)
        closed = hitting.hitting_time_closed_form(spec)
        assert closed.method == "pseudo_inverse"
        series = hitting.hitting_time_series(spec, 1e-8)
        assert abs(series.value - closed.value) / closed.value < 1e-4

    def test_infinite_escape_matches_projector(self):
        spec = hypercube_spec(3, start="basis")
        res = hitting.hitting_time_closed_form(spec)
        assert not res.is_finite
        rep = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
        assert res.escape_probability == pytest.approx(
            spectral.escape_probability(rep, spec.psi0), abs=1e-10
        )

    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve started")

        spec = hypercube_spec(3)
        # the same walk with its colors permuted, which the dense route takes;
        # the symmetric start and the final vertex are kept
        dense = hitting.measured_walk(walk.WalkOperator(color_permuted(spec.walk.matrix, 3)), spec.psi0,
                                      final_indices=spec.final_indices)
        monkeypatch.setattr(spectral, "_split_stack", refuse)
        monkeypatch.setattr(walk, "_memory_budget", walk._memory_budget.__wrapped__)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2}
        monkeypatch.setattr(walk.os, "sysconf", pages.__getitem__)
        # against an 8 KiB budget: the Fourier route's 24 x (8 x 3 + 8 x 3)
        # complex entries, three final indices (18 KiB), and the dense route's
        # 7 arrays of 24 x 24 (63 KiB)
        for s, need in ((spec, 18), (dense, 63)):
            with pytest.raises(ValueError, match=f"needs an estimated {need} KiB, over a memory budget of 8 KiB"):
                hitting.hitting_time_closed_form(s)

    @pytest.mark.parametrize("descriptor", ["distorted-hypercube:5", "cayley:s4:3gen", "cycle:64"])
    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    def test_closed_form_peak_within_each_estimate(self, monkeypatch, descriptor, coin_kind):
        # each phase of a dense closed form, by tracemalloc, against the
        # estimate it is refused by: the eigensolve, the start's split and
        # the Stein solve, with U and the start (rho_0 and its columns)
        # allocated before tracing; a pure start, a rank-3 complex start and
        # a full-rank one.  cycle:64 has no trapped subspace, so it takes no
        # split and solves on Q_f U, a grover walk in float64
        g = {"distorted-hypercube:5": lambda: graphs.build_distorted_hypercube(5),
             "cayley:s4:3gen": lambda: graphs.cayley_s4_3gen().graph,
             "cycle:64": lambda: graphs.build_cycle(64)}[descriptor]()
        coin = walk.grover_coin(g.degree_value) if coin_kind == "grover" else walk.dft_coin(g.degree_value)
        op = walk.evolution_operator(g, coin)
        d = op.dim
        rng = np.random.default_rng(3)
        phases = []

        def phase(fn):
            def run(*args, **kwargs):
                tracemalloc.reset_peak()
                out = fn(*args, **kwargs)
                report = out if isinstance(out, spectral.SpectralReport) else None  # W+ Psi is let go
                phases.append((tracemalloc.get_traced_memory()[1], report))
                tracemalloc.reset_peak()
                return out
            return run

        monkeypatch.setattr(spectral, "infinite_hitting_projector", phase(spectral.infinite_hitting_projector))
        monkeypatch.setattr(spectral.SpectralReport, "split_start", phase(spectral.SpectralReport.split_start))
        for k in (1, 3, d):
            if k > 1:
                z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
                start = z @ z.conj().T / np.linalg.norm(z) ** 2
            else:
                start = hitting.symmetric_state(g, 0)
            spec = hitting.measured_walk(op, start, final_vertices=[g.num_vertices - 1])
            held = op.matrix.nbytes + spec.state.nbytes + (spec.columns.nbytes if k > 1 else 0)
            phases.clear()
            tracemalloc.start()
            try:
                res = hitting.hitting_time_closed_form(spec)
                solve = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            (eigensolve, report), *split = phases
            estimates = [spectral.EIGENSOLVE_WORK_ARRAYS * d * d]
            peaks = [held + eigensolve]
            if report.trapped_dim:  # the start's split, then the eigenbasis solve
                estimates.append(report.held_entries + spectral.SPLIT_WORK_ARRAYS * d * k)
                peaks.append(held + split[0][0])
                r = report.untrapped_dim
                solve_estimate = hitting.STEIN_WORK_ARRAYS * r * r + 2 * r * k + report.held_entries
            else:  # no split: the solve on Q_f U itself, in U's dtype, counted in complex entries
                assert not split
                solve_estimate = (hitting.STEIN_WORK_ARRAYS * d * d * op.block.itemsize // 16
                                  + 2 * d * k + report.held_entries)
            if res.is_finite:
                estimates.append(solve_estimate)
                peaks.append(held + solve)
            # 64 KiB for Python objects and index arrays, 0.8% of D^2 at D = 72
            assert all(peak <= 16 * estimate + 2**16 for peak, estimate in zip(peaks, estimates)), (k, peaks, estimates)

    @pytest.mark.parametrize("entry", ["series", "distribution", "decohered-series"])
    def test_density_matrix_series_refuses_before_allocating(self, monkeypatch, entry):
        def refuse(*args, **kwargs):
            raise AssertionError("step started")

        pure = hypercube_spec(4)  # D = 64
        mixed = hitting.measured_walk(pure.walk, np.diag(np.full(pure.dim, 1.0 / pure.dim)),
                                      final_indices=pure.final_indices)
        ch = decoherence.dephasing_channel("coin", 0.5, 16, 4)
        calls = {
            "series": lambda: hitting.hitting_time_series(mixed, 1e-6),
            "distribution": lambda: hitting.first_hit_distribution(mixed, 10),
            "decohered-series": lambda: decoherence.decohered_hitting_series(pure, ch, 1e-6),
        }
        monkeypatch.setattr(walk.WalkOperator, "apply", refuse)
        monkeypatch.setattr(walk.WalkOperator, "_gathers", property(refuse))
        # against a 10 kB budget: the full-rank start's 64 columns, 4 complex
        # arrays of 64 x 64 (256 KiB), and the channel's density step, 7 of
        # them (448 KiB)
        need = 448 if entry == "decohered-series" else 256
        monkeypatch.setattr(walk, "_memory_budget", lambda: 10_000)
        assert mixed.columns.shape == (64, 64)
        with pytest.raises(ValueError, match=f"dimension 64 needs an estimated {need} KiB, over a memory budget of 10 KiB"):
            calls[entry]()
        assert "rho0" not in vars(pure)  # a pure start's rho_0 is not built either

    @pytest.mark.parametrize("version", [1, 2])
    def test_memory_budget_reads_the_cgroup_limit(self, monkeypatch, tmp_path, version):
        # a 1 MiB limit on the parent of this process's cgroup, none on its own
        if version == 1:
            listing, mount, name = "4:cpu,memory:/jobs/run", tmp_path / "memory", "memory.limit_in_bytes"
        else:
            listing, mount, name = "0::/jobs/run", tmp_path, "memory.max"
        (mount / "jobs" / "run").mkdir(parents=True)
        (mount / "jobs" / name).write_text(f"{2**20}\n")
        (mount / "jobs" / "run" / name).write_text("max\n" if version == 2 else f"{2**62}\n")
        (tmp_path / "cgroup").write_text(f"1:name=systemd:/\n{listing}\n")
        monkeypatch.setattr(walk, "PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(walk, "CGROUP_ROOT", str(tmp_path))
        # the process reads its budget once; these checks read it afresh
        monkeypatch.setattr(walk, "_memory_budget", walk._memory_budget.__wrapped__)
        assert walk._memory_budget() == 2**20
        # the eigensolve of distorted-hypercube:5 (D=160, no Fourier route)
        # fits in physical memory, not in the limit
        g = graphs.build_distorted_hypercube(5)
        spec = hitting.measured_walk(walk.evolution_operator(g, walk.grover_coin(5)),
                                     hitting.symmetric_state(g, 0), final_vertices=[31])
        with pytest.raises(ValueError, match="dimension 160 needs an estimated 3 MiB, over a memory budget of 1 MiB"):
            hitting.hitting_time_closed_form(spec)
        monkeypatch.setattr(walk, "PROC_CGROUP", str(tmp_path / "absent"))
        assert walk._memory_budget() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle_across_near_degenerate_eigenvalues(self, seed):
        # pairs of eigenvalues 2e-9 and 5e-9 apart share a cluster whose basis
        # is no exact eigenbasis; pairs 1e-7 and 1e-6 apart are split, with
        # eigenvectors accurate to eps / gap.  Three finals see every pair.
        rng = np.random.default_rng(seed)
        splits = np.array([2e-9, 5e-9, 1e-7, 1e-6])
        base = rng.uniform(-np.pi, np.pi, 12 - splits.size)
        v = random_unitary(12, rng)
        u = (v * np.exp(1j * np.concatenate([base, base[: splits.size] + splits]))) @ v.conj().T
        start = np.zeros(12, dtype=complex)
        start[3] = 1.0
        spec = hitting.measured_walk(walk.WalkOperator(u), start, final_indices=[0, 1, 2])
        fast, dense = hitting.hitting_time_closed_form(spec), dense_oracle(spec)
        assert fast.method == dense.method == "closed_form"
        assert fast.value == pytest.approx(dense.value, rel=1e-10)

    def test_stein_solve_runs_in_the_untrapped_dimension(self, monkeypatch):
        shapes = []
        stein_trace = hitting._stein_trace

        def record(a, start, **kwargs):
            shapes.append((a.shape, start.shape))
            return stein_trace(a, start, **kwargs)

        monkeypatch.setattr(hitting, "_stein_trace", record)
        res = hitting.hitting_time_closed_form(hypercube_spec(6))
        assert res.method == "pseudo_inverse" and res.value == pytest.approx(13.6, rel=1e-12)
        assert shapes == [((72, 72), (72, 1))]  # A_r and the pure start's W+ psi_0

    def test_stein_solve_folds_each_power_as_it_squares(self, rng):
        # slow decay: 15 doubling powers, of which the solve holds two at a
        # time; the maximally mixed start's r columns
        r = 120
        a = 0.999 * random_unitary(r, rng)
        start = np.eye(r, dtype=complex) / np.sqrt(r)
        powers = list(hitting._doubling_powers(a))
        assert len(powers) == 15
        eye = np.eye(r, dtype=complex)
        stored = hitting._stein_sum(powers, eye)
        del powers
        tracemalloc.start()
        try:
            value = hitting._stein_trace(a, start, residual_rtol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == float(np.real(np.vdot(start, stored @ start)))  # bit for bit
        # beside A_r and S, held by the caller: 6 r^2 measured, and X S
        k = start.shape[1]
        assert peak <= (hitting.STEIN_WORK_ARRAYS - 1) * r * r * 16 + r * k * 16 + 2**16

    def test_values_at_least_one_without_final_support(self):
        for spec in (edge_spec(), hypercube_spec(2), hypercube_spec(3)):
            res = hitting.hitting_time_closed_form(spec)
            if res.is_finite:
                assert res.value >= 1.0 - 1e-9

    def test_matches_dense_oracle_on_battery(self):
        for name, spec in battery():
            fast, dense = hitting.hitting_time_closed_form(spec), dense_oracle(spec)
            assert (fast.method, fast.kind) == (dense.method, dense.kind), name
            if fast.is_finite:
                assert abs(fast.value - dense.value) <= 1e-10 * dense.value, name
            else:
                assert abs(fast.escape_probability - dense.escape_probability) <= 1e-10, name

    def test_pure_start_is_projected_as_a_vector(self):
        # the Stein trace reads the columns W+ psi_0, so rho_0 is never formed
        for name, spec in battery():
            finals = spec.final_indices
            pure = hitting.measured_walk(spec.walk, spec.psi0, final_indices=finals)
            rho = np.outer(spec.psi0, spec.psi0.conj())
            mixed = hitting.measured_walk(spec.walk, rho, final_indices=finals)
            a, b = hitting.hitting_time_closed_form(pure), hitting.hitting_time_closed_form(mixed)
            assert "rho0" not in vars(pure), name
            assert (a.method, a.kind) == (b.method, b.kind), name
            assert (a.value, a.escape_probability) == pytest.approx(
                (b.value, b.escape_probability), rel=1e-12, abs=1e-12
            ), name

    def test_pure_and_density_matrix_starts_agree_on_battery(self):
        for name, pure in battery():
            mixed = hitting.measured_walk(
                pure.walk, np.outer(pure.psi0, pure.psi0.conj()), final_indices=pure.final_indices
            )
            assert mixed.psi0 is None, name
            series = functools.partial(hitting.hitting_time_series, epsilon=1e-6)
            for solve in (hitting.hitting_time_closed_form, series):
                a, b = solve(pure), solve(mixed)
                assert (a.method, a.kind, a.truncation) == (b.method, b.kind, b.truncation), name
                assert (a.value, a.escape_probability) == pytest.approx(
                    (b.value, b.escape_probability), rel=1e-12, abs=1e-12
                ), name
            g = pure.walk.graph
            for kind in (decoherence.KIND_COIN, decoherence.KIND_POSITION, decoherence.KIND_BOTH):
                ch = decoherence.dephasing_channel(kind, 0.5, g.num_vertices, g.degree_value)
                a = decoherence.decohered_hitting_time(pure, ch)
                b = decoherence.decohered_hitting_time(mixed, ch)
                assert (a.method, a.kind) == (b.method, b.kind), (name, kind)
                assert (a.value, a.escape_probability) == pytest.approx(
                    (b.value, b.escape_probability), rel=1e-12, abs=1e-12
                ), (name, kind)

    def test_matches_dense_oracle_on_complex_mixed_start(self, rng):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.dft_coin(3))
        z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        rho = z @ z.conj().T
        spec = hitting.measured_walk(op, rho / np.trace(rho), final_vertices=[1, 2, 4])
        fast, dense = hitting.hitting_time_closed_form(spec), dense_oracle(spec)
        assert fast.method == dense.method == "closed_form"
        assert abs(fast.value - dense.value) <= 1e-10 * dense.value

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    def test_cube4_matches_dense_superoperator(self, coin_kind):
        # The dense engine's SVD of the 4096 x 4096 matrix I - N takes minutes,
        # so D = 64 is checked without it: vec(P) is a fixed point of N, so
        # I - N is singular and the engine would take the projector's escape
        # mass; a finite value is the dense survival resolvent
        # vec(I) . (I - N_c)^(-1) vec(rho_c) on the trapped complement.
        spec = hypercube_spec(4, coin_kind)
        fast = hitting.hitting_time_closed_form(spec)
        report = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
        p_vec = trapped_projector(report).reshape(-1)
        n_mat, _ = hitting.superoperators(spec)
        assert np.linalg.norm(p_vec - n_mat @ p_vec) <= 1e-12 * np.linalg.norm(p_vec)
        del n_mat
        escape = spectral.escape_probability(report, spec.rho0)
        if coin_kind == "dft":
            assert fast.kind == "infinite" and fast.method == "closed_form"
            assert abs(fast.escape_probability - escape) <= 1e-10
            return
        assert escape <= hitting.ESCAPE_ATOL and fast.method == "pseudo_inverse"
        q = np.eye(spec.dim) - trapped_projector(report)
        a_c = spec.walk.matrix @ q
        a_c[spec.final_array, :] = 0.0
        m = np.kron(a_c, a_c.conj())
        m *= -1.0
        m[np.diag_indices_from(m)] += 1.0
        x = np.linalg.solve(m, (q @ spec.rho0 @ q).reshape(-1))
        dense = float(np.real(np.trace(x.reshape(spec.dim, spec.dim))))
        assert abs(fast.value - dense) <= 1e-10 * dense

    def test_builds_no_superoperator(self, monkeypatch):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.grover_coin(3))
        sym, basis = hitting.symmetric_state(g, 0), hitting.basis_state(g, 0, 1)
        specs = {
            "closed_form": hitting.measured_walk(op, sym, final_vertices=[1, 2, 4]),
            "pseudo_inverse": hitting.measured_walk(op, sym, final_vertices=[7]),
            "infinite": hitting.measured_walk(op, basis, final_vertices=[7]),
        }

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form built a D^2-sized operator")

        monkeypatch.setattr(hitting, "superoperators", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        routes = {}
        for route, spec in specs.items():
            res = hitting.hitting_time_closed_form(spec)
            routes[route] = res.method if res.is_finite else "infinite"
        assert routes == {route: route for route in specs}

    def test_unresolved_gap_raises(self):
        # at n = 64 the gap 1 - rho(Q_f U) is below machine epsilon
        with pytest.raises(IndeterminateError):
            hitting.hitting_time_closed_form(line_spec(64))

    @pytest.mark.parametrize("rtol", [np.nan, 0.0, -1.0, np.inf])
    def test_invalid_singular_rtol_refused_before_the_report(self, monkeypatch, rtol):
        # nan once ran both solves and raised "Stein residual 1.907e-16 exceeds nan"
        def refuse(*args, **kwargs):
            raise AssertionError("the report was built")

        monkeypatch.setattr(spectral, "infinite_hitting_projector", refuse)
        with pytest.raises(ValueError, match="singular_rtol must be a finite positive number"):
            hitting.hitting_time_closed_form(hypercube_spec(3), singular_rtol=rtol)

    def test_residual_above_bound_raises(self):
        with pytest.raises(IndeterminateError, match="residual"):
            hitting.hitting_time_closed_form(line_spec(32), singular_rtol=1e-18)

    def test_singularity_probe(self):
        smin, smax, singular = hitting.superoperator_singularity(hypercube_spec(3))
        assert singular and smin <= 1e-9 * smax
        smin, smax, singular = hitting.superoperator_singularity(cycle4_deterministic_spec())
        assert not singular and smin > 1e-6 * smax


def eigenbasis_value(spec, residual_rtol=hitting.SINGULAR_RTOL):
    """tau by the solve that a trapped walk takes: the start's split into
    W+ Psi, A_r = W+ (Q_f U) W and the Stein solve in r dimensions."""
    report = spectral.infinite_hitting_projector(spec.walk, spec.final_array)
    _, start = report.split_start(spec.columns)
    return hitting._stein_trace(report.reduced_step(), start, residual_rtol=residual_rtol)


def long_double_value(spec):
    """tau = Tr(Psi+ X Psi) from Smith doubling of Q_f U in long double, 11
    bits past float64 on x86: a reference for walks near critical."""
    a = spec.walk.matrix.astype(np.longdouble)
    a[spec.final_array] = 0
    x, ak = np.eye(spec.dim, dtype=np.longdouble), a
    while np.sum(ak * ak) > 1e-40:
        x, ak = x + ak.T @ x @ ak, ak @ ak
    cols = spec.columns.astype(np.clongdouble)
    return float(np.real(np.sum(cols.conj() * (x @ cols))))


def three_starts(d, pure, basis):
    """The pure start, a basis start and a rank-3 complex mixed start."""
    z = np.random.default_rng(5).standard_normal((d, 3, 2)) @ [1, 1j]
    return {"pure": pure, "basis": basis, "rank-3": z @ z.conj().T / np.linalg.norm(z) ** 2}


def untrapped_specs(descriptor, coin_kind):
    """The three starts on a walk with no trapped subspace, to its last vertex."""
    if descriptor == "cayley:s3:2gen":
        g = graphs.cayley_s3_2gen().graph
    else:
        g = graphs.build_cycle(int(descriptor.removeprefix("cycle:")))
    coin = walk.grover_coin(g.degree_value) if coin_kind == "grover" else walk.dft_coin(g.degree_value)
    op = walk.evolution_operator(g, coin)
    starts = three_starts(op.dim, hitting.symmetric_state(g, 0), hitting.basis_state(g, 0, 1))
    return {name: hitting.measured_walk(op, s, final_vertices=[g.num_vertices - 1]) for name, s in starts.items()}


def line_specs(n):
    """The three starts on the Hamming-weight line of the n-cube: |R,0>, the
    middle basis state and a rank-3 start."""
    lw = quotient.hypercube_line_reduction(n)
    e = np.eye(lw.dim)
    starts = three_starts(lw.dim, e[lw.start_index], e[lw.dim // 2])
    return {name: hitting.measured_walk(walk.WalkOperator(lw.matrix), s, final_indices=[lw.final_index])
            for name, s in starts.items()}


class TestUntrappedSolve:
    """A walk with no trapped subspace solves X - A+ X A = I on A = Q_f U
    itself, in U's dtype, with no start split and no A_r."""

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    @pytest.mark.parametrize("descriptor", [f"cycle:{n}" for n in (8, 12, 16, 20, 32, 64, 128)] + ["cayley:s3:2gen"])
    def test_cycles_match_the_eigenbasis_solve(self, descriptor, coin_kind):
        for name, spec in untrapped_specs(descriptor, coin_kind).items():
            res = hitting.hitting_time_closed_form(spec)
            assert res.method == "closed_form"
            assert res.value == pytest.approx(eigenbasis_value(spec), rel=1e-10), name

    @pytest.mark.parametrize("n", range(3, 21))
    def test_short_lines_match_the_eigenbasis_solve(self, n):
        for name, spec in line_specs(n).items():
            res = hitting.hitting_time_closed_form(spec)
            assert res.value == pytest.approx(eigenbasis_value(spec), rel=1e-10), name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is float64 here")
    @pytest.mark.parametrize("n", range(21, 33))
    def test_long_lines_are_nearer_the_exact_value_than_the_eigenbasis_solve(self, n):
        # near critical the eigenbasis solve drifts: on line:32 it is 2e-9
        # off from |R,0> and 6e-7 from the middle state, against 8e-12 and
        # 3e-9 here (the |R,0> value checked to 30 digits as well)
        for name, spec in line_specs(n).items():
            exact = long_double_value(spec)
            got = hitting.hitting_time_closed_form(spec).value
            assert got == pytest.approx(exact, rel=1e-8), name
            assert abs(got - exact) <= abs(eigenbasis_value(spec) - exact), name

    def test_real_walks_double_in_float64(self, monkeypatch):
        # the powers of A and the sum X, whose identity takes A's dtype
        dtypes = []
        doubling_powers, stein_sum = hitting._doubling_powers, hitting._stein_sum

        def powers(a, *args):
            dtypes.append(a.dtype)
            return doubling_powers(a, *args)

        def total(powers, c):
            x = stein_sum(powers, c)
            dtypes.append(x.dtype)
            return x

        monkeypatch.setattr(hitting, "_doubling_powers", powers)
        monkeypatch.setattr(hitting, "_stein_sum", total)
        for coin_kind, want in (("grover", np.float64), ("dft", np.complex128)):
            for spec in untrapped_specs("cycle:16", coin_kind).values():
                dtypes.clear()
                hitting.hitting_time_closed_form(spec)
                assert dtypes == [want, want], coin_kind
        dtypes.clear()
        hitting.hitting_time_closed_form(line_spec(12))  # a complex start on a real walk
        assert dtypes == [np.float64, np.float64]

    def test_solve_refused_before_it_allocates(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the solve started")

        spec = untrapped_specs("cycle:64", "grover")["pure"]
        monkeypatch.setattr(hitting, "_stein_trace", refuse)
        # the report's 7 complex arrays of 128 x 128 (1.75 MiB) fit; the
        # solve's 7 float64 ones beside the report's 5 complex (2.13 MiB) do not
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2_000_000)
        with pytest.raises(ValueError, match="dimension 128 needs an estimated 2 MiB, over a memory budget of 2 MiB"):
            hitting.hitting_time_closed_form(spec)

    @pytest.mark.parametrize("n", [26, 30])
    def test_a_residual_above_the_bound_falls_back_to_the_eigenbasis_solve(self, n):
        # the walk-basis residual here is 2.6e-11 and 5.8e-10, above 1e-12
        spec = line_spec(n)
        res = hitting.hitting_time_closed_form(spec, singular_rtol=1e-12)
        assert res.method == "closed_form" and res.value == eigenbasis_value(spec, 1e-12)

    def test_a_failed_solve_falls_back_to_the_eigenbasis_solve(self, monkeypatch):
        spec = untrapped_specs("cycle:16", "grover")["pure"]
        shapes = []
        stein_trace = hitting._stein_trace

        def fail_first(a, start, **kwargs):
            shapes.append((a.dtype, start.shape))
            if len(shapes) == 1:
                raise IndeterminateError("Stein doubling did not converge")
            return stein_trace(a, start, **kwargs)

        monkeypatch.setattr(hitting, "_stein_trace", fail_first)
        res = hitting.hitting_time_closed_form(spec)
        # the walk's own 32 x 32 float64 A first, then A_r with W+ psi_0
        assert shapes == [(np.float64, (32, 1)), (np.complex128, (32, 1))]
        monkeypatch.undo()
        assert res.method == "closed_form" and res.value == eigenbasis_value(spec)


def result_number(res):
    """tau of a finite result, the escape of an infinite one."""
    return res.value if res.is_finite else res.escape_probability


class TestMixedStartsAcrossRoutes:
    """A rank-1 start given as a matrix, a rank-2 and a full-rank start, on
    the Fourier route (hypercube:3) and the dense one (distorted-hypercube:3,
    cycle:16): the closed form, the unitary series and the dense oracle
    agree, and so do the decohered closed form and its series."""

    @pytest.mark.parametrize("coin_kind", ["grover", "dft"])
    @pytest.mark.parametrize("graph, route", [
        ("hypercube:3", "fourier"), ("distorted-hypercube:3", "dense"), ("cycle:16", "dense")])
    def test_every_route_agrees(self, graph, route, coin_kind):
        kind, _, size = graph.partition(":")
        g = {"hypercube": graphs.build_hypercube, "distorted-hypercube": graphs.build_distorted_hypercube,
             "cycle": graphs.build_cycle}[kind](int(size))
        coin = walk.grover_coin(g.degree_value) if coin_kind == "grover" else walk.dft_coin(g.degree_value)
        op = walk.evolution_operator(g, coin)
        d, fin = op.dim, [g.num_vertices - 1]
        rng = np.random.default_rng(7)
        psi = hitting.symmetric_state(g, 0)
        factors = {"rank-1": psi[:, None], "rank-2": rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)),
                   "full-rank": rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))}
        dephasing = decoherence.dephasing_channel("coin", 0.5, g.num_vertices, g.degree_value)
        pure = hitting.measured_walk(op, psi, final_vertices=fin)
        for name, z in factors.items():
            rho = z @ z.conj().T
            spec = hitting.measured_walk(op, rho / np.trace(rho).real, final_vertices=fin)
            assert spec.columns.shape == (d, z.shape[1]), name
            closed = hitting.hitting_time_closed_form(spec)
            assert spectral.infinite_hitting_projector(op, fin).route == route
            for other in (hitting.hitting_time_series(spec, 1e-12), dense_oracle(spec)):
                assert other.kind == closed.kind, (name, other.method)
                assert result_number(other) == pytest.approx(result_number(closed), rel=1e-9), (name, other.method)
            deco = decoherence.decohered_hitting_time(spec, dephasing)
            series = decoherence.decohered_hitting_series(spec, dephasing, 1e-12)
            assert deco.kind == series.kind == "finite", name
            assert series.value == pytest.approx(deco.value, rel=1e-9), name
            if name == "rank-1":
                for solve in (hitting.hitting_time_closed_form,
                              functools.partial(hitting.hitting_time_series, epsilon=1e-12),
                              functools.partial(decoherence.decohered_hitting_time, ch=dephasing)):
                    a, b = solve(spec), solve(pure)
                    assert (a.method, a.kind, a.truncation) == (b.method, b.kind, b.truncation)
                    assert result_number(a) == pytest.approx(result_number(b), rel=1e-12, abs=1e-12)


class TestClassicalRecursion:
    def test_one_dimension(self):
        assert hitting.classical_hypercube_hitting(1) == 1.0

    def test_three_dimensions_exact(self):
        assert hitting.classical_hypercube_hitting(3) == 10.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_against_linear_system(self, n):
        # first-passage times by Hamming weight solve a tridiagonal system
        a = np.zeros((n, n))
        b = np.ones(n)
        for x in range(n):
            a[x, x] = 1.0
            if x + 1 < n:
                a[x, x + 1] = -(n - x) / n
            if x - 1 >= 0:
                a[x, x - 1] = -x / n
        tau = np.linalg.solve(a, b)
        assert hitting.classical_hypercube_hitting(n) == pytest.approx(tau[0], rel=1e-12)

    def test_exponential_growth(self):
        value = hitting.classical_hypercube_hitting(20)
        assert 2 ** 20 / 4 <= value <= 2 ** 20 * 4

    def test_largest_float_dimension(self):
        assert hitting.classical_hypercube_hitting(1023) == 8.9972779295415e+307

    def test_float_overflow_raises_value_error(self):
        with pytest.raises(ValueError, match="n = 1024 exceeds the float limit"):
            hitting.classical_hypercube_hitting(1024)


class TestMonteCarlo:
    def test_single_edge_exact(self):
        est = hitting.classical_hitting_monte_carlo(graphs.build_edge_graph(), 0, 1, 500, seed=3)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_matches_recursion_within_three_stderr(self):
        g = graphs.build_hypercube(3)
        est = hitting.classical_hitting_monte_carlo(g, 0, 7, 100_000, seed=42)
        assert abs(est.mean - 10.0) <= 3 * est.stderr

    @pytest.mark.parametrize("final", [7, 0])
    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_a_bad_argument(self, cap, final):
        g = graphs.build_hypercube(3)
        with pytest.raises(ValueError, match="step_cap must be >= 1"):
            hitting.classical_hitting_monte_carlo(g, 0, final, 10, seed=0, step_cap=cap)

    def test_deterministic_given_seed(self):
        g = graphs.build_hypercube(3)
        a = hitting.classical_hitting_monte_carlo(g, 0, 7, 2000, seed=11)
        b = hitting.classical_hitting_monte_carlo(g, 0, 7, 2000, seed=11)
        assert a == b

    def test_distorted_hypercube_is_finite(self):
        g = graphs.build_distorted_hypercube(3)
        est = hitting.classical_hitting_monte_carlo(g, 0, 7, 20_000, seed=5)
        assert est.mean > 1.0
        assert est.stderr > 0.0

    @pytest.mark.parametrize("family, n, start, final, seed", [
        ("hypercube", 3, 0, 7, 0), ("hypercube", 4, 0, 15, 1), ("hypercube", 5, 0, 31, 2),
        ("hypercube", 5, 0, 0, 3), ("glued_trees", 3, 0, 21, 4), ("glued_trees", 4, 0, 45, 5),
        ("glued_trees", 4, 7, 7, 6), ("distorted_hypercube", 3, 0, 7, 7), ("cycle", 8, 0, 4, 8),
    ])
    def test_same_estimate_as_stepping_every_trial(self, family, n, start, final, seed):
        """Against the lockstep loop that masks all trials at every step,
        the arrived included, and draws with per-walker degree bounds on
        every graph: the same draws, so the same estimate."""
        g = getattr(graphs, f"build_{family}")(n)
        self.assert_same_as_lockstep(g, start, final, 3000, seed)

    def test_same_estimate_beside_an_isolated_vertex(self):
        # vertex 0 has no edges, so it shares vertex 1's offset; the walkers
        # on the triangle 1-2-3 and its tail 3-4-5 never reach it
        E = graphs.Edge
        edges = (E(1, 1, 2, 1), E(2, 2, 3, 1), E(3, 2, 1, 2), E(3, 3, 4, 1), E(4, 2, 5, 1))
        self.assert_same_as_lockstep(graphs.ColoredGraph(6, edges), 1, 5, 3000, 9)

    @staticmethod
    def assert_same_as_lockstep(g, start, final, trials, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        deg = np.asarray(g.degrees)
        offsets = np.cumsum(deg) - deg
        pos = np.full(trials, start)
        steps = np.zeros(trials, dtype=np.int64)
        alive = pos != final
        t = 0
        while alive.any():
            t += 1
            draws = rng.integers(0, deg[pos[alive]])
            pos[alive] = g.neighbor_table[0][offsets[pos[alive]] + draws]
            arrived = alive.copy()
            arrived[alive] = pos[alive] == final
            steps[arrived] = t
            alive &= ~arrived
        est = hitting.classical_hitting_monte_carlo(g, start, final, trials, seed)
        assert est.mean == float(steps.mean())
        assert est.stderr == float(steps.std(ddof=1) / np.sqrt(trials))

    @pytest.mark.parametrize("family, n, final, ndim", [
        ("hypercube", 4, 15, 0), ("distorted_hypercube", 3, 7, 0), ("glued_trees", 3, 21, 1)])
    def test_regular_graph_draws_with_one_scalar_bound(self, monkeypatch, family, n, final, ndim):
        bounds = []
        real = np.random.Generator

        class Recording:
            def __init__(self, bits):
                self.rng = real(bits)

            def integers(self, low, high, size=None):
                bounds.append(np.ndim(high))
                return self.rng.integers(low, high, size=size)

        monkeypatch.setattr(np.random, "Generator", Recording)
        g = getattr(graphs, f"build_{family}")(n)
        hitting.classical_hitting_monte_carlo(g, 0, final, 200, seed=1)
        assert bounds and set(bounds) == {ndim}

    @pytest.mark.parametrize("g, start, final", [(two_four_cycles(), 0, 6),
                                                 (graphs.ColoredGraph(3, (graphs.Edge(1, 1, 2, 1),)), 0, 2)])
    def test_unreachable_final_is_refused_before_any_draw(self, monkeypatch, g, start, final):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "Generator", refuse)
        began = time.perf_counter()
        with pytest.raises(IndeterminateError,
                           match=f"final vertex {final} is not reachable from start vertex {start}"):
            hitting.classical_hitting_monte_carlo(g, start, final, 10, seed=0)
        assert time.perf_counter() - began < 0.1

    @pytest.mark.parametrize("start, final, name, vertex", [(-1, 7, "start", -1), (9, 7, "start", 9),
                                                             (0, 8, "final", 8), (0, -1, "final", -1)])
    def test_vertex_out_of_range_is_refused_before_any_draw(self, monkeypatch, start, final, name, vertex):
        # -1 would walk from vertex 7, 9 would fail as an IndexError, and a
        # final of 8 would be reported as not reachable
        def refuse(*args, **kwargs):
            raise AssertionError("allocation or draw past the range check")

        g = graphs.build_hypercube(3)
        monkeypatch.setattr(np.random, "Generator", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=rf"^{name} vertex {vertex} out of range \[0, 8\)$"):
            hitting.classical_hitting_monte_carlo(g, start, final, 10, seed=0)

    def test_step_cap_still_stops_a_slow_connected_walk(self):
        with pytest.raises(IndeterminateError, match="10 of 10 walkers not absorbed after 2 steps"):
            hitting.classical_hitting_monte_carlo(graphs.build_hypercube(3), 0, 7, 10, seed=0, step_cap=2)

    def test_trials_over_the_memory_budget_are_refused_before_they_allocate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocation past the memory check")

        g = graphs.build_hypercube(3)
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "arange", refuse)
        with pytest.raises(ValueError, match="^a Monte Carlo run of 100000 trials needs an estimated "
                                             "6 MiB, over a memory budget of 1 MiB$"):
            hitting.classical_hitting_monte_carlo(g, 0, 7, 100_000, seed=0)

    def test_generator_recorded(self):
        est = hitting.classical_hitting_monte_carlo(graphs.build_edge_graph(), 0, 1, 10, seed=1)
        assert est.generator == "PCG64"
        assert est.seed == 1
