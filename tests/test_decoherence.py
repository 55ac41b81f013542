import tracemalloc

import numpy as np
import pytest

from qwlab import cli, graphs, hitting, spectral, walk
from qwlab import decoherence as deco

from conftest import (
    battery,
    direction_group,
    full_direction_group,
    random_unitary,
    trapped_projector,
    two_cycles,
    two_four_cycles,
)
from qwlab.errors import IndeterminateError
from qwlab.groups import Permutation
from qwlab.quotient import OrbitBasis, orbit_basis

COINS = {"grover": walk.grover_coin, "dft": walk.dft_coin}


def grover_cube_spec(n=3, start="symmetric"):
    g = graphs.build_hypercube(n)
    op = walk.evolution_operator(g, walk.grover_coin(n))
    psi = hitting.symmetric_state(g, 0) if start == "symmetric" else hitting.basis_state(g, 0, 1)
    return g, hitting.measured_walk(op, psi, final_vertices=[2 ** n - 1])


def random_channel(dim, num_ops, rng):
    # Stinespring: stack a random isometry and slice it into Kraus blocks
    z = rng.standard_normal((num_ops * dim, dim)) + 1j * rng.standard_normal((num_ops * dim, dim))
    q, _ = np.linalg.qr(z)
    return deco.Channel(tuple(q[i * dim : (i + 1) * dim] for i in range(num_ops)))


def dense_policy(spec, ch):
    """The dense oracle at any point: SVD of I - N_D, the escape of the
    decohered series at a singular point, then the pseudo-inverse."""

    def escape():
        return deco.decohered_hitting_series(spec, ch, 1e-9).escape_probability or 0.0

    return hitting.closed_form_engine(
        *deco.decohered_superoperators(spec, ch), spec.rho0.reshape(-1), escape_fn=escape
    )


def assert_same_result(got, want, rel=1e-10):
    assert got.method == want.method and got.kind == want.kind
    if want.is_finite:
        assert got.value == pytest.approx(want.value, rel=rel)
    else:
        assert got.escape_probability == pytest.approx(want.escape_probability, rel=rel)


def two_cycle_spec(coin, vertex, n=4):
    """Two n-cycles measured at vertex 3n/2, 6 for n = 4: a walker at 0 never
    arrives, one at n does."""
    g = two_cycles(n)
    op = walk.evolution_operator(g, coin)
    return hitting.measured_walk(op, hitting.symmetric_state(g, vertex), final_vertices=[3 * n // 2])


def amplitude_damping(source, target, dim, gamma=0.3):
    """Kraus pair moving weight gamma of index ``source`` to index ``target``."""
    k0 = np.zeros((dim, dim), dtype=complex)
    k0[target, source] = np.sqrt(gamma)
    k1 = np.eye(dim, dtype=complex)
    k1[source, source] = np.sqrt(1.0 - gamma)
    return deco.Channel((k0, k1))


def refuse(*args, **kwargs):
    raise AssertionError("dense construction on a production path")


def position_bit_swap(n, i, j):
    """Permutation matrix of 0..2^n-1 exchanging bits (i-1) and (j-1)."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    dim = 1 << n
    perm = np.arange(dim)
    for v in range(dim):
        a, b = bool(v & bi), bool(v & bj)
        if a != b:
            perm[v] = v ^ bi ^ bj
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, np.arange(dim)] = 1.0
    return m


def coin_transposition(d, i, j):
    m = np.eye(d, dtype=complex)
    m[[i - 1, j - 1]] = m[[j - 1, i - 1]]
    return m


def swap_dephasing_oracle(n, kappas):
    """The dense Kraus family of swap dephasing, built by Kronecker products."""
    return [
        k * np.kron(position_bit_swap(n, i, i + 1), coin_transposition(n, i, i + 1))
        for i, k in enumerate(kappas, start=1)
    ]


class TestChannels:
    def test_zero_strength_is_identity(self):
        for kind in ("both", "coin", "position"):
            ch = deco.dephasing_channel(kind, 0.0, 4, 2)
            assert len(ch.kraus) == 1
            assert ch.is_identity

    def test_full_strength_kills_coherences(self, rng):
        ch = deco.dephasing_channel("both", 1.0, 2, 2)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        out = deco.apply_channel(ch, rho)
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)

    def test_kraus_counts_by_kind(self):
        assert len(deco.dephasing_channel("both", 0.5, 4, 2).kraus) == 9
        assert len(deco.dephasing_channel("coin", 0.5, 4, 2).kraus) == 3
        assert len(deco.dephasing_channel("position", 0.5, 4, 2).kraus) == 5

    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            deco.Channel((np.eye(2) * 0.5,))

    def test_strength_domain(self):
        with pytest.raises(ValueError):
            deco.dephasing_channel("both", 1.5, 2, 2)
        for p in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="unknown dephasing kind"):
                deco.dephasing_channel("bogus", p, 2, 2)

    def test_apply_preserves_trace_and_positivity(self, rng):
        ch = random_channel(4, 3, rng)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        out = deco.apply_channel(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-9

    def test_superoperator_consistent_with_kraus(self, rng):
        ch = random_channel(3, 2, rng)
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        via_super = (deco.channel_superoperator(ch) @ rho.reshape(-1)).reshape(rho.shape)
        assert np.max(np.abs(via_super - deco.apply_channel(ch, rho))) < 1e-12

    @pytest.mark.parametrize("kind", ["both", "coin", "position", "phases"])
    def test_schur_multiplier_is_the_kraus_sum(self, kind, rng):
        nv, cd = 4, 3  # walk index v * cd + c
        rho = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        if kind == "phases":
            weights = (0.2, 0.8)
            phases = [np.exp(2j * np.pi * rng.random(12)) for _ in weights]
            channels = [deco.Channel(tuple(np.sqrt(w) * np.diag(z) for w, z in zip(weights, phases)))]
        else:
            mask = {
                "both": np.eye(12),
                "coin": np.kron(np.ones((nv, nv)), np.eye(cd)),
                "position": np.kron(np.eye(nv), np.ones((cd, cd))),
            }[kind]
            strengths = (0.0, 0.3, 1.0)
            channels = [deco.dephasing_channel(kind, p, nv, cd) for p in strengths]
            for p, ch in zip(strengths, channels):
                assert np.max(np.abs(ch.schur - ((1 - p) + p * mask))) < 1e-15
        for ch in channels:
            kraus_sum = sum(a @ rho @ a.conj().T for a in ch.kraus)
            assert np.max(np.abs(deco.apply_channel(ch, rho) - kraus_sum)) < 1e-14

    @pytest.mark.parametrize("kind", ["both", "coin", "position"])
    def test_dephasing_kraus_family_is_the_diagonal_construction(self, kind):
        """The family built from the monomials is sqrt(1-p) I and sqrt(p) Pi_c,
        entry for entry, and its own multiplier is the one the channel holds."""
        nv, cd = 4, 3
        label = deco._basis_labels(kind, nv, cd)
        for p in (0.0, 0.3, 1.0):
            ch = deco.dephasing_channel(kind, p, nv, cd)
            images, _ = ch.monomials
            assert (images == np.arange(nv * cd)).all()
            want = [np.sqrt(1.0 - p) * np.eye(nv * cd, dtype=complex)] if p < 1.0 else []
            if p > 0.0:
                want += [np.sqrt(p) * np.diag((label == c).astype(complex)) for c in range(label.max() + 1)]
            assert len(ch.kraus) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, want))
            assert np.max(np.abs(deco.Channel(ch.kraus).schur - ch.schur)) < 1e-15

    def test_dephasing_holds_its_multiplier_and_builds_its_weights_on_read(self, monkeypatch):
        # the channel holds the 384 x 384 multiplier, its labels and p; the
        # 385 x 384 weight rows, three 8-byte arrays of them (3 MiB), are
        # refused under a 2 MiB budget when first read
        ch = deco.dephasing_channel("both", 0.5, 64, 6)
        assert "monomials" not in vars(ch) and "kraus" not in vars(ch)
        assert ch.dim == 384 and ch.p == 0.5 and np.array_equal(ch.labels, np.arange(384))
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2 * 2**20)
        with pytest.raises(ValueError, match="dimension 384 needs an estimated 3 MiB, over a memory budget of 2 MiB"):
            ch.monomials
        assert "monomials" not in vars(ch)

    def test_identity_is_read_off_the_multiplier(self, rng):
        assert deco.Channel((np.eye(3, dtype=complex),)).is_identity
        assert not random_channel(4, 3, rng).is_identity
        assert not deco.swap_dephasing_example(3, [0.6, 0.8]).is_identity
        for p in (0.0, 0.3, 1.0):
            # one coin class: every strength keeps every coherence
            assert deco.dephasing_channel("coin", p, 4, 1).is_identity
            assert deco.dephasing_channel("position", p, 4, 3).is_identity == (p == 0.0)

    def test_multiplier_only_for_diagonal_kraus(self, rng):
        assert random_channel(4, 3, rng).schur is None
        assert deco.swap_dephasing_example(3, [0.6, 0.8]).schur is None
        assert deco.Channel((np.eye(3, dtype=complex),)).schur.tolist() == np.ones((3, 3)).tolist()

    def test_lindblad_rates_nonnegative(self):
        with pytest.raises(ValueError):
            deco.LindbladSet((np.eye(2),), (-1.0,))

    def test_zero_rate_operator_is_refused(self):
        # an operator at rate 0 is absent from the generator, and the DFS
        # check does not read rates: a non-scalar one beside a scalar one
        # would mark the subspace as not decoherence-free
        scalar, flip = 0.5 * np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="rates must be positive"):
            deco.LindbladSet((scalar, flip), (1.0, 0.0))
        basis = np.eye(2)[:, :1]
        assert deco.dfs_check_lindblad(deco.LindbladSet((scalar,), (1.0,)), basis).is_dfs
        assert not deco.dfs_check_lindblad(deco.LindbladSet((scalar, flip), (1.0, 1.0)), basis).is_dfs


class TestDecoheredHitting:
    def test_identity_channel_reproduces_unitary(self):
        g, spec = grover_cube_spec()
        unit = hitting.hitting_time_closed_form(spec)
        for kind in ("both", "coin", "position"):
            ch = deco.dephasing_channel(kind, 0.0, g.num_vertices, g.degree_value)
            res = deco.decohered_hitting_time(spec, ch)
            assert res.method == unit.method
            assert res.value == pytest.approx(unit.value, abs=1e-10)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_series_cap_below_one_is_a_bad_argument(self, cap):
        g, spec = grover_cube_spec()
        ch = deco.dephasing_channel("both", 0.3, g.num_vertices, g.degree_value)
        with pytest.raises(ValueError, match="step_cap must be >= 1"):
            deco.decohered_hitting_series(spec, ch, 1e-8, step_cap=cap)

    def test_identity_channel_is_the_unitary_closed_form(self, monkeypatch):
        g = graphs.build_hypercube(3)
        op = walk.evolution_operator(g, walk.grover_coin(3))
        sym, basis = hitting.symmetric_state(g, 0), hitting.basis_state(g, 0, 1)
        specs = {
            "closed_form": hitting.measured_walk(op, sym, final_vertices=[1, 2, 4]),
            "pseudo_inverse": hitting.measured_walk(op, sym, final_vertices=[7]),
            "infinite": hitting.measured_walk(op, basis, final_vertices=[7]),
        }

        monkeypatch.setattr(hitting, "closed_form_engine", refuse)
        assert "closed_form_engine" not in vars(deco)
        for route, spec in specs.items():
            unit = hitting.hitting_time_closed_form(spec)
            assert (unit.method if unit.is_finite else "infinite") == route
            for kind in ("both", "coin", "position"):
                ch = deco.dephasing_channel(kind, 0.0, g.num_vertices, g.degree_value)
                assert deco.decohered_hitting_time(spec, ch) == unit

    def test_identity_channel_of_wrong_dimension_rejected(self):
        _, spec = grover_cube_spec()
        with pytest.raises(ValueError, match="dimension"):
            deco.decohered_hitting_time(spec, deco.dephasing_channel("both", 0.0, 4, 2))

    def test_small_dephasing_slows_the_symmetric_walk(self):
        g, spec = grover_cube_spec()
        unit = hitting.hitting_time_closed_form(spec)
        ch = deco.dephasing_channel("both", 0.1, g.num_vertices, g.degree_value)
        res = deco.decohered_hitting_time(spec, ch)
        assert res.is_finite
        assert res.value > unit.value

    def test_trapped_start_becomes_finite(self):
        g, spec = grover_cube_spec(start="basis")
        assert not hitting.hitting_time_closed_form(spec).is_finite
        ch = deco.dephasing_channel("both", 0.05, g.num_vertices, g.degree_value)
        res = deco.decohered_hitting_time(spec, ch)
        assert res.is_finite and res.value > 1.0

    def test_endpoints_agree_across_kinds(self):
        g, spec = grover_cube_spec()
        for p in (0.0, 1.0):
            values = [
                deco.decohered_hitting_time(
                    spec, deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
                ).value
                for kind in ("both", "coin", "position")
            ]
            assert max(values) - min(values) < 1e-6

    def test_closed_form_matches_step_series(self):
        g, spec = grover_cube_spec()
        ch = deco.dephasing_channel("coin", 0.3, g.num_vertices, g.degree_value)
        closed = deco.decohered_hitting_time(spec, ch)
        series = deco.decohered_hitting_series(spec, ch, 1e-8)
        assert abs(closed.value - series.value) / closed.value < 1e-3

    @pytest.mark.parametrize("walk_name", ["cube3", "cycle6"])
    def test_superoperators_match_dense_kraus_oracle(self, walk_name):
        if walk_name == "cube3":
            g, spec = grover_cube_spec()
        else:
            g = graphs.build_cycle(6)
            op = walk.evolution_operator(g, walk.grover_coin(2))
            spec = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[3])
        u = spec.walk.matrix
        is_final = np.zeros(spec.dim, dtype=bool)
        is_final[spec.final_array] = True
        survive = np.logical_and.outer(~is_final, ~is_final).reshape(-1)
        detect = np.logical_and.outer(is_final, is_final).reshape(-1)
        for kind in ("both", "coin", "position"):
            for p in (0.0, 0.3, 1.0):
                ch = deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
                dense = deco.channel_superoperator(ch) @ np.kron(u, u.conj())
                n_ref, y_ref = dense.copy(), dense.copy()
                n_ref[~survive, :] = 0.0
                y_ref[~detect, :] = 0.0
                n_d, y_d = deco.decohered_superoperators(spec, ch)
                assert np.max(np.abs(n_d - n_ref)) <= 1e-15
                assert np.max(np.abs(y_d - y_ref)) <= 1e-15

    def test_non_diagonal_channel_closed_form_matches_series(self, rng):
        g = graphs.build_hypercube(2)
        op = walk.evolution_operator(g, walk.grover_coin(2))
        spec = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[3])
        ch = random_channel(spec.dim, 3, rng)
        assert spec.dim == 8 and ch.schur is None
        closed = deco.decohered_hitting_time(spec, ch)
        series = deco.decohered_hitting_series(spec, ch, 1e-10)
        assert closed.is_finite and series.is_finite
        assert closed.value == pytest.approx(series.value, rel=1e-6)
        # the final projector acts inside the channel: U+ (sum K+ (Q X Q) K) U
        dense = hitting.closed_form_engine(
            *deco.decohered_superoperators(spec, ch), spec.rho0.reshape(-1)
        )
        assert closed.method == dense.method
        assert closed.value == pytest.approx(dense.value, rel=1e-10)

    def test_dephasing_never_builds_the_kraus_superoperator(self, monkeypatch, rng):
        g, spec = grover_cube_spec()
        ch = deco.dephasing_channel("coin", 0.5, g.num_vertices, g.degree_value)
        kraus = random_channel(spec.dim, 3, rng)
        point = deco.decohered_hitting_time(spec, ch)
        slope = deco.hitting_time_slope(spec, "position", 0.5)
        series = deco.decohered_hitting_series(spec, ch, 1e-8)
        kraus_point = deco.decohered_hitting_time(spec, kraus)

        # nothing D^2 x D^2: every solve works on D x D matrices
        for name in ("channel_superoperator", "decohered_superoperators"):
            monkeypatch.setattr(deco, name, refuse)
        monkeypatch.setattr(hitting, "closed_form_engine", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        assert "closed_form_engine" not in vars(deco)
        assert deco.decohered_hitting_time(spec, ch) == point
        assert deco.hitting_time_slope(spec, "position", 0.5) == slope
        assert deco.decohered_hitting_series(spec, ch, 1e-8) == series
        assert deco.decohered_hitting_time(spec, kraus) == kraus_point
        assert point.method == kraus_point.method == "closed_form"

    @pytest.mark.parametrize("name", [name for name, _ in battery()] + ["cube3-dft-complex-mixed"])
    def test_matches_dense_engine(self, name, rng):
        spec = dict(battery()).get(name)
        if spec is None:
            # a complex start state: only here would a transposed trace show
            g = graphs.build_hypercube(3)
            op = walk.evolution_operator(g, walk.dft_coin(3))
            z = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
            rho = z @ z.conj().T
            spec = hitting.measured_walk(op, rho / np.trace(rho), final_vertices=[1, 2, 4])
        g = spec.walk.graph
        for kind in ("both", "coin", "position"):
            for p in (0.25, 0.5, 1.0):
                ch = deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
                got = deco.decohered_hitting_time(spec, ch)
                dense = hitting.closed_form_engine(
                    *deco.decohered_superoperators(spec, ch), spec.rho0.reshape(-1)
                )
                assert got.method == dense.method
                assert got.value == pytest.approx(dense.value, rel=1e-10)

    @pytest.mark.parametrize("kind", ["both", "coin", "position"])
    def test_singular_point_takes_the_dense_policy(self, kind):
        # the walker's own 4-cycle holds no final vertex, or the other 4-cycle
        # holds a trapped state: either way I - N_D is singular at p > 0
        g = two_four_cycles()
        op = walk.evolution_operator(g, walk.grover_coin(2))
        ch = deco.dephasing_channel(kind, 0.5, 8, 2)
        far = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[6])
        near = hitting.measured_walk(op, hitting.symmetric_state(g, 4), final_vertices=[6])
        assert deco._SurvivalMap(far, ch).solve(np.eye(16, dtype=complex)) is None
        res = deco.decohered_hitting_time(far, ch)
        assert not res.is_finite and res.method == "closed_form"
        assert res.escape_probability == pytest.approx(1.0, abs=1e-9)
        res = deco.decohered_hitting_time(near, ch)
        assert res.method == "pseudo_inverse"
        assert res.value == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("coin", ["grover", "dft"])
    @pytest.mark.parametrize("vertex", [0, 4])
    @pytest.mark.parametrize("kind", ["both", "coin", "position"])
    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_singular_points_match_the_dense_policy(self, coin, vertex, kind, p):
        spec = two_cycle_spec(COINS[coin](2), vertex)
        ch = deco.dephasing_channel(kind, p, 8, 2)
        assert deco._SurvivalMap(spec, ch).solve(np.eye(16, dtype=complex)) is None
        assert_same_result(deco.decohered_hitting_time(spec, ch), dense_policy(spec, ch))

    @pytest.mark.parametrize("start", ["symmetric", "basis"])
    def test_swap_dephasing_singular_point_matches_the_dense_policy(self, start):
        _, spec = grover_cube_spec(3, start)
        ch = deco.swap_dephasing_example(3, [np.sqrt(0.5)] * 2)
        assert deco._SurvivalMap(spec, ch).solve(np.eye(24, dtype=complex)) is None
        assert_same_result(deco.decohered_hitting_time(spec, ch), dense_policy(spec, ch))

    @pytest.mark.parametrize(
        "n, tau, escape", [(3, 4.0, 0.4), (4, 20 / 3, 9 / 17), (5, 89 / 9, 30 / 49)]
    )
    def test_swap_dephasing_is_the_unitary_walk(self, n, tau, escape, monkeypatch):
        # the orbit states are decoherence-free, so the walk keeps its unitary
        # route and value; the singular point builds nothing D^2 x D^2
        ch = deco.swap_dephasing_example(n, np.ones(n - 1) / np.sqrt(n - 1))
        specs = [grover_cube_spec(n, start)[1] for start in ("symmetric", "basis")]
        units = [hitting.hitting_time_closed_form(spec) for spec in specs]
        assert units[0].value == pytest.approx(tau, rel=1e-10)
        assert units[1].escape_probability == pytest.approx(escape, rel=1e-10)
        for name in ("channel_superoperator", "decohered_superoperators"):
            monkeypatch.setattr(deco, name, refuse)
        monkeypatch.setattr(hitting, "closed_form_engine", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        for spec, unit in zip(specs, units):
            assert_same_result(deco.decohered_hitting_time(spec, ch), unit)

    def test_trapped_basis_of_the_identity_channel_is_the_spectral_one(self):
        cube4 = graphs.build_hypercube(4)
        s4 = graphs.cayley_s4_3gen().graph
        specs = [spec for _, spec in battery()] + [
            hitting.measured_walk(
                walk.evolution_operator(cube4, walk.grover_coin(4)),
                hitting.symmetric_state(cube4, 0),
                final_vertices=[15],
            ),
            hitting.measured_walk(
                walk.evolution_operator(s4, walk.grover_coin(3)),
                hitting.symmetric_state(s4, 0),
                final_vertices=[20, 23],
            ),
        ]
        traces = []
        for spec in specs:
            t = deco._trapped_basis(spec, deco.Channel((np.eye(spec.dim, dtype=complex),)))
            report = spectral.infinite_hitting_projector(spec.walk.matrix, spec.final_array)
            assert t.shape == report.basis.shape
            assert np.max(np.abs(t.conj().T @ t - np.eye(t.shape[1])), initial=0.0) <= 1e-12
            assert np.max(np.abs(t @ t.conj().T - trapped_projector(report))) <= 1e-12
            traces.append(report.trace_int)
        assert traces[-2:] == [32, 18] and any(traces[:-2])

    def test_trapped_basis_is_the_column_growth(self, rng):
        # against the growth of the running basis B by the columns A_i U B
        # and U+ A_i+ B of every dense Kraus operator, whose Gram matrix is
        # P + Phi(U P U+) + U+ Phi+(P) U: on swap dephasing (monomial), on
        # dense Kraus channels that damp and leak, on a random channel and
        # on the three dephasing kinds
        def grown_by_columns(spec, ch):
            u = spec.walk.matrix
            basis = np.eye(spec.dim)[:, spec.final_array]
            while True:
                g = np.hstack([basis, *(a @ u @ basis for a in ch.kraus),
                               *(u.conj().T @ a.conj().T @ basis for a in ch.kraus)])
                w, v = np.linalg.eigh(g @ g.conj().T)
                keep = w > spectral.NULLSPACE_RTOL * w[-1]
                if keep.sum() == basis.shape[1]:
                    return v[:, ~keep]
                basis = v[:, keep]

        cases = [
            (grover_cube_spec(n)[1], deco.swap_dephasing_example(n, np.ones(n - 1) / np.sqrt(n - 1)))
            for n in (3, 4, 5)
        ]
        cases.append((grover_cube_spec(4)[1], deco.swap_dephasing_example(4, random_kappas(4, rng))))
        spec = two_cycle_spec(walk.dft_coin(2), 0)
        cases += [(spec, amplitude_damping(1, 0, 16)), (spec, amplitude_damping(1, 8, 16)),
                  (spec, random_channel(16, 2, rng))]
        cases += [(spec, deco.dephasing_channel(kind, 0.5, 8, 2)) for kind in ("coin", "both", "position")]
        dims = []
        for spec, ch in cases:
            t, want = deco._trapped_basis(spec, ch), grown_by_columns(spec, ch)
            assert t.shape == want.shape and t.dtype == want.dtype
            assert np.max(np.abs(t @ t.conj().T - want @ want.conj().T), initial=0.0) <= 1e-12
            dims.append(t.shape[1])
        assert dims == [6, 32, 110, 32, 8, 2, 0, 8, 8, 8]

    @pytest.mark.parametrize("channel", ["coin", "swap"])
    def test_singular_point_builds_one_survival_map(self, channel, monkeypatch):
        # the solve off the trapped subspace reuses the map of the first solve
        built = []

        class Counted(deco._SurvivalMap):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(deco, "_SurvivalMap", Counted)
        if channel == "swap":
            _, spec = grover_cube_spec(3)
            ch = deco.swap_dephasing_example(3, [np.sqrt(0.5)] * 2)
        else:
            spec = two_cycle_spec(walk.grover_coin(2), 4)
            ch = deco.dephasing_channel("coin", 0.5, 8, 2)
        assert deco.decohered_hitting_time(spec, ch).method == "pseudo_inverse"
        assert len(built) == 1

    @pytest.mark.parametrize("coin", ["grover", "dft"])
    def test_singular_dephasing_reads_the_multiplier_alone(self, coin, monkeypatch):
        # the trapped basis reads the channel through its maps, so a
        # dephasing channel builds no Kraus weights on the singular route
        spec = two_cycle_spec(COINS[coin](2), 4)
        channels = [deco.dephasing_channel(kind, 0.5, 8, 2) for kind in ("both", "position")]
        wants = [dense_policy(spec, ch) for ch in channels]
        monkeypatch.setattr(deco.Channel, "monomials", property(refuse))
        monkeypatch.setattr(deco.Channel, "kraus", property(refuse))
        for ch, want in zip(channels, wants):
            got = deco.decohered_hitting_time(spec, ch)
            assert got.method == "pseudo_inverse"
            assert_same_result(got, want)

    @pytest.mark.parametrize("kind", ["both", "position"])
    @pytest.mark.parametrize("coin", ["grover", "dft"])
    def test_singular_point_stays_inside_the_solve_estimate(self, coin, kind):
        # two 32-cycles, D = 128: the trapped basis growth holds a few D x D
        # arrays whatever the number of Kraus operators (129 for both, 65 for
        # position), inside the estimate that the survive map checks
        spec = two_cycle_spec(COINS[coin](2), 32, n=32)
        ch = deco.dephasing_channel(kind, 0.5, 64, 2)
        spec.walk.matrix  # U, held by the caller, is built before the trace
        dtype = np.result_type(spec.walk.block, ch.dtype)
        tracemalloc.start()
        try:
            res = deco.decohered_hitting_time(spec, ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.method == "pseudo_inverse"
        assert peak <= deco.DECOHERED_WORK_ARRAYS * spec.dim**2 * np.dtype(dtype).itemsize

    @pytest.mark.parametrize("coin", ["grover", "dft"])
    @pytest.mark.parametrize("vertex", [0, 4])
    def test_non_unital_channels(self, coin, vertex):
        spec = two_cycle_spec(COINS[coin](2), vertex)
        # damping inside the far cycle, and a leak from the far cycle into the
        # near one, whose leaking states only the adjoint term keeps out of p
        for ch in (amplitude_damping(1, 0, 16), amplitude_damping(1, 8, 16)):
            assert ch.schur is None
            assert_same_result(deco.decohered_hitting_time(spec, ch), dense_policy(spec, ch))
        # a leak from the near cycle into the far one traps mass that no
        # subspace kept by every A_i U and its adjoint holds
        with pytest.raises(IndeterminateError, match="trapped subspace"):
            deco.decohered_hitting_time(spec, amplitude_damping(9, 0, 16))

    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(deco, "_gmres", refuse)
        monkeypatch.setattr(walk, "_memory_budget", walk._memory_budget.__wrapped__)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 128}
        monkeypatch.setattr(walk.os, "sysconf", pages.__getitem__)
        g, spec = grover_cube_spec()
        ch = deco.dephasing_channel("both", 0.2, g.num_vertices, g.degree_value)
        # the Krylov basis, the doubling powers and 14 more 24 x 24 float64
        # arrays for the real walk and channel: 0.52 MiB against a 0.5 MiB
        # budget
        with pytest.raises(ValueError, match="dimension 24 needs an estimated 536 KiB, over a memory budget of 512 KiB"):
            deco.decohered_hitting_time(spec, ch)
        assert "matrix" not in vars(spec.walk)  # refused before U is built

    def test_memory_estimate_counts_the_solve_dtype(self, monkeypatch):
        # the same 119 arrays of 24 x 24 entries: 0.52 MiB in float64 for the
        # real grover walk, 1.05 MiB in complex128 for dft; a 0.75 MiB budget
        monkeypatch.setattr(walk, "_memory_budget", lambda: 3 * 2**18)
        g = graphs.build_hypercube(3)
        ch = deco.dephasing_channel("both", 0.2, g.num_vertices, g.degree_value)
        for coin, fits in (("grover", True), ("dft", False)):
            op = walk.evolution_operator(g, COINS[coin](3))
            spec = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[7])
            if fits:
                assert deco.decohered_hitting_time(spec, ch).is_finite
            else:
                with pytest.raises(ValueError, match="dimension 24 needs an estimated 1 MiB"):
                    deco.decohered_hitting_time(spec, ch)


class TestSlope:
    def test_memory_estimate_refuses_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(deco, "_gmres", refuse)
        # the decohered point's estimate: 0.52 MiB of float64 arrays
        monkeypatch.setattr(walk, "_memory_budget", lambda: 100_000)
        _, spec = grover_cube_spec()
        with pytest.raises(ValueError, match="dimension 24 needs an estimated 536 KiB, over a memory budget of 98 KiB"):
            deco.hitting_time_slope(spec, "coin", 0.5)
        assert "matrix" not in vars(spec.walk)

    def test_matches_central_differences(self):
        g, spec = grover_cube_spec()
        for kind, p in (("both", 0.5), ("coin", 0.4), ("position", 0.6)):
            analytic = deco.hitting_time_slope(spec, kind, p)
            h = 1e-4
            up = deco.decohered_hitting_time(
                spec, deco.dephasing_channel(kind, p + h, g.num_vertices, g.degree_value)
            ).value
            down = deco.decohered_hitting_time(
                spec, deco.dephasing_channel(kind, p - h, g.num_vertices, g.degree_value)
            ).value
            fd = (up - down) / (2 * h)
            assert analytic == pytest.approx(fd, rel=1e-4)

    def test_positive_at_half_for_slowed_walk(self):
        _, spec = grover_cube_spec()
        assert deco.hitting_time_slope(spec, "both", 0.5) > 0.0

    def test_dephasing_immune_walk_has_zero_slope(self):
        # one deterministic step from a basis state: dephasing never acts on
        # a coherence, so tau(p) is constant
        g = graphs.build_edge_graph()
        op = walk.evolution_operator(g, walk.grover_coin(1))
        spec = hitting.measured_walk(op, hitting.basis_state(g, 0, 1), final_vertices=[1])
        assert deco.hitting_time_slope(spec, "both", 0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["both", "coin", "position"])
    def test_matches_dense_squared_resolvent(self, kind):
        # dtau/dp = vec(I) . (Y' S^2 + Y (S N' S^2 + S^2 N' S)) vec(rho_0),
        # S = (I - N)^(-1), with N, Y the rows of U (x) U* scaled by the
        # multiplier and masked by Q_f (x) Q_f* and P_f (x) P_f*
        g, spec = grover_cube_spec()
        d = spec.dim
        u = spec.walk.matrix
        uu = np.kron(u, u.conj())
        is_final = np.zeros(d, dtype=bool)
        is_final[spec.final_array] = True
        survive = np.logical_and.outer(~is_final, ~is_final).reshape(-1, 1)
        detect = np.logical_and.outer(is_final, is_final).reshape(-1, 1)
        mask = deco.dephasing_channel(kind, 1.0, g.num_vertices, g.degree_value).schur.reshape(-1, 1)
        dn, dy = survive * (mask - 1) * uu, detect * (mask - 1) * uu
        vec_i, rho = np.eye(d).reshape(-1), spec.rho0.reshape(-1)
        for p in (0.25, 0.5, 0.75):
            m = (1 - p) + p * mask
            n, y = survive * m * uu, detect * m * uu
            s = np.linalg.inv(np.eye(d * d) - n)
            s1 = s @ rho
            s2 = s @ s1
            dense = vec_i @ (dy @ s2) + vec_i @ (y @ (s @ (dn @ s2) + s @ (s @ (dn @ s1))))
            assert deco.hitting_time_slope(spec, kind, p) == pytest.approx(dense.real, rel=1e-10)

    def test_errors_when_resolvent_singular(self):
        _, spec = grover_cube_spec()  # trapped subspace present at p = 0
        with pytest.raises(ValueError, match="singular"):
            deco.hitting_time_slope(spec, "both", 0.0)


def cli_spec(descriptor, start, coin="grover"):
    """The measured walk that ``--graph descriptor --start start --coin coin``
    describes, with the default all-ones final."""
    g, cay, _ = cli.resolve_graph(descriptor, None)
    op = walk.evolution_operator(g, cli.resolve_coin(coin, g.degree_value))
    final = cli.resolve_final("all-ones", g, cay)
    return g, hitting.measured_walk(op, cli.resolve_start(start, g), final_vertices=final)


def phased(spec, phi=0.7):
    """The same measured walk with U replaced by e^(i phi) U: a complex U
    with the same decohered map and the same preconditioner."""
    u = walk.WalkOperator(np.exp(1j * phi) * spec.walk.matrix, graph=spec.walk.graph)
    return hitting.MeasuredWalkSpec(u, spec.final_indices, spec.state)


def slope_or_singular(spec, kind, p):
    try:
        return deco.hitting_time_slope(spec, kind, p)
    except ValueError as err:
        assert "singular" in str(err)
        return None


SLOPE_POINTS = (("both", 0.5), ("coin", 0.25), ("position", 0.75))


class TestGlobalPhase:
    """A global phase leaves L and the Stein preconditioner as they are but
    makes U complex, so the complex solve is an independent oracle of the
    real one on the same problem."""

    @pytest.mark.parametrize(
        "descriptor", ["hypercube:3", "hypercube:4", "cycle:16", "cayley:s4:3gen", "distorted-hypercube:3"]
    )
    @pytest.mark.parametrize("start", ["symmetric", "basis:0:1"])
    def test_dephasing_and_slopes_match_the_complex_solve(self, descriptor, start):
        g, spec = cli_spec(descriptor, start)
        twin = phased(spec)
        for kind in ("both", "coin", "position"):
            for p in (0.25, 0.5, 1.0):
                ch = deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
                assert_same_result(
                    deco.decohered_hitting_time(spec, ch), deco.decohered_hitting_time(twin, ch), rel=1e-12
                )
        for kind, p in SLOPE_POINTS:
            real, phase = slope_or_singular(spec, kind, p), slope_or_singular(twin, kind, p)
            assert (real is None) == (phase is None)
            if real is not None:
                assert real == pytest.approx(phase, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("start", ["symmetric", "basis:0:1"])
    def test_swap_dephasing_singular_points_match_the_complex_solve(self, n, start):
        _, spec = cli_spec(f"hypercube:{n}", start)
        ch = deco.swap_dephasing_example(n, np.ones(n - 1) / np.sqrt(n - 1))
        assert deco._SurvivalMap(spec, ch).solve(np.eye(spec.dim)) is None
        got, want = deco.decohered_hitting_time(spec, ch), deco.decohered_hitting_time(phased(spec), ch)
        # the symmetric start takes the pseudo-inverse, the basis start escapes
        assert got.is_finite == (got.method == "pseudo_inverse") == (start == "symmetric")
        assert_same_result(got, want, rel=1e-12)


class TestSolveDtype:
    """The decohered solve runs in float64 when U and the channel are real,
    and in complex128 otherwise."""

    @staticmethod
    def assert_solve_dtype(survival, x, dtype):
        assert survival.dtype == dtype and survival.a.dtype == dtype
        assert all(a.dtype == dtype for a in survival.powers)
        assert x.dtype == dtype

    @pytest.mark.parametrize("kind", ["both", "coin", "position"])
    def test_grover_dephasing_is_real(self, kind):
        g, spec = grover_cube_spec()
        survival = deco._SurvivalMap(spec, deco.dephasing_channel(kind, 0.5, g.num_vertices, g.degree_value))
        self.assert_solve_dtype(survival, survival.solve(np.eye(spec.dim)), np.float64)
        # a complex right side runs complex on the same map
        assert survival.solve(np.eye(spec.dim, dtype=complex)).dtype == np.complex128

    def test_swap_dephasing_with_real_kappas_is_real(self):
        _, spec = grover_cube_spec(4)
        ch = deco.swap_dephasing_example(4, [0.6, 0.0, 0.8])
        survival = deco._SurvivalMap(spec, ch)
        assert survival.dtype == np.float64 and survival.a.dtype == np.float64
        trapped = deco._trapped_basis(spec, ch)
        assert trapped.dtype == np.float64
        x = survival.solve(np.eye(spec.dim) - trapped @ trapped.T)
        assert x.dtype == np.float64

    def test_swap_dephasing_with_complex_kappas_is_complex(self, rng):
        _, spec = grover_cube_spec(4)
        ch = deco.swap_dephasing_example(4, random_kappas(4, rng))
        assert deco._SurvivalMap(spec, ch).dtype == np.complex128
        assert deco._trapped_basis(spec, ch).dtype == np.complex128

    @pytest.mark.parametrize("walk_kind", ["dft", "phased"])
    def test_complex_walks_are_complex(self, walk_kind):
        g, spec = cli_spec("hypercube:3", "symmetric", coin="dft" if walk_kind == "dft" else "grover")
        if walk_kind == "phased":
            spec = phased(spec)
        survival = deco._SurvivalMap(spec, deco.dephasing_channel("coin", 0.5, g.num_vertices, g.degree_value))
        self.assert_solve_dtype(survival, survival.solve(np.eye(spec.dim)), np.complex128)


def lstsq_gmres(operator, precondition, rhs):
    """The decohered solve with its earlier exit test: the same restarted
    GMRES, whose every step solves the whole Hessenberg least-squares
    problem and takes the norm of its residual."""
    shape = rhs.shape
    b = rhs.reshape(-1)
    x = np.zeros_like(b)
    r, res = b, float(np.linalg.norm(b))
    scale = res
    restart = deco.GMRES_RESTART
    basis = np.empty((restart + 1, b.size), dtype=b.dtype)
    hess = np.empty((restart + 1, restart), dtype=b.dtype)
    while True:
        basis[0] = r / res
        hess[:] = 0.0
        e1 = np.zeros(restart + 1, dtype=b.dtype)
        e1[0] = res
        for k in range(restart):
            w = operator(precondition(basis[k].reshape(shape))).reshape(-1)
            for _ in range(2):
                h = (basis[: k + 1] @ w.conj()).conj()
                w = w - h @ basis[: k + 1]
                hess[: k + 1, k] += h
            hess[k + 1, k] = np.linalg.norm(w)
            y = np.linalg.lstsq(hess[: k + 2, : k + 1], e1[: k + 2], rcond=None)[0]
            estimate = np.linalg.norm(e1[: k + 2] - hess[: k + 2, : k + 1] @ y)
            if estimate <= deco.GMRES_RTOL * scale or hess[k + 1, k] == 0.0:
                break
            basis[k + 1] = w / hess[k + 1, k]
        x = x + precondition((y @ basis[: k + 1]).reshape(shape)).reshape(-1)
        r = b - operator(x.reshape(shape)).reshape(-1)
        last, res = res, float(np.linalg.norm(r))
        scale = float(np.linalg.norm(x))
        if res <= deco.GMRES_RTOL * scale or not res <= deco.GMRES_STALL * last:
            return x.reshape(shape), res / scale


def counted_solve(solver, survival):
    """solver on X - L(X) = I for the survival map, as _SurvivalMap.solve
    poses it, with the number of operator applications."""
    calls = []

    def operator(y):
        calls.append(None)
        return y - survival.apply(y)

    rhs = np.eye(survival.a.shape[0], dtype=survival.dtype)
    x, residual = solver(operator, lambda y: hitting._stein_sum(survival.powers, y), rhs)
    return x, residual, len(calls)


def gmres_maps():
    """Coin dephasing at p = 0.5 on hypercube:3, grover and dft (real and
    complex arithmetic), and the p = 1 point, where min Re m = 0 leaves the
    solve unpreconditioned."""
    g, spec = grover_cube_spec()
    _, dft = cli_spec("hypercube:3", "symmetric", coin="dft")
    return [
        (spec, deco.dephasing_channel("coin", p, g.num_vertices, g.degree_value))
        for p in (0.5, 1.0)
    ] + [(dft, deco.dephasing_channel("coin", 0.5, g.num_vertices, g.degree_value))]


class TestGmres:
    """The residual estimate of the decohered GMRES comes from Givens
    rotations; its coefficients from one least-squares solve per cycle."""

    def test_givens_estimate_is_the_least_squares_residual(self, monkeypatch, rng):
        # every step's estimate against ||beta e_1 - H y|| for the minimum-
        # norm y of the Hessenberg matrix H built from the columns so far;
        # the absolute floor is the rounding of that residual's computation
        steps = []
        rotate = deco._givens_step

        def recorded(column, rotations, residual):
            k = len(rotations)
            estimate = rotate(column, rotations, residual)
            steps.append((k, residual, column, estimate))
            return estimate

        monkeypatch.setattr(deco, "_givens_step", recorded)
        # the walk's maps keep X Hermitian, so on the identity H is real even
        # in complex arithmetic; a random right side makes it complex
        maps = gmres_maps()
        spec, ch = maps[0]
        z = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal((spec.dim, spec.dim))
        cases = [(spec, ch, np.eye(spec.dim)) for spec, ch in maps] + [(spec, ch, z)]
        for spec, ch, rhs in cases:
            steps.clear()
            survival = deco._SurvivalMap(spec, ch)
            assert survival.solve(rhs) is not None
            dtype = np.result_type(survival.dtype, rhs)
            for k, residual, column, estimate in steps:
                if k == 0:
                    hess, beta = np.zeros((deco.GMRES_RESTART + 1, deco.GMRES_RESTART), dtype), residual
                hess[: k + 2, k] = column
                e1 = np.zeros(k + 2, dtype=dtype)
                e1[0] = beta
                h = hess[: k + 2, : k + 1]
                y = np.linalg.lstsq(h, e1, rcond=None)[0]
                assert estimate == pytest.approx(np.linalg.norm(e1 - h @ y), rel=1e-10, abs=1e-13 * beta)
            assert len(steps) >= 5
        assert np.iscomplexobj(hess) and np.any(hess.imag)

    def test_same_exits_as_the_least_squares_rule(self):
        # the same steps, so the same coefficients and bit for bit the same X
        maps = gmres_maps()
        assert deco._SurvivalMap(*maps[1]).powers == []
        for spec, ch in maps:
            survival = deco._SurvivalMap(spec, ch)
            x, residual, calls = counted_solve(deco._gmres, survival)
            want, want_residual, want_calls = counted_solve(lstsq_gmres, survival)
            assert calls == want_calls
            assert residual == want_residual
            assert np.array_equal(x, want)

    @pytest.mark.parametrize("kind", ["both", "coin", "position"])
    def test_singular_map_stops_no_later(self, kind):
        # the singular map of test_singular_point_takes_the_dense_policy: its
        # Krylov space closes at step 5 with H singular, where the rotations
        # read the exact least-squares residual (~1e-15) and stop, while the
        # rank-truncated lstsq residual stays near 2.8 and the old rule ran
        # on to the 40th step; both cycles end in a stall, so the solve is None
        g = two_four_cycles()
        op = walk.evolution_operator(g, walk.grover_coin(2))
        far = hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[6])
        survival = deco._SurvivalMap(far, deco.dephasing_channel(kind, 0.5, 8, 2))
        _, residual, calls = counted_solve(deco._gmres, survival)
        _, want_residual, want_calls = counted_solve(lstsq_gmres, survival)
        assert (calls, want_calls) == (6, deco.GMRES_RESTART + 1)
        assert residual > hitting.SINGULAR_RTOL and want_residual > hitting.SINGULAR_RTOL
        assert survival.solve(np.eye(16, dtype=complex)) is None

    @pytest.mark.parametrize("descriptor", ["hypercube:3", "hypercube:4"])
    def test_truncated_preconditioner_costs_no_more_steps(self, descriptor, monkeypatch):
        # the doubling stopped at STEIN_PRECONDITIONER_TAIL against the full
        # Stein sum: no more powers, no more operator applications, and the
        # same hitting times to 1e-12; here the powers go from 8, 6, 5 to
        # 6, 5, 4 at p = 0.25, 0.5, 0.75
        g, spec = cli_spec(descriptor, "symmetric")
        points = [(kind, p) for kind in ("both", "coin", "position") for p in (0.25, 0.5, 0.75)]

        def solves():
            out = []
            for kind, p in points:
                survival = deco._SurvivalMap(spec, deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value))
                x, _, calls = counted_solve(deco._gmres, survival)
                out.append((len(survival.powers), calls, float(np.real(np.sum(x * spec.rho0.T)))))
            return out

        truncated = solves()
        monkeypatch.setattr(deco, "STEIN_PRECONDITIONER_TAIL", np.finfo(float).eps)
        full = solves()
        assert [t[0] for t in truncated] == [6, 5, 4] * 3
        assert [f[0] for f in full] == [8, 6, 5] * 3
        for (powers, calls, tau), (full_powers, full_calls, full_tau) in zip(truncated, full):
            assert powers <= full_powers and calls <= full_calls
            assert tau == pytest.approx(full_tau, rel=1e-12)


def random_kappas(n, rng):
    k = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    return k / np.linalg.norm(k)


def scatter_adjoint(image, weights, x):
    """A+ x for A e_j = weights[j] e_image[j] by the inverse permutation and
    a scatter: the form the one-gather adjoint replaced, kept as its oracle."""
    inverse = np.empty_like(image)
    inverse[image] = np.arange(image.size)
    out = np.empty(x.shape, dtype=np.result_type(weights, x))
    out[inverse] = (weights.conj()[inverse] * x.T).T
    return out


class TestSwapDephasingMonomials:
    @pytest.mark.parametrize("d", [8, 160, 896])
    def test_adjoint_gather_is_the_scatter_bit_for_bit(self, d, rng):
        image = rng.permutation(d)
        weights = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        weights[1::7], weights[2::7] = complex(-0.0, 0.0), complex(0.0, -0.0)
        x = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        x[3::5] = complex(-0.0, -0.0)
        for w in (weights, weights.real):
            a = np.zeros((d, d), dtype=w.dtype)
            a[image, np.arange(d)] = w
            for y in (x, x[:, 0], x.real):
                got, want = deco._monomial_adjoint(image, w, y), scatter_adjoint(image, w, y)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()  # signed zeros too
                assert np.max(np.abs(got - a.conj().T @ y)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_kraus_family_is_the_kronecker_construction(self, n, rng):
        kappas = random_kappas(n, rng)
        ch = deco.swap_dephasing_example(n, kappas)
        assert ch.schur is None and not ch.is_identity and ch.dim == (1 << n) * n
        oracle = swap_dephasing_oracle(n, kappas)
        assert len(ch.kraus) == n - 1
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, oracle))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gathers_match_the_dense_kraus_sums(self, n, rng):
        kappas = random_kappas(n, rng)
        ch = deco.swap_dephasing_example(n, kappas)
        dense = deco.Channel(swap_dephasing_oracle(n, kappas))
        assert dense.monomials is None
        d = ch.dim
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.max(np.abs(deco.apply_channel(ch, rho) - deco.apply_channel(dense, rho))) < 1e-14
        adjoint = deco._channel_map(ch, adjoint=True)(y) - deco._channel_map(dense, adjoint=True)(y)
        assert np.max(np.abs(adjoint)) < 1e-13

    @pytest.mark.parametrize("family", ["swap", "dense"])
    def test_maps_are_the_written_out_kraus_sums(self, family, rng):
        # Phi and Phi+ apply each A as A (A Y+)+ through the Kraus actions:
        # both equal sum A Y A+ and sum A+ Y A over the dense operators, for
        # complex-kappa swap dephasing and a random three-operator channel
        if family == "swap":
            ch = deco.swap_dephasing_example(4, random_kappas(4, rng))
        else:
            ch = random_channel(24, 3, rng)
        d = ch.dim
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y /= np.linalg.norm(y)
        forward = sum(a @ y @ a.conj().T for a in ch.kraus)
        backward = sum(a.conj().T @ y @ a for a in ch.kraus)
        assert np.max(np.abs(deco.apply_channel(ch, y) - forward)) <= 1e-14
        assert np.max(np.abs(deco._channel_map(ch, adjoint=True)(y) - backward)) <= 1e-14

    def test_builds_no_dense_operator(self, monkeypatch, rng):
        monkeypatch.setattr(np, "kron", refuse)
        monkeypatch.setattr(deco.Channel, "kraus", property(refuse))
        ch = deco.swap_dephasing_example(4, random_kappas(4, rng))
        rho = np.eye(ch.dim, dtype=complex) / ch.dim
        deco.apply_channel(ch, rho)
        deco._channel_map(ch, adjoint=True)(rho)
        cay = graphs.cayley_hypercube(4)
        assert deco.dfs_check_kraus(ch, orbit_basis(full_direction_group(cay), ch.dim).matrix).is_dfs

    def test_incomplete_weights_raise(self):
        image = np.arange(4)[None, :]
        with pytest.raises(ValueError, match="completeness"):
            deco.Channel._from_monomials(image, np.full((1, 4), 0.9))
        with pytest.raises(ValueError, match="completeness"):
            deco.Channel._from_monomials(
                np.vstack([image, image]), np.array([[0.6] * 4, [0.8] * 3 + [0.7]])
            )
        with pytest.raises(ValueError, match="permutations"):
            deco.Channel._from_monomials(np.array([[0, 0, 1, 2]]), np.ones((1, 4)))
        with pytest.raises(ValueError, match="kappa"):
            deco.swap_dephasing_example(4, [0.6, 0.8, 0.1])

    @pytest.mark.parametrize(
        "n, subgroup", [(3, None), (4, None), (3, ("(1,2)",)), (4, ("(1,2)", "(3,4)")), (4, ("(2,3)",))]
    )
    def test_dfs_verdicts_and_witnesses_match_the_dense_family(self, n, subgroup, rng):
        cay = graphs.cayley_hypercube(n)
        grp = full_direction_group(cay) if subgroup is None else direction_group(cay, *subgroup)
        basis = orbit_basis(grp, (1 << n) * n).matrix
        for kappas in (np.ones(n - 1) / np.sqrt(n - 1), random_kappas(n, rng)):
            got = deco.dfs_check_kraus(deco.swap_dephasing_example(n, kappas), basis)
            want = deco.dfs_check_kraus(deco.Channel(swap_dephasing_oracle(n, kappas)), basis)
            assert got.is_dfs == want.is_dfs == (subgroup is None)
            if got.is_dfs:
                assert got.coefficients == want.coefficients
                assert np.allclose(got.coefficients, kappas, atol=1e-12)
            else:
                assert got.witness[:2] == want.witness[:2]
                assert got.witness[2] == pytest.approx(want.witness[2], abs=1e-12)


class TestSwapDephasing:
    @pytest.mark.parametrize("size", range(2, 41))
    def test_coefficients_are_the_kappas_at_every_orbit_size(self, size, rng):
        # one orbit of `size` states and one fixed state; two transpositions
        # inside the orbit, weighted cos t and sin t, act on both orbit
        # columns by exactly those numbers
        swaps = []
        for j in (1, size - 1):
            image = list(range(size + 1))
            image[0], image[j] = image[j], image[0]
            swaps.append(Permutation(tuple(image)))
        basis = OrbitBasis(np.array([0] * size + [1])).matrix
        for t in rng.uniform(0, np.pi / 2, 5):
            kappas = (np.cos(t), np.sin(t))
            verdict = deco.dfs_check_kraus(deco.swap_dephasing(swaps, kappas), basis)
            assert verdict.coefficients == tuple(complex(k) for k in kappas)

    def test_n2_single_unitary_kraus(self):
        ch = deco.swap_dephasing_example(2, [1.0])
        assert len(ch.kraus) == 1
        a = ch.kraus[0]
        assert np.max(np.abs(a.conj().T @ a - np.eye(8))) < 1e-12

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="kappa"):
            deco.swap_dephasing_example(3, [1.0, 1.0])
        with pytest.raises(ValueError, match="expected"):
            deco.swap_dephasing_example(3, [1.0])

    @pytest.mark.parametrize("n", [3, 4])
    def test_orbit_basis_is_dfs_with_kappa_coefficients(self, n):
        cay = graphs.cayley_hypercube(n)
        grp = full_direction_group(cay)
        basis = orbit_basis(grp, (1 << n) * n)
        kappas = np.ones(n - 1) / np.sqrt(n - 1)
        ch = deco.swap_dephasing_example(n, kappas)
        verdict = deco.dfs_check_kraus(ch, basis.matrix, atol=1e-10)
        assert verdict.is_dfs
        assert np.allclose(verdict.coefficients, kappas, atol=1e-10)

    def test_basis_dephasing_breaks_the_subspace(self):
        n = 3
        cay = graphs.cayley_hypercube(n)
        grp = full_direction_group(cay)
        basis = orbit_basis(grp, (1 << n) * n)
        ch = deco.dephasing_channel("both", 0.5, 1 << n, n)
        verdict = deco.dfs_check_kraus(ch, basis.matrix)
        assert not verdict.is_dfs
        op_idx, col, residual = verdict.witness
        a = ch.kraus[op_idx]
        v = basis.matrix[:, col]
        c = np.vdot(basis.matrix[:, 0], a @ basis.matrix[:, 0])
        assert np.linalg.norm(a @ v - c * v) == pytest.approx(residual, abs=1e-12)
        assert residual > 1e-9


class TestDfsChecks:
    def test_identity_channel_any_subspace(self, rng):
        ch = deco.Channel((np.eye(5, dtype=complex),))
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        verdict = deco.dfs_check_kraus(ch, q)
        assert verdict.is_dfs
        assert np.allclose(verdict.coefficients, [1.0])

    def test_scalar_lindblad_operators(self):
        lset = deco.LindbladSet((0.3 * np.eye(4), 0.7j * np.eye(4)), (1.0, 1.0))
        verdict = deco.dfs_check_lindblad(lset, np.eye(4)[:, :2].astype(complex))
        assert verdict.is_dfs
        assert np.allclose(verdict.coefficients, [0.3, 0.7j])

    @pytest.mark.parametrize("size", [29, 30, 34, 73])
    def test_real_orbit_column_held_as_complex_gives_the_exact_coefficient(self, size):
        # numpy's complex x / x is 1 - 2**-53 at x = 1/sqrt(size) + 0j for these sizes
        column = np.full((size, 1), 1 / np.sqrt(size))
        lset = deco.LindbladSet((0.5 * np.eye(size),), (1.0,))
        for basis in (column, column.astype(complex)):
            assert deco.dfs_check_lindblad(lset, basis).coefficients == (0.5,)

    def test_position_swaps_fix_weight_sectors(self):
        # continuous walk: vertex permutations swapping qubits act trivially
        # on Hamming-symmetric combinations
        n = 3
        swaps = [position_bit_swap(n, i, i + 1) for i in (1, 2)]
        from qwlab.groups import Permutation, closure

        perms = [
            Permutation(tuple(int(np.argmax(m[:, j])) for j in range(1 << n)))
            for m in swaps
        ]
        vgrp = closure(perms)
        basis = orbit_basis(vgrp, 1 << n)
        lset = deco.LindbladSet(tuple(0.5 * m for m in swaps), (1.0, 1.0))
        verdict = deco.dfs_check_lindblad(lset, basis.matrix)
        assert verdict.is_dfs
        assert np.allclose(verdict.coefficients, [0.5, 0.5])

    def test_random_hermitian_generically_fails(self, rng):
        h = rng.standard_normal((6, 6))
        h = h + h.T
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        verdict = deco.dfs_check_lindblad(
            deco.LindbladSet((h.astype(complex),), (1.0,)), q.astype(complex)
        )
        assert not verdict.is_dfs

    def test_verdicts_invariant_under_subspace_rotation(self, rng):
        n = 3
        cay = graphs.cayley_hypercube(n)
        basis = orbit_basis(full_direction_group(cay), (1 << n) * n)
        rot = random_unitary(basis.num_orbits, rng)
        rotated = basis.matrix @ rot
        kappas = np.ones(n - 1) / np.sqrt(n - 1)
        ch = deco.swap_dephasing_example(n, kappas)
        assert deco.dfs_check_kraus(ch, rotated).is_dfs
        bad = deco.dephasing_channel("both", 0.5, 1 << n, n)
        assert not deco.dfs_check_kraus(bad, rotated).is_dfs

    def test_rejects_non_orthonormal_basis(self):
        ch = deco.Channel((np.eye(3, dtype=complex),))
        with pytest.raises(ValueError, match="orthonormal"):
            deco.dfs_check_kraus(ch, np.ones((3, 2), dtype=complex))
