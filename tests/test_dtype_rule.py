"""One dtype rule: walk, coin, channel and start-state data are float64 when
their entries are real and complex128 when they are not, and numpy's type
promotion picks the arithmetic.  A Grover walk therefore steps real arrays;
its complex twin, the same block cast to complex, is an independent route
to every number."""

import numpy as np
import pytest

from qwlab import decoherence as deco
from qwlab import graphs, hitting, quotient, walk
from qwlab.errors import IndeterminateError

from conftest import battery, full_direction_group

F64, C128 = np.dtype(np.float64), np.dtype(np.complex128)


def cube_spec(n=3, coin=walk.grover_coin):
    g = graphs.build_hypercube(n)
    op = walk.evolution_operator(g, coin(n))
    return g, hitting.measured_walk(op, hitting.symmetric_state(g, 0), final_vertices=[2**n - 1])


def complex_twin(spec):
    """The same measured walk with the coin block cast to complex128."""
    w = spec.walk
    twin = walk.WalkOperator(w.block.astype(complex), w.graph, image=w.image)
    return hitting.MeasuredWalkSpec(twin, spec.final_indices, spec.state)


class TestDtypes:
    def test_grover_data_is_real(self):
        g, spec = cube_spec()
        cay = graphs.cayley_hypercube(3)
        assert walk.grover_coin(3).matrix.dtype == F64
        assert spec.walk.block.dtype == spec.walk.matrix.dtype == F64
        assert hitting.symmetric_state(g, 0).dtype == hitting.basis_state(g, 0, 1).dtype == F64
        assert spec.state.dtype == spec.rho0.dtype == F64
        lw = quotient.hypercube_line_reduction(4)
        assert lw.shift.dtype == lw.coin.dtype == lw.matrix.dtype == F64
        basis = quotient.orbit_basis(full_direction_group(cay), spec.dim)
        assert quotient.quotient_walk(spec.walk, basis).dtype == F64

    def test_dft_and_phased_walks_are_complex(self):
        _, spec = cube_spec(coin=walk.dft_coin)
        assert walk.dft_coin(3).matrix.dtype == C128
        assert spec.walk.block.dtype == spec.walk.matrix.dtype == C128
        _, grover = cube_spec()
        phased = walk.WalkOperator(np.exp(0.7j) * grover.walk.matrix)
        assert phased.block.dtype == phased.matrix.dtype == C128

    def test_integer_and_single_precision_data_widen(self):
        assert walk.custom_coin(np.array([[0, 1], [1, 0]])).matrix.dtype == F64
        assert walk.WalkOperator(np.eye(2, dtype=np.complex64)).block.dtype == C128

    def test_channels_record_the_dtype_of_their_data(self, rng):
        g, _ = cube_spec(4)
        assert deco.dephasing_channel("coin", 0.5, g.num_vertices, 4).dtype == F64
        assert deco.swap_dephasing_example(4, [0.6, 0.0, 0.8]).dtype == F64
        kappas = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert deco.swap_dephasing_example(4, kappas / np.linalg.norm(kappas)).dtype == C128
        assert deco.Channel((np.eye(3),)).dtype == F64
        assert deco.Channel((np.eye(3, dtype=complex),)).dtype == C128


class TestStepDtypes:
    """The dtypes that WalkOperator.apply receives while a series steps."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        apply = walk.WalkOperator.apply

        def recorded(op, x):
            seen.append(x.dtype)
            return apply(op, x)

        monkeypatch.setattr(walk.WalkOperator, "apply", recorded)
        return seen

    @pytest.mark.parametrize("coin, dtype", [(walk.grover_coin, F64), (walk.dft_coin, C128)])
    def test_series_steps_in_the_walk_dtype(self, seen, monkeypatch, coin, dtype):
        """The unitary series steps its own gathers: each stepped state, read
        at the finals, is in the walk's dtype.  The decohered series applies
        the walk: the first step gets the real start, every later one the
        walk's dtype."""
        g, spec = cube_spec(coin=coin)
        stepped, vdot = [], np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: stepped.append(b.dtype) or vdot(a, b))
        hitting.hitting_time_series(spec, 1e-6)
        monkeypatch.setattr(np, "vdot", vdot)
        assert len(stepped) > 1 and set(stepped) == {dtype} and not seen
        ch = deco.dephasing_channel("coin", 0.5, g.num_vertices, g.degree_value)
        deco.decohered_hitting_series(spec, ch, 1e-6)
        assert len(seen) > 1 and seen[0] == F64 and set(seen[1:]) == {dtype}


def same(got, want, rel=1e-12):
    assert got.method == want.method and got.kind == want.kind
    if want.is_finite:
        assert got.value == pytest.approx(want.value, rel=rel)
    else:
        assert got.escape_probability == pytest.approx(want.escape_probability, rel=rel)


def series_or_none(spec):
    try:
        return hitting.hitting_time_series(spec, 1e-8, step_cap=20_000)
    except IndeterminateError:
        return None


def slope_or_none(spec, kind, p):
    try:
        return deco.hitting_time_slope(spec, kind, p)
    except ValueError:
        return None


@pytest.mark.parametrize("name", [name for name, spec in battery() if spec.walk.block.dtype == F64])
def test_complex_twin_gives_the_same_numbers(name):
    """Real arithmetic against the complex twin of each real walk of the
    battery: closed form, series, decohered value and slope, to 1e-12
    relative."""
    spec = dict(battery())[name]
    twin = complex_twin(spec)
    assert twin.walk.block.dtype == C128
    same(hitting.hitting_time_closed_form(spec), hitting.hitting_time_closed_form(twin))
    series, twin_series = series_or_none(spec), series_or_none(twin)
    assert (series is None) == (twin_series is None)
    if series is not None:
        same(series, twin_series)
        assert series.truncation == twin_series.truncation
    g = spec.walk.graph
    for kind, p in (("both", 0.5), ("coin", 0.25), ("position", 0.75)):
        ch = deco.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
        same(deco.decohered_hitting_time(spec, ch), deco.decohered_hitting_time(twin, ch))
        slope, twin_slope = slope_or_none(spec, kind, p), slope_or_none(twin, kind, p)
        assert (slope is None) == (twin_slope is None)
        if slope is not None:
            assert slope == pytest.approx(twin_slope, rel=1e-12)
