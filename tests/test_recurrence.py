"""Quantized recurrence: hitting times that theory gives as exact integers.

A walk measured at its own start returns in an expected time fixed by the
start's cyclic subspace, whatever the walk:

- *Pure start.*  Start at psi = e_i with final index i: the expected
  first-return time is dim span{U^t psi} (Grünbaum, Velázquez, Werner &
  Werner, Commun. Math. Phys. 320, 543 (2013)).
- *Subspace.*  Start maximally mixed on a final subspace F: the time is
  dim span{U^t F} / dim F (Bourgain, Grünbaum, Velázquez & Wilkening,
  Commun. Math. Phys. 329, 1031 (2014)).
- *Kac.*  Under a unital channel that mixes the whole space, the same
  start returns in D / dim F (Sinkovicz, Kurucz, Kiss & Asbóth, PRA 91,
  042108 (2015)).

The references here need no oracle: the cyclic dimension is a block
Arnoldi rank of U, computed below from U alone, and D / d is a ratio of
sizes.  The closed forms must meet them to 1e-9 relative, and the series,
which sum a nonnegative tail short of epsilon, from below to 1e-7.  F is
a vertex's d coin states: every vertex's for the subspace identity, vertex
0's elsewhere.  On two disjoint cycles the start's component never meets
the other, so I - N is singular and the same integers check the
pseudo-inverse route.
"""

import functools

import numpy as np
import pytest

from qwlab import cli, decoherence, hitting, spectral, walk

from conftest import two_cycles

WALKS = ["hypercube:3", "hypercube:4", "cycle:8", "distorted-hypercube:4", "cayley:s4:3gen"]
COINS = ["grover", "dft"]
KAC_WALKS = ["hypercube:3", "cycle:8", "distorted-hypercube:4"]
KINDS = ["coin", "position", "both"]
RTOL = 1e-9
SERIES_EPSILON = 1e-10
SERIES_RTOL = 1e-7


@functools.lru_cache(maxsize=None)
def built(descriptor: str, coin: str):
    """(graph, walk operator) as the CLI builds them."""
    g, _, _ = cli.resolve_graph(descriptor, None)
    return g, walk.evolution_operator(g, cli.resolve_coin(coin, g.degree_value))


def krylov_rank(u: np.ndarray, block: np.ndarray, tol: float = 1e-8) -> int:
    """dim span{U^t B}, by block Arnoldi: each new block U Q is orthogonalized
    twice against the basis so far, and its directions above ``tol`` join
    it, until none is left."""
    basis = [np.linalg.qr(block)[0]]
    while True:
        w = u @ basis[-1]
        whole = np.hstack(basis)
        for _ in range(2):
            w = w - whole @ (whole.conj().T @ w)
        left, sv, _ = np.linalg.svd(w, full_matrices=False)
        if not (sv > tol).any():
            return whole.shape[1]
        basis.append(left[:, sv > tol])


def pure_spec(descriptor: str, coin: str, i: int):
    _, op = built(descriptor, coin)
    start = np.zeros(op.dim)
    start[i] = 1.0
    return hitting.measured_walk(op, start, final_indices=[i])


def mixed_on_vertex(g, op, v: int = 0):
    """The start maximally mixed on vertex v's coin states, those states final."""
    d = g.degree_value
    states = np.arange(v * d, (v + 1) * d)
    rho = np.zeros((op.dim, op.dim))
    rho[states, states] = 1.0 / d
    spec = hitting.measured_walk(op, rho, final_vertices=[v])
    assert spec.final_array.tolist() == states.tolist()
    return spec


def subspace_spec(descriptor: str, coin: str, v: int = 0):
    return mixed_on_vertex(*built(descriptor, coin), v)


def return_time(spec) -> float:
    """The cyclic-subspace reference: dim span{U^t F} / dim F."""
    fin = spec.final_array
    return krylov_rank(spec.walk.matrix, np.eye(spec.dim)[:, fin]) / fin.size


def index(descriptor: str, which: str) -> int:
    dim = built(descriptor, "grover")[1].dim
    return {"first": 0, "second": 1, "last": dim - 1}[which]


@pytest.mark.parametrize("which", ["first", "second", "last"])
@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("descriptor", WALKS)
def test_pure_start_returns_in_its_krylov_rank(descriptor, coin, which):
    spec = pure_spec(descriptor, coin, index(descriptor, which))
    res = hitting.hitting_time_closed_form(spec)
    want = return_time(spec)
    assert want == int(want) and 1 <= want <= spec.dim
    assert res.is_finite and res.value == pytest.approx(want, rel=RTOL)


@pytest.mark.parametrize("n", range(3, 11))
def test_grover_hypercube_returns_in_2n(n):
    # e_0 overlaps 2n eigenphases of the grover n-cube walk, which is
    # trapped for final index 0: the Fourier route's eigenbasis solve in
    # r = 2n dimensions, up to D = 10240 with no D x D array
    spec = pure_spec(f"hypercube:{n}", "grover", 0)
    report = spectral.infinite_hitting_projector(spec.walk, spec.final_array)
    assert report.route == "fourier" and report.untrapped_dim == 2 * n
    res = hitting.hitting_time_closed_form(spec)
    assert res.method == hitting.METHOD_PSEUDO_INVERSE and res.value == pytest.approx(2 * n, rel=1e-10)


@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("descriptor", WALKS)
def test_subspace_start_returns_in_its_block_krylov_rank_over_d(descriptor, coin):
    g, _ = built(descriptor, coin)
    for v in range(g.num_vertices):
        spec = subspace_spec(descriptor, coin, v)
        res = hitting.hitting_time_closed_form(spec)
        assert res.is_finite and res.value == pytest.approx(return_time(spec), rel=RTOL), v


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("descriptor", KAC_WALKS)
def test_dephased_subspace_start_returns_in_d_over_dim_f(descriptor, coin, kind, p):
    g, _ = built(descriptor, coin)
    spec = subspace_spec(descriptor, coin)
    ch = decoherence.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
    res = decoherence.decohered_hitting_time(spec, ch)
    assert res.is_finite and res.value == pytest.approx(spec.dim / g.degree_value, rel=RTOL)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("descriptor", KAC_WALKS)
def test_dephased_pure_start_returns_in_d(descriptor, coin, kind):
    # measured, not assumed: e_0 with final index 0 returns in D, but for
    # grover cycle:8 in D / 2: its d = 2 coin is a swap, so the walk only
    # permutes basis states, which every dephasing channel leaves alone
    g, _ = built(descriptor, coin)
    spec = pure_spec(descriptor, coin, 0)
    want = spec.dim / 2 if (descriptor, coin) == ("cycle:8", "grover") else spec.dim
    for p in (0.25, 0.5, 1.0):
        ch = decoherence.dephasing_channel(kind, p, g.num_vertices, g.degree_value)
        res = decoherence.decohered_hitting_time(spec, ch)
        assert res.is_finite and res.value == pytest.approx(want, rel=RTOL), p


@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_two_cycles_return_in_the_component_dimension_over_d(n, coin):
    # vertex 0's n-cycle never meets the other one, so I - N is singular
    # with and without dephasing, and the pseudo-inverse gives the return
    # time of the component, whose 2n states give 2n / d = n
    g = two_cycles(n)
    spec = mixed_on_vertex(g, walk.evolution_operator(g, cli.resolve_coin(coin, 2)))
    assert return_time(spec) == n
    results = [hitting.hitting_time_closed_form(spec)] + [
        decoherence.decohered_hitting_time(spec, decoherence.dephasing_channel(kind, p, 2 * n, 2))
        for kind in KINDS
        for p in (0.5, 1.0)
    ]
    for res in results:
        assert res.method == hitting.METHOD_PSEUDO_INVERSE and res.value == pytest.approx(n, rel=RTOL)


# measured, not assumed: swap dephasing (equal kappas) mixes the dft walks
# to the Kac value D / d, and leaves the grover walks at their unitary
# value, dim span{U^t F} / d, because the grover walk commutes with the
# direction swaps and the start is invariant under them
SWAP_DEPHASED = {
    ("hypercube:3", "grover"): 6.0,
    ("hypercube:3", "dft"): 8.0,
    ("hypercube:4", "grover"): 8.0,
    ("hypercube:4", "dft"): 16.0,
}


@pytest.mark.parametrize("descriptor, coin", sorted(SWAP_DEPHASED))
def test_swap_dephased_subspace_start_pinned(descriptor, coin):
    g, _ = built(descriptor, coin)
    n = g.degree_value
    spec = subspace_spec(descriptor, coin)
    ch = decoherence.swap_dephasing_example(n, [1 / np.sqrt(n - 1)] * (n - 1))
    res = decoherence.decohered_hitting_time(spec, ch)
    want = SWAP_DEPHASED[descriptor, coin]
    assert res.is_finite and res.value == pytest.approx(want, rel=RTOL)
    assert want == (spec.dim / n if coin == "dft" else return_time(spec))


def assert_series_from_below(res, want):
    assert res.is_finite and res.arrival_mass >= 1.0 - SERIES_EPSILON
    assert want * (1.0 - SERIES_RTOL) <= res.value <= want * (1.0 + 1e-12)


# the dft distorted-hypercube:4 series from e_i converges too slowly to sum
@pytest.mark.parametrize("descriptor, coin", [(w, c) for w in WALKS for c in COINS
                                              if (w, c) != ("distorted-hypercube:4", "dft")])
def test_series_meets_the_return_times(descriptor, coin):
    for spec in (pure_spec(descriptor, coin, 0), subspace_spec(descriptor, coin)):
        res = hitting.hitting_time_series(spec, SERIES_EPSILON, step_cap=20_000)
        assert_series_from_below(res, return_time(spec))


@pytest.mark.parametrize("kind", ["coin", "both"])
@pytest.mark.parametrize("coin", COINS)
@pytest.mark.parametrize("descriptor", ["hypercube:3", "cycle:8"])
def test_decohered_series_meets_the_kac_time(descriptor, coin, kind):
    g, _ = built(descriptor, coin)
    spec = subspace_spec(descriptor, coin)
    ch = decoherence.dephasing_channel(kind, 0.5, g.num_vertices, g.degree_value)
    res = decoherence.decohered_hitting_series(spec, ch, SERIES_EPSILON, step_cap=20_000)
    assert_series_from_below(res, spec.dim / g.degree_value)
