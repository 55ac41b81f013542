"""NaN input fails every tolerance check: each check reads ``not x <= atol``,
since a comparison with NaN is False."""

import re

import numpy as np
import pytest

from qwlab import decoherence, graphs, groups, hitting, quotient, spectral, walk
from qwlab.errors import SymmetryError

NAN = float("nan")


def cube3():
    g = graphs.build_hypercube(3)
    return g, walk.evolution_operator(g, walk.grover_coin(3))


def nan_start_vector():
    g, op = cube3()
    psi = hitting.symmetric_state(g, 0).copy()
    psi[0] = NAN
    return hitting.measured_walk(op, psi, final_vertices=[7])


def nan_density(i, j):
    g, op = cube3()
    rho = np.eye(24) / 24
    rho[i, j] = rho[j, i] = NAN
    return hitting.measured_walk(op, rho, final_vertices=[7])


def nan_walk_series():
    psi = np.zeros(4)
    psi[0] = 1.0
    spec = hitting.measured_walk(walk.WalkOperator(np.full((4, 4), NAN)), psi, final_indices=[3])
    return hitting.hitting_time_series(spec, 1e-6)


def cube3_swap():
    """hypercube:3 and the lift of the direction transposition (1,2)."""
    cay = graphs.cayley_hypercube(3)
    return cay.graph, [groups.direction_perm_to_automorphism(cay, groups.parse_cycles("(1,2)", 3))]


def cube3_subgroup_basis():
    g, gens = cube3_swap()
    return g, quotient.orbit_basis(gens, 24)


def nan_quotient_coin():
    g, basis = cube3_subgroup_basis()
    _, qg = quotient.quotient_shift_and_graph(graphs.shift_permutation(g), basis, graph=g)
    return quotient.quotient_coin(np.full((basis.num_orbits,) * 2, NAN), qg)


def nan_coin_overlap():
    g, op = cube3()  # the dense report, whose blocks read the untrapped basis
    report = spectral.infinite_hitting_projector(op.matrix, np.arange(21, 24))
    vars(report)["untrapped"] = np.full_like(report.untrapped, NAN)  # W, built on read
    return spectral.coin_overlap_matrix(report, g, 0)


def nan_dfs_basis():
    lset = decoherence.LindbladSet((np.eye(2),), (1.0,))
    return decoherence.dfs_check_lindblad(lset, np.array([[NAN], [0.0]]))


RAISES = {
    "custom-coin": (lambda: walk.custom_coin(np.array([[NAN, 0.0], [0.0, 1.0]])),
                    ValueError, "coin is not unitary"),
    "hamiltonian": (lambda: walk.continuous_propagator(np.array([[NAN, 1.0], [1.0, 0.0]]), 1.0),
                    ValueError, "Hamiltonian must be symmetric"),
    "start-vector": (nan_start_vector, ValueError, "start state must be normalized"),
    "rho0-trace": (lambda: nan_density(0, 0), ValueError, "rho0 must have unit trace"),
    "rho0-hermitian": (lambda: nan_density(0, 1), ValueError, "rho0 must be Hermitian"),
    "first-hit-probability": (nan_walk_series, ValueError, "negative first-hit probability"),
    "kraus-operator": (lambda: decoherence.Channel([np.full((2, 2), NAN)]),
                       ValueError, "Kraus completeness violated"),
    "monomial-weights": (
        lambda: decoherence.Channel._from_monomials(np.arange(4)[None, :], np.full((1, 4), NAN)),
        ValueError, "Kraus completeness violated",
    ),
    "lindblad-rate": (lambda: decoherence.LindbladSet((np.eye(2),), (NAN,)),
                      ValueError, "rates must be positive"),
    "swap-kappa": (lambda: decoherence.swap_dephasing_example(3, [NAN, NAN]),
                   ValueError, "sum |kappa|^2 = nan != 1"),
    "dfs-basis": (nan_dfs_basis, ValueError, "basis columns must be orthonormal"),
    "quotient-walk": (
        lambda: quotient.quotient_walk(np.full((24, 24), NAN), cube3_subgroup_basis()[1]),
        SymmetryError, "walk leaks out of the symmetric subspace",
    ),
    "quotient-coin": (nan_quotient_coin, ValueError, "coin block not unitary"),
    "coin-overlap": (nan_coin_overlap, ValueError, "coin-overlap block not Hermitian"),
}


@pytest.mark.parametrize("case", RAISES)
def test_nan_raises_the_existing_error(case):
    call, error, message = RAISES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_nan_lindblad_operator_is_not_scalar():
    lset = decoherence.LindbladSet((np.full((2, 2), NAN),), (1.0,))
    verdict = decoherence.dfs_check_lindblad(lset, np.eye(2))
    assert not verdict.is_dfs
    assert verdict.witness[:2] == (0, 0)


def test_nan_walk_does_not_commute():
    check = quotient.check_walk_symmetry(np.full((24, 24), NAN), cube3_swap()[1])
    assert not check.commutes
    assert np.isnan(check.max_residual)
