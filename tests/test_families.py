"""State-family constructors: members, layouts, stabilizer relations."""

import functools
import math

import numpy as np
import pytest

from locce.tensor import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_to_batch,
    entanglement_entropy,
    schmidt,
)
from locce.families import (
    Ensemble,
    Graph,
    PartyLayout,
    bell_basis,
    coarsen,
    ghz_basis,
    ghz_state,
    graph_state_basis,
    lattice_basis,
    parametric_basis,
)

from dense_reference import embed_operator

S2 = 1 / math.sqrt(2)


def party_cut(ens, names_a, names_b):
    return ens.layout.subsystems_of(names_a), ens.layout.subsystems_of(names_b)


# -- Bell ---------------------------------------------------------------------

def test_bell_basis_members():
    ens = bell_basis()
    assert np.allclose(ens.states[0].amps, [S2, 0, 0, S2])
    assert np.allclose(ens.states[3].amps, [0, S2, -S2, 0])
    assert ens.is_orthonormal()
    assert np.allclose(ens.priors, 0.25)


def test_priors_and_states_are_built_once_and_priors_are_read_only():
    ens = bell_basis()
    assert ens.priors is ens.priors and ens.states is ens.states
    with pytest.raises(ValueError, match="read-only"):
        ens.priors[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ens.priors *= 2
    assert np.array_equal(ens.priors, [0.25] * 4)


def test_bell_basis_entropies():
    ens = bell_basis()
    for st in ens.states:
        assert entanglement_entropy(st, ((0,), (1,))) == pytest.approx(1.0)


# -- GHZ ----------------------------------------------------------------------

def test_ghz_basis_three_qubits_explicit():
    # independent oracle: enumerate (k, kbar) pairs by hand
    ens = ghz_basis(3, (1, 1, 1))
    assert ens.size == 8
    expected = []
    for k in (0b000, 0b001, 0b010, 0b011):
        for sign in (1, -1):
            amps = np.zeros(8)
            amps[k] = S2
            amps[7 - k] = sign * S2
            expected.append(amps)
    for got, want in zip(ens.states, expected):
        assert np.allclose(got.amps, want)
    assert ens.layout.names == ("A1", "A2", "A3")


def test_ghz_basis_two_qubits_is_bell_basis():
    ens = ghz_basis(2, (1, 1))
    for got, want in zip(ens.states, bell_basis().states):
        assert np.allclose(got.amps, want.amps)


def test_ghz_basis_grouped_parties():
    ens = ghz_basis(4, (2, 2))
    assert ens.size == 16
    assert ens.is_orthonormal()
    assert ens.layout.parties == (("A1", (0, 1)), ("A2", (2, 3)))
    for st in ens.states:
        cut = party_cut(ens, ("A1",), ("A2",))
        assert entanglement_entropy(st, cut) == pytest.approx(1.0)


def test_ghz_basis_max_schmidt_coefficient_half_every_cut():
    ens = ghz_basis(3, (1, 1, 1))
    for names_a, names_b in ens.layout.bipartitions():
        for st in ens.states:
            top = schmidt(st, party_cut(ens, names_a, names_b)).coefficients[0]
            assert top ** 2 == pytest.approx(0.5)


def test_ghz_basis_bad_sizes():
    with pytest.raises(ValueError):
        ghz_basis(3, (1, 1))
    with pytest.raises(ValueError):
        ghz_basis(3, (3,))


def test_ghz_state_values():
    assert np.allclose(ghz_state(2).amps, bell_basis().states[0].amps)
    amps = np.zeros(8)
    amps[0] = amps[7] = S2
    assert np.allclose(ghz_state(3).amps, amps)
    four = ghz_state(4)
    from locce.tensor import all_bipartitions
    for cut in all_bipartitions(4):
        assert entanglement_entropy(four, cut) == pytest.approx(1.0)


def _qubit_pair(a, b) -> Ensemble:
    return Ensemble(PartyLayout((("A", (0,)),)),
                    ((0.5, StateVector((2,), a)), (0.5, StateVector((2,), b))))


def test_is_orthonormal_refuses_an_overlap_that_is_purely_imaginary():
    # <a|b> = i / sqrt 2: the real part of the Gram is the identity
    ens = _qubit_pair(np.array([1, 0]), np.array([1j, 1]) / math.sqrt(2))
    assert np.allclose(ens.gram().real, np.eye(2))
    assert not ens.is_orthonormal()


def test_is_orthonormal_refuses_a_real_basis_that_is_not_orthogonal():
    assert not _qubit_pair(np.array([1, 0]), np.array([1, 1]) / math.sqrt(2)).is_orthonormal()
    assert _qubit_pair(np.array([1, 0]), np.array([0, 1])).is_orthonormal()


# -- Lattice ------------------------------------------------------------------

def test_lattice_basis_one_pair_is_bell():
    ens = lattice_basis(1)
    for got, want in zip(ens.states, bell_basis().states):
        assert np.allclose(got.amps, want.amps)


def test_lattice_basis_two_pairs():
    ens = lattice_basis(2)
    assert ens.size == 16
    assert ens.is_orthonormal()
    assert ens.layout.parties == (("A", (0, 2)), ("B", (1, 3)))
    cut = party_cut(ens, ("A",), ("B",))
    for st in ens.states:
        assert schmidt(st, cut).rank == 4


# -- Graph states -------------------------------------------------------------

def test_graph_empty_two_vertices_gives_plus_minus_products():
    ens, resource, stabs = graph_state_basis(Graph(2, frozenset()))
    plus = np.full(2, S2)
    minus = np.array([S2, -S2])
    expected = [np.kron(a, b) for a in (plus, minus) for b in (plus, minus)]
    for got, want in zip(ens.states, expected):
        assert np.allclose(got.amps, want)
    assert np.allclose(resource.amps, ens.states[0].amps)  # real fiducial


@pytest.mark.parametrize("graph", [
    Graph.path(3),
    Graph.complete(3),
    Graph.star(4),
    Graph.cycle(4),
])
def test_graph_stabilizer_eigen_relations(graph):
    ens, _resource, stabs = graph_state_basis(graph)
    n = graph.vertex_count
    assert ens.is_orthonormal()
    for x, st in enumerate(ens.states):
        for a, stab in enumerate(stabs):
            sign = -1.0 if x >> (n - 1 - a) & 1 else 1.0
            assert np.max(np.abs(stab.entries @ st.amps - sign * st.amps)) < 1e-9


@pytest.mark.parametrize("graph", [
    Graph(1, frozenset()),
    Graph.path(3),
    Graph.complete(4),
    Graph(5, frozenset({(0, 3), (1, 4), (3, 4), (2, 3)})),
])
def test_graph_state_matches_dense_cz_and_pauli_products(graph):
    ens, resource, stabs = graph_state_basis(graph)
    n = graph.vertex_count
    dims = (2,) * n
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    fiducial = np.full(2 ** n, 2 ** (-n / 2), dtype=complex)
    for edge in graph.edges:
        fiducial = embed_operator(cz, edge, dims) @ fiducial
    assert np.allclose(ens.states[0].amps, fiducial, atol=1e-12)
    assert np.allclose(resource.amps, fiducial.conj(), atol=1e-12)
    for a, stab in enumerate(stabs):
        factors = [PAULI_X if q == a else PAULI_Z if q in graph.neighbors(a) else PAULI_I
                   for q in range(n)]
        assert np.array_equal(stab.entries, functools.reduce(np.kron, factors))


def test_graph_pauli_orbit_hits_exactly_one_member():
    graph = Graph.cycle(4)
    ens, _resource, _stabs = graph_state_basis(graph)
    base = ens.states[0].amps
    members = ens.amplitude_matrix()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    paulis = [np.eye(2, dtype=complex), x, z, x @ z]
    rng = np.random.default_rng(29)
    for _ in range(20):
        combo = rng.integers(0, 4, size=4)
        op = np.ones((1, 1), dtype=complex)
        for c in combo:
            op = np.kron(op, paulis[c])
        overlaps = np.abs(members.conj() @ (op @ base)) ** 2
        assert np.sum(overlaps > 1 - 1e-9) == 1
        assert np.sum(overlaps > 1e-9) == 1


def test_star_graph_basis_locally_equivalent_to_ghz_basis():
    # Hadamards on the leaves carry the star basis onto the GHZ basis
    m = 4
    ens, _resource, _stabs = graph_state_basis(Graph.star(m))
    ghz = ghz_basis(m, (1,) * m)
    ghz_members = ghz.amplitude_matrix()
    for st in ens.states:
        vec = st.amps
        for leaf in range(1, m):
            vec = apply_to_batch(HADAMARD, (leaf,), vec, (2,) * m)
        overlaps = np.abs(ghz_members.conj() @ vec)
        assert np.sum(overlaps > 1 - 1e-9) == 1


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))


# -- Parametric family --------------------------------------------------------

def test_parametric_reduces_to_computational():
    ens = parametric_basis(1.0, 1.0)
    eye = np.eye(4)
    order = [0, 3, 1, 2]  # |00>, -|11>, |01>, -|10> up to sign
    for st, col in zip(ens.states, order):
        assert np.abs(np.abs(st.amps) - eye[col]).max() < 1e-12


def test_parametric_reduces_to_bell():
    ens = parametric_basis(S2, S2)
    bell = bell_basis().amplitude_matrix()
    for st in ens.states:
        overlaps = np.abs(bell.conj() @ st.amps)
        assert np.sum(overlaps > 1 - 1e-9) == 1


def test_parametric_orthonormal_generic():
    ens = parametric_basis(0.9, 0.8)
    assert ens.is_orthonormal()


def test_parametric_range_errors():
    with pytest.raises(ValueError):
        parametric_basis(0.5, 0.9)
    with pytest.raises(ValueError):
        parametric_basis(0.9, 1.2)


# -- Layout / coarsening ------------------------------------------------------

def test_coarsen_merges_subsystems():
    layout = PartyLayout((("A", (0,)), ("B", (1,)), ("C", (2,))))
    merged = coarsen(layout, {"A": "X", "B": "X", "C": "Y"})
    assert merged.parties == (("X", (0, 1)), ("Y", (2,)))


def test_coarsen_identity():
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    same = coarsen(layout, {"A": "A", "B": "B"})
    assert same.parties == layout.parties


def test_coarsen_four_to_two_parties():
    ens = ghz_basis(4, (1, 1, 1, 1))
    grouping = {"A1": "L", "A2": "L", "A3": "R", "A4": "R"}
    merged = coarsen(ens.layout, grouping)
    assert merged.subsystems_of(("L",)) == (0, 1)
    assert merged.subsystems_of(("R",)) == (2, 3)
    # coverage unchanged
    assert merged.covers(4)


def test_coarsen_requires_full_grouping():
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    with pytest.raises(ValueError):
        coarsen(layout, {"A": "X"})


def test_layout_validation():
    with pytest.raises(ValueError):
        PartyLayout((("A", (0,)), ("B", (0,))))
    with pytest.raises(ValueError):
        PartyLayout((("A", ()),))
    with pytest.raises(ValueError):
        PartyLayout((("A", (0,)), ("A", (1,))))


def test_ensemble_validation():
    bell = bell_basis()
    with pytest.raises(ValueError):
        Ensemble(bell.layout, tuple((0.5, s) for s in bell.states))  # priors sum to 2
    layout3 = PartyLayout((("A", (0,)), ("B", (1,)), ("C", (2,))))
    with pytest.raises(ValueError):
        Ensemble(layout3, tuple((0.25, s) for s in bell.states))  # layout mismatch


def test_ensemble_refuses_a_nan_prior():
    bell = bell_basis()
    priors = (float("nan"), 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
        Ensemble(bell.layout, tuple(zip(priors, bell.states)))


def test_every_constructor_orthonormal():
    for ens in (
        bell_basis(),
        ghz_basis(3, (1, 1, 1)),
        ghz_basis(4, (2, 2)),
        lattice_basis(2),
        parametric_basis(0.85, 0.95),
        graph_state_basis(Graph.path(3))[0],
    ):
        assert ens.is_orthonormal()
