"""Protocol builders: achieved fidelities and structural claims."""

import math

import numpy as np
import pytest

from locce.tensor import (
    BELL_CORRECTIONS,
    StateVector,
    apply_to_batch,
    bell_vectors,
    generalized_bell_vectors,
)
from locce.families import (
    Ensemble,
    Graph,
    PartyLayout,
    bell_basis,
    ghz_basis,
    lattice_basis,
    parametric_basis,
)
from locce.fidelity import average_fidelity, mes_bound, separable_bound
from locce.protocols import (
    Leaf,
    flatten_to_povm,
    run_protocol,
    tree_to_json,
    validate_one_way,
)
from locce.zoo import (
    computational_protocol,
    ghz_subset_bell_protocol,
    ghz_subset_family,
    graph_decode_protocol,
    graph_outcome_table,
    lattice_partial_teleport,
    partitioned_ghz_protocol,
    sequential_bell_protocol,
    standard_zoo,
    teleportation_protocol,
    vidal_then_fallback,
)

from dense_reference import branch_kraus

S2 = 1 / math.sqrt(2)


# -- teleportation ------------------------------------------------------------

def test_teleportation_corrections_match_pauli_convention():
    _problem, tree = teleportation_protocol(bell_basis(), "A", "B")
    undos = [child.instrument for child in tree.children]
    assert [u.labels for u in undos] == [(f"undo:{k}",) for k in range(4)]
    assert all(u.party == "B" and u.targets == (1,) for u in undos)
    got = [u.kraus[0] for u in undos]
    for g, want in zip(got, BELL_CORRECTIONS, strict=True):
        # equality up to a global phase
        phase = np.vdot(want.reshape(-1), g.reshape(-1)) / 2
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(g, phase * want)


def test_teleportation_bell_basis():
    problem, tree = teleportation_protocol(bell_basis(), "A", "B")
    assert problem.resource.dims == (2, 2)
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)
    assert validate_one_way(tree, ("A", "B"))


def test_teleportation_parametric_and_lattice():
    problem, tree = teleportation_protocol(parametric_basis(0.9, 0.8), "A", "B")
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)
    problem, tree = teleportation_protocol(lattice_basis(1), "A", "B")
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)


def _teleport_generalized_bell(d, sender="A", receiver="B"):
    """Teleport the d x d generalized Bell basis and check that final outcome
    j decodes to member j: a wrong Weyl correction permutes the members,
    which the fidelity alone does not show."""
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    states = [StateVector((d, d), row) for row in generalized_bell_vectors(d)]
    ens = Ensemble(layout, tuple((1 / d ** 2, s) for s in states))
    problem, tree = teleportation_protocol(ens, sender, receiver)
    assert problem.resource.dims == (d, d)
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)
    assert all(path[-1] == guess for path, guess in _leaf_guesses(tree))
    assert validate_one_way(tree, (sender, receiver))


def test_teleportation_qutrit_ensemble():
    _teleport_generalized_bell(3)


@pytest.mark.parametrize("sender, receiver", [("A", "B"), ("B", "A")])
def test_teleportation_ququart_ensemble(sender, receiver):
    _teleport_generalized_bell(4, sender, receiver)


@pytest.mark.parametrize("sender, receiver", [("A", "B"), ("B", "A")])
def test_teleportation_two_qubits_per_party(sender, receiver):
    # each party's unknown share spans two subsystems, behind one d = 4 resource half
    problem, tree = teleportation_protocol(lattice_basis(2), sender, receiver)
    assert problem.resource.dims == (4, 4)
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)
    assert all(path[-1] == guess for path, guess in _leaf_guesses(tree))
    assert validate_one_way(tree, (sender, receiver))


@pytest.mark.parametrize("sender, receiver", [("A", "B"), ("B", "A")])
def test_teleportation_takes_each_side_in_layout_order(sender, receiver):
    # lattice_basis(2) with A = (2, 0), B = (3, 1): each party's block out of order
    ens = Ensemble(PartyLayout((("A", (2, 0)), ("B", (3, 1)))), lattice_basis(2).members)
    problem, tree = teleportation_protocol(ens, sender, receiver)
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)
    assert all(path[-1] == guess for path, guess in _leaf_guesses(tree))


def test_teleportation_reversed_direction():
    problem, tree = teleportation_protocol(bell_basis(), "B", "A")
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)
    assert validate_one_way(tree, ("B", "A"))


def test_teleportation_requires_bipartite():
    with pytest.raises(ValueError):
        teleportation_protocol(ghz_basis(3, (1, 1, 1)), "A1", "A2")


# -- lattice ------------------------------------------------------------------

@pytest.mark.parametrize("n,m,expected", [
    (1, 1, 1.0), (2, 1, 0.5), (2, 2, 1.0), (3, 1, 0.25), (3, 2, 0.5),
])
def test_lattice_partial_teleport_values(n, m, expected):
    problem, tree = lattice_partial_teleport(n, m)
    assert run_protocol(problem, tree).fidelity == pytest.approx(expected, abs=1e-9)
    assert validate_one_way(tree, ("A", "B"))


def test_lattice_partial_teleport_range():
    with pytest.raises(ValueError):
        lattice_partial_teleport(2, 3)
    with pytest.raises(ValueError):
        lattice_partial_teleport(2, 0)


def test_lattice_resource_free_computational_saturates_bound():
    problem, tree = computational_protocol(lattice_basis(2))
    f = run_protocol(problem, tree).fidelity
    assert f == pytest.approx(mes_bound(16, 4), abs=1e-9)


# -- sequential Bell chain ----------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_sequential_bell_perfect(n):
    problem, tree = sequential_bell_protocol(n)
    result = run_protocol(problem, tree)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    # all but one member eliminated on every completed branch
    assert result.survivors_after_measurement_round(n) == (1,)


def test_sequential_bell_elimination_schedule():
    problem, tree = sequential_bell_protocol(3)
    result = run_protocol(problem, tree)
    # first measurement eliminates nothing, second halves the field
    assert result.survivors_after_measurement_round(1) == (8,)
    assert result.survivors_after_measurement_round(2) == (4,)


def test_sequential_bell_order_wiring():
    # joint subsystems: resource qubits A1 0, A2 1, A3 2; unknown qubits 3, 4, 5
    _, root = sequential_bell_protocol(3, ("A2", "A3", "A1"))
    assert (root.instrument.party, root.instrument.targets) == ("A2", (1, 4))
    assert root.instrument.labels == ("phi+", "phi-", "psi+", "psi-")
    for k, undo in enumerate(root.children):
        inst = undo.instrument
        assert (inst.party, inst.targets, inst.labels) == ("A3", (2,), (f"undo:{k}",))
        assert np.array_equal(inst.kraus[0], BELL_CORRECTIONS[k])
        (bell,) = undo.children
        assert (bell.instrument.party, bell.instrument.targets) == ("A3", (2, 5))
        assert bell.instrument.n_outcomes == 4


def test_sequential_bell_shares_one_instrument_per_step_and_outcome():
    _, tree = sequential_bell_protocol(5)
    rounds, instruments, stack = 0, set(), [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, Leaf):
            rounds += 1
            instruments.add(id(node.instrument))
            stack.extend(node.children)
    assert rounds == 1 + 8 + 32 + 128 + 512  # a Bell round, then undo and Bell per outcome
    # 5 Bell rounds, and 4 undo instruments for each of the 4 undo steps
    assert len(instruments) == 5 + 4 * 4


def test_sequential_bell_order_invariance():
    base = run_protocol(*sequential_bell_protocol(3)).fidelity
    problem, tree = sequential_bell_protocol(3, order=("A2", "A3", "A1"))
    assert run_protocol(problem, tree).fidelity == pytest.approx(base, abs=1e-9)


# -- partitioned GHZ ----------------------------------------------------------

@pytest.mark.parametrize("n,sizes", [(4, (2, 2)), (4, (3, 1)), (3, (2, 1))])
def test_partitioned_ghz_perfect(n, sizes):
    problem, tree = partitioned_ghz_protocol(n, sizes)
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)


def test_partitioned_ghz_trivial_partition_matches_sequential():
    for n in (2, 3, 4):
        p1, t1 = partitioned_ghz_protocol(n, (1,) * n)
        p2, t2 = sequential_bell_protocol(n)
        assert tree_to_json(t1) == tree_to_json(t2)
        assert p1.joint.layout == p2.joint.layout
        assert p1.joint.amplitude_matrix().tobytes() == p2.joint.amplitude_matrix().tobytes()


# -- graph decoding -----------------------------------------------------------

@pytest.mark.parametrize("graph", [
    Graph.path(2), Graph.path(3), Graph.complete(3), Graph.star(4), Graph.cycle(4),
    Graph(3, frozenset()),
])
def test_graph_decode_perfect(graph):
    problem, tree = graph_decode_protocol(graph)
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)


def _leaf_guesses(node, path=()):
    if isinstance(node, Leaf):
        yield path, node.guess
        return
    for k, child in enumerate(node.children):
        yield from _leaf_guesses(child, path + (k,))


@pytest.mark.parametrize("graph", [
    Graph.path(2), Graph.path(3), Graph.complete(3), Graph.star(4), Graph.cycle(4),
    Graph.complete(4), Graph(3, frozenset()), Graph.cycle(5),
])
def test_graph_decode_leaves_match_outcome_table(graph):
    _problem, tree = graph_decode_protocol(graph)
    assert dict(_leaf_guesses(tree)) == graph_outcome_table(graph)


def test_graph_outcome_multiplicity():
    graph = Graph.star(4)
    table = graph_outcome_table(graph)
    assert len(table) == 4 ** 4
    counts = {}
    for member in table.values():
        counts[member] = counts.get(member, 0) + 1
    assert set(counts.keys()) == set(range(16))
    assert set(counts.values()) == {2 ** 4}


def test_graph_branch_probability_formula():
    # P(outcome tuple | member x) = |<psi_x| sigma |fiducial>|^2 / 2^N
    graph = Graph.complete(3)
    problem, tree = graph_decode_protocol(graph)
    result = run_protocol(problem, tree)
    ens = problem.ensemble
    members = ens.amplitude_matrix()
    base = ens.states[0].amps
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    sigmas = [np.eye(2, dtype=complex), z, x, x @ z]
    n = graph.vertex_count
    for branch in result.branches:
        combo = tuple(step.outcome for step in branch.steps)
        op = np.ones((1, 1), dtype=complex)
        for k in combo:
            op = np.kron(op, sigmas[k])
        expected = np.abs(members.conj() @ (op @ base)) ** 2 / 2 ** n
        assert np.max(np.abs(branch.member_probabilities - expected)) < 1e-9


def test_graph_triangle_consistent_with_ghz_chain():
    f_graph = run_protocol(*graph_decode_protocol(Graph.complete(3))).fidelity
    f_ghz = run_protocol(*sequential_bell_protocol(3)).fidelity
    assert f_graph == pytest.approx(f_ghz, abs=1e-12)


# -- four-state GHZ subset with a Bell pair on B, C ---------------------------

def test_ghz_subset_protocol_perfect():
    problem, tree = ghz_subset_bell_protocol()
    assert run_protocol(problem, tree).fidelity == pytest.approx(1.0, abs=1e-9)


def test_ghz_subset_intermediate_mapping_table():
    """After A's plus/minus round and B's conditional flip, each member
    leaves the matching Bell state on the unknown (B, C) qubits."""
    problem, tree = ghz_subset_bell_protocol()
    joint = problem.joint
    dims = joint.dims
    plus = np.array([S2, S2], dtype=complex)
    minus = np.array([S2, -S2], dtype=complex)
    z_on_b = np.diag([1.0, -1.0]).astype(complex)
    bell = bell_vectors()
    resource = bell[0]
    for i, (_, member) in enumerate(joint.members):
        for sign, a_vec in ((0, plus), (1, minus)):
            post = apply_to_batch(np.outer(a_vec, a_vec.conj()), (2,), member.amps, dims)
            if sign == 1:
                post = apply_to_batch(z_on_b, (3,), post, dims)
            post = post / np.linalg.norm(post)
            # expected: resource on (0,1) x |a> on 2 x bell_i on (3,4),
            # which is already the joint subsystem order
            expected = np.kron(np.kron(resource, a_vec), bell[i])
            assert abs(abs(np.vdot(expected, post)) - 1.0) < 1e-9


def test_ghz_subset_without_resource_is_half():
    problem, tree = computational_protocol(ghz_subset_family())
    assert run_protocol(problem, tree).fidelity == pytest.approx(0.5, abs=1e-9)


# -- conversion-then-fallback -------------------------------------------------

def test_vidal_then_fallback_composition():
    resource = StateVector((2, 2), [math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
    _, fb_tree = computational_protocol(bell_basis())
    f = vidal_then_fallback(bell_basis(), resource, 2, fb_tree)
    assert f == pytest.approx(0.7, abs=1e-9)


def test_vidal_then_fallback_bell_resource_is_perfect():
    resource = StateVector((2, 2), bell_vectors()[0])
    _, fb_tree = computational_protocol(bell_basis())
    assert vidal_then_fallback(bell_basis(), resource, 2, fb_tree) == pytest.approx(1.0)


def test_vidal_then_fallback_product_resource_is_fallback():
    resource = StateVector((2, 2), np.eye(4)[0])
    _, fb_tree = computational_protocol(bell_basis())
    assert vidal_then_fallback(bell_basis(), resource, 2, fb_tree) == pytest.approx(0.5)


def test_vidal_then_fallback_entangled_resources_always_help():
    rng = np.random.default_rng(53)
    _, fb_tree = computational_protocol(bell_basis())
    for _ in range(10):
        lam = rng.uniform(0.05, 0.5)
        resource = StateVector((2, 2), [math.sqrt(1 - lam), 0, 0, math.sqrt(lam)])
        f = vidal_then_fallback(bell_basis(), resource, 2, fb_tree)
        assert f > 0.5 + 1e-9


# -- registry-wide checks -----------------------------------------------------

def test_zoo_expected_fidelities():
    for entry in standard_zoo():
        f = run_protocol(entry.problem, entry.tree).fidelity
        assert f == pytest.approx(entry.expected_fidelity, abs=1e-9), entry.name


def test_zoo_fidelities_sit_under_the_separable_bound():
    entries = standard_zoo()
    assert len(entries) == 16
    mes = 0
    for entry in entries:
        bound = separable_bound(entry.problem.joint)
        f = run_protocol(entry.problem, entry.tree).fidelity
        assert f <= bound + 1e-9, entry.name
        if entry.mes is not None:
            mes += 1
            assert bound == pytest.approx(mes_bound(*entry.mes), abs=1e-9), entry.name
    assert mes == 6


def test_zoo_one_way_claims():
    for entry in standard_zoo():
        if entry.one_way_order is not None:
            assert validate_one_way(entry.tree, entry.one_way_order), entry.name


def test_zoo_flatten_consistency_sample():
    for entry in standard_zoo()[:4]:
        res = run_protocol(entry.problem, entry.tree)
        povm, guesses = flatten_to_povm(entry.tree, entry.problem)
        flat = average_fidelity(entry.problem.joint, povm, guesses)
        assert flat == pytest.approx(res.fidelity, abs=1e-9), entry.name


@pytest.mark.parametrize("name", ["lattice-2-2", "partitioned-ghz-4-22"])
def test_zoo_flatten_emits_thin_factors(name):
    (entry,) = [e for e in standard_zoo() if e.name == name]
    d = entry.problem.joint.dim
    povm, _ = flatten_to_povm(entry.tree, entry.problem)
    factors = povm.factors
    assert len(factors) == povm.n_outcomes == d
    assert sum(len(c) for c in factors) == d  # every branch element has rank 1
    assert sum(c.nbytes for c in factors) < 2 * d * d * 16


def _instruments(node):
    if not isinstance(node, Leaf):
        yield node.instrument
        for child in node.children:
            yield from _instruments(child)


@pytest.mark.parametrize("name", ["lattice-2-2", "partitioned-ghz-4-22"])
def test_zoo_flatten_factors_contracted_rows_and_skips_unitary_rounds(name, monkeypatch):
    (entry,) = [e for e in standard_zoo() if e.name == name]
    instruments = list(_instruments(entry.tree))
    assert any(inst.n_outcomes == 1 for inst in instruments)
    assert all(inst.n_outcomes == 1 or inst._rank_one is not None for inst in instruments)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    flatten_to_povm(entry.tree, entry.problem)
    # rank-one rounds contract <w| on un-held qubits and single-outcome rounds keep the rows
    assert shapes == []


def test_zoo_flatten_makes_no_svd(monkeypatch):
    entries = standard_zoo()
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape) or svd(a, *args, **kw))
    for entry in entries:
        flatten_to_povm(entry.tree, entry.problem)
        assert calls == [], entry.name


def test_zoo_flatten_factor_ranks_match_the_dense_kraus_products():
    for entry in standard_zoo():
        povm, _ = flatten_to_povm(entry.tree, entry.problem)
        ranks = []
        for k in branch_kraus(entry.tree, entry.problem.joint.dims):
            # all-zero rows and columns change no rank, and dropping them keeps it cheap
            k = k[np.any(k != 0, axis=1)][:, np.any(k != 0, axis=0)]
            ranks.append(int(np.linalg.matrix_rank(k)))
        assert [len(c) for c in povm.factors] == ranks, entry.name
