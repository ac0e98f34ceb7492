"""Protocol trees: attachment, evaluation, flattening, serialization."""

import dataclasses
import gc
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from locce.tensor import (
    StateVector, bell_vectors, entanglement_entropy, generalized_bell_vectors, partial_trace, schmidt,
)
from locce.families import (
    Ensemble, Graph, PartyLayout, bell_basis, coarsen, ghz_basis, ghz_state, lattice_basis,
    single_qubit_layout,
)
from locce import protocols
from locce.fidelity import Povm, average_fidelity, vidal_conversion_probability
from locce.protocols import (
    PRUNE,
    Instrument,
    JointProblem,
    Leaf,
    Round,
    _push_rows,
    attach_resource,
    bell_instrument,
    computational_instrument,
    flatten_to_povm,
    plus_minus_instrument,
    projective_instrument,
    relabel_parties,
    run_protocol,
    tree_from_json,
    tree_to_json,
    unitary_instrument,
    validate_one_way,
    validate_tree,
)
from locce.zoo import (
    build_tree,
    computational_protocol,
    graph_decode_protocol,
    partitioned_ghz_protocol,
    sequential_bell_protocol,
    standard_zoo,
    teleportation_protocol,
)

from dense_reference import branch_kraus, leaf_paths, random_unitary, unshared

S2 = 1 / math.sqrt(2)
ATOL = 1e-9


# -- resource attachment ------------------------------------------------------

def test_attach_bell_resource_to_bell_basis():
    bell = bell_basis()
    resource = StateVector((2, 2), bell_vectors()[0])
    res_layout = PartyLayout((("A", (0,)), ("B", (1,))))
    joint = attach_resource(bell, resource, res_layout)
    assert joint.dim == 16
    assert joint.layout.parties == (("A", (0, 2)), ("B", (1, 3)))
    for (_, member), (_, original) in zip(joint.members, bell.members):
        assert np.allclose(member.amps, np.kron(resource.amps, original.amps))


def test_attach_ghz_resource_layout():
    ens = ghz_basis(4, (2, 2))
    joint = attach_resource(ens, ghz_state(2), single_qubit_layout(2))
    # each party: resource qubit first, then its two unknown qubits
    assert joint.layout.parties == (("A1", (0, 2, 3)), ("A2", (1, 4, 5)))
    assert joint.size == 16


def test_attach_partial_sharing_three_parties():
    from locce.zoo import ghz_subset_family
    ens = ghz_subset_family()
    resource = StateVector((2, 2), bell_vectors()[0])
    res_layout = PartyLayout((("B", (0,)), ("C", (1,))))
    joint = attach_resource(ens, resource, res_layout)
    assert joint.layout.parties == (("A", (2,)), ("B", (0, 3)), ("C", (1, 4)))


def test_joint_problem_takes_no_joint_ensemble_argument():
    with pytest.raises(TypeError):
        JointProblem(bell_basis(), None, None, ghz_basis(3, (1, 1, 1)))
    problem = JointProblem(bell_basis())
    assert problem.joint is problem.ensemble


def test_attach_unknown_party():
    with pytest.raises(KeyError):
        attach_resource(bell_basis(), StateVector((2, 2), bell_vectors()[0]),
                        PartyLayout((("A", (0,)), ("Z", (1,)))))


# -- evaluation ---------------------------------------------------------------

def test_depth_zero_tree_scores_one_over_k():
    problem = JointProblem(bell_basis())
    result = run_protocol(problem, Leaf(0))
    assert result.fidelity == pytest.approx(0.25)
    assert len(result.branches) == 1


def test_branch_probabilities_sum_to_one_per_member():
    problem, tree = computational_protocol(ghz_basis(3, (1, 1, 1)))
    result = run_protocol(problem, tree)
    totals = np.zeros(8)
    for branch in result.branches:
        totals += branch.member_probabilities
    assert np.allclose(totals, 1.0, atol=1e-9)


def test_exact_zero_branches_are_pruned():
    # computational outcomes incompatible with every member never appear
    ens = ghz_basis(3, (1, 1, 1))
    problem, tree = computational_protocol(ens)
    result = run_protocol(problem, tree)
    assert len(result.branches) == 8  # 2^3 surviving outcome strings, not 2 * 4 * 2
    for branch in result.branches:
        assert branch.probability > 0


def test_run_protocol_rejects_foreign_party():
    problem = JointProblem(bell_basis())
    bad = Round(computational_instrument("Z", (0,), (2,)), (Leaf(0), Leaf(1)))
    with pytest.raises(KeyError):
        run_protocol(problem, bad)


def test_run_protocol_rejects_nonlocal_targets():
    problem = JointProblem(bell_basis())
    bad = Round(bell_instrument("A", (0, 1)), tuple(Leaf(0) for _ in range(4)))
    with pytest.raises(ValueError, match="outside"):
        run_protocol(problem, bad)


def test_run_protocol_rejects_bad_member_index():
    problem = JointProblem(bell_basis())
    with pytest.raises(ValueError):
        run_protocol(problem, Leaf(7))


@pytest.mark.parametrize("child", [None, 0, "leaf", (Leaf(1),)])
def test_round_refuses_a_child_that_is_not_a_node_naming_its_index(child):
    with pytest.raises(ValueError, match="round child 1 must be a Round or a Leaf"):
        Round(computational_instrument("A", (0,), (2,)), (Leaf(0), child))


@pytest.mark.parametrize("instrument", [None, "A", computational_instrument("A", (0,), (2,)).kraus])
def test_round_refuses_an_instrument_that_is_not_an_instrument(instrument):
    with pytest.raises(ValueError, match="round instrument must be an Instrument"):
        Round(instrument, (Leaf(0), Leaf(1)))


@pytest.mark.parametrize("root", [5, None, "tree", (Leaf(0),)])
def test_a_root_that_is_not_a_node_is_refused(root):
    problem = JointProblem(bell_basis())
    for call in (lambda: run_protocol(problem, root), lambda: flatten_to_povm(root, problem),
                 lambda: validate_tree(root, problem.joint)):
        with pytest.raises(ValueError, match="tree root must be a Round or a Leaf"):
            call()


def test_incomplete_instrument_rejected_at_construction():
    half = np.eye(2, dtype=complex) * S2
    with pytest.raises(ValueError, match="incomplete"):
        Instrument("A", (0,), (half,))


def test_nan_kraus_operator_rejected_at_construction():
    nan_kraus = np.diag([float("nan"), 1.0])
    with pytest.raises(ValueError, match="incomplete"):
        Instrument("A", (0,), (nan_kraus,))


def _one_round_json(kraus):
    """Tree JSON of one round of A on qubit 0 with the JSON Kraus operator
    ``kraus``, above a leaf guessing member 0."""
    return json.dumps({"format": 2, "instruments": [
        {"party": "A", "targets": [0], "labels": None, "kraus": [kraus]}],
        "nodes": [{"round": 0, "children": [1]}, {"member": 0}]})


def _leaf_json(leaf):
    """Tree JSON of the one JSON leaf node ``leaf``."""
    return json.dumps({"format": 2, "instruments": [], "nodes": [leaf]})


def test_a_kraus_operator_that_is_not_a_matrix_is_refused():
    with pytest.raises(ValueError, match="square shape"):
        Instrument("A", (0,), (np.array(1.0),))
    with pytest.raises(ValueError, match=r"^instruments\[0\]: kraus: .* square shape"):
        tree_from_json(_one_round_json({"re": 1.0, "im": 0.0}))


@pytest.mark.parametrize("empty", [np.zeros((0, 0)), np.zeros((1, 0)), np.zeros(0)])
def test_an_empty_kraus_operator_is_refused_by_name(empty):
    with pytest.raises(ValueError, match="kraus"):
        Instrument("A", (0,), (empty,))
    with pytest.raises(ValueError, match="kraus"):
        tree_from_json(_one_round_json({"re": empty.tolist(), "im": empty.tolist()}))


def test_leaf_state_guess():
    bell = bell_basis()
    problem = JointProblem(bell)
    result = run_protocol(problem, Leaf(bell.states[1]))
    assert result.fidelity == pytest.approx(0.25)


# -- one-way validation -------------------------------------------------------

def test_one_way_accepts_forward_chain():
    tree = Round(plus_minus_instrument("A", 0), tuple(
        Round(plus_minus_instrument("B", 1), (Leaf(0), Leaf(1))) for _ in range(2)
    ))
    assert validate_one_way(tree, ("A", "B"))
    assert not validate_one_way(tree, ("B", "A"))


def test_one_way_rejects_return_visit():
    inner = Round(plus_minus_instrument("A", 0), (Leaf(0), Leaf(1)))
    tree = Round(plus_minus_instrument("A", 0), tuple(
        Round(plus_minus_instrument("B", 1), (inner, inner)) for _ in range(2)
    ))
    assert not validate_one_way(tree, ("A", "B"))


# -- flattening ---------------------------------------------------------------

def test_flatten_single_round_projective_gives_projectors():
    ens = bell_basis()
    problem = JointProblem(ens)
    inst = computational_instrument("A", (0,), (2,))
    tree = Round(inst, (Leaf(0), Leaf(2)))
    povm, guesses = flatten_to_povm(tree, problem)
    want0 = np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex)
    want1 = np.kron(np.diag([0.0, 1.0]), np.eye(2)).astype(complex)
    assert np.allclose(povm.elements[0], want0)
    assert np.allclose(povm.elements[1], want1)
    assert np.allclose(guesses[0].amps, ens.states[0].amps)


def test_flatten_matches_run_for_computational_protocol():
    problem, tree = computational_protocol(ghz_basis(3, (1, 1, 1)))
    run = run_protocol(problem, tree).fidelity
    povm, guesses = flatten_to_povm(tree, problem)
    assert average_fidelity(problem.joint, povm, guesses) == pytest.approx(run, abs=1e-12)
    assert povm.n_outcomes == 8


def test_flatten_povm_completeness_enforced():
    # Povm construction inside flatten_to_povm validates sum-to-identity
    problem, tree = computational_protocol(bell_basis())
    povm, _ = flatten_to_povm(tree, problem)
    total = sum(povm.elements)
    assert np.max(np.abs(total - np.eye(4))) < 1e-9


@pytest.mark.parametrize("keep", [
    lambda problem, tree: flatten_to_povm(tree, problem)[0].elements[0],
    lambda problem, tree: flatten_to_povm(tree, problem)[0].factors[0],
    lambda problem, tree: run_protocol(problem, tree).branches[0].member_probabilities,
], ids=["flatten_to_povm", "flatten_to_povm-factor", "run_protocol"])
def test_outputs_are_freed_without_the_cyclic_collector(keep):
    problem, tree = computational_protocol(bell_basis())
    gc.disable()
    try:
        ref = weakref.ref(keep(problem, tree))
        assert ref() is None
    finally:
        gc.enable()


# -- row reductions in the branch walk ----------------------------------------

def _run_vs_flat(problem, tree, prune=1e-12):
    povm, guesses = flatten_to_povm(tree, problem)
    flat = average_fidelity(problem.joint, povm, guesses)
    return run_protocol(problem, tree, prune).fidelity, flat


def _leaves(n_outcomes, start=0, size=4):
    return tuple(Leaf((start + k) % size) for k in range(n_outcomes))


def test_rank_one_split_is_cached_and_only_for_rank_one_instruments():
    bell = bell_instrument("A", (0, 1))
    kets, bras = bell._rank_one
    for kraus, ket, bra in zip(bell.kraus, kets, bras):
        assert np.max(np.abs(np.outer(ket, bra) - kraus)) <= 1e-14
        assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-15)
    assert bell._rank_one is bell._rank_one
    assert "_rank_one" not in {f.name for f in dataclasses.fields(Instrument)}
    assert unitary_instrument("A", (0,), np.eye(2))._rank_one is None
    half = Instrument("A", (0,), (np.diag([S2, 0]), np.diag([S2, 1])))
    assert half._rank_one is None  # the second operator has rank two


@pytest.mark.parametrize("second", [
    plus_minus_instrument("A1", 0),
    bell_instrument("A1", (0, 1)),  # the split-off |k> now meets qubit 1's state
], ids=["plus-minus", "bell"])
def test_measuring_a_collapsed_qubit_again_matches_flatten(second):
    problem = JointProblem(ghz_basis(3, (2, 1)))  # A1 holds qubits 0 and 1
    again = tuple(Round(second, _leaves(second.n_outcomes, start=3 * k, size=8))
                  for k in range(2))
    tree = Round(computational_instrument("A1", (0,), (2,)), again)
    run, flat = _run_vs_flat(problem, tree)
    assert run == pytest.approx(flat, abs=1e-12)


def test_unitary_on_half_of_a_bell_measured_pair_matches_flatten():
    problem = JointProblem(ghz_basis(3, (2, 1)))  # A1 holds qubits 0 and 1
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    children = tuple(
        Round(unitary_instrument("A1", (1,), u), (
            Round(computational_instrument("A1", (0, 1), (2, 2)), _leaves(4, start=k, size=8)),
        ))
        for k in range(4)
    )
    tree = Round(bell_instrument("A1", (0, 1)), children)
    run, flat = _run_vs_flat(problem, tree)
    assert run == pytest.approx(flat, abs=1e-12)


def test_build_tree_enters_outcomes_no_member_reaches():
    problem = JointProblem(bell_basis())
    measure_a = computational_instrument("A", (0,), (2,))
    tree = build_tree(problem, [
        measure_a,
        measure_a,  # the second outcome that differs from the first is never reached
        unitary_instrument("B", (1,), np.array([[S2, S2], [S2, -S2]])),
        computational_instrument("B", (1,), (2,)),
    ])
    validate_tree(tree, problem.joint)
    for prune in (1e-12, 0.0):
        run, flat = _run_vs_flat(problem, tree, prune)
        assert run == pytest.approx(flat, abs=1e-12)
    unreached = run_protocol(problem, tree, prune=0.0).branches
    assert sum(br.probability == 0.0 for br in unreached) == 4
    assert len(run_protocol(problem, tree).branches) == 4


def test_state_guess_below_a_collapsed_round_matches_flatten():
    ens = ghz_basis(3, (2, 1))
    guesses = tuple(Leaf(ens.states[k]) for k in (0, 3, 5, 6))
    inner = Round(bell_instrument("A1", (0, 1)), guesses)
    tree = Round(plus_minus_instrument("A2", 2), (inner, Leaf(ens.states[1])))
    run, flat = _run_vs_flat(JointProblem(ens), tree)
    assert run == pytest.approx(flat, abs=1e-12)


@pytest.mark.parametrize("targets", [(0,), (1, 0)], ids=["held", "half-held"])
def test_rank_one_round_on_a_held_qubit_rebuilds_the_dense_elements(targets):
    ens = ghz_basis(3, (2, 1))  # A1 holds qubits 0 and 1
    rng = np.random.default_rng(11)
    first = projective_instrument("A1", (0,), random_unitary(rng, 2))
    again = projective_instrument("A1", targets, random_unitary(rng, 2 ** len(targets)))
    # |<w|u>| on qubit 0, the last target, for each bra <w| of again and ket |u> of first
    (kets, _), (_, bras) = first._rank_one, again._rank_one
    overlaps = np.linalg.norm(bras.reshape(len(bras), -1, 2) @ kets.T, axis=1)
    assert np.all((overlaps > 0.05) & (overlaps < 0.95))
    tree = Round(first, tuple(Round(again, _leaves(again.n_outcomes, start=k, size=8))
                              for k in range(2)))
    povm, _ = flatten_to_povm(tree, JointProblem(ens))
    want = list(branch_kraus(tree, ens.dims))
    assert povm.n_outcomes == len(want)
    for c, k in zip(povm.factors, want):
        assert np.max(np.abs(c.conj().T @ c - k.conj().T @ k)) <= 1e-12
        assert len(c) == np.linalg.matrix_rank(k) == 8 // 2 ** len(targets)
    run, flat = _run_vs_flat(JointProblem(ens), tree)
    assert run == pytest.approx(flat, abs=ATOL)


# -- the walk over a stack of grouped rounds ----------------------------------

def _paths(result):
    return [tuple(step.outcome for step in branch.steps) for branch in result.branches]


def _mixed_depth_tree(ens):
    """Leaves at depths 2 and 3 below rounds of every kind: rank-one on a
    qubit kept in the rows, on a split-off qubit and on a pair that holds
    one, and a general round; measuring qubit 0 twice gives an outcome no
    member reaches."""
    measure = computational_instrument("A1", (0,), (2,))
    first = Round(plus_minus_instrument("A2", 2), (
        Leaf(ens.states[2]),
        Round(measure, (Leaf(0), Leaf(1))),
    ))
    second = Round(_weak("A2", 2), (
        Round(bell_instrument("A1", (0, 1)), _leaves(4, start=4, size=8)),
        Leaf(ens.states[5]),
    ))
    return Round(measure, (first, second))


def test_walk_gives_depth_first_branches_on_a_mixed_depth_tree():
    ens = ghz_basis(3, (2, 1))  # A1 holds qubits 0 and 1
    problem, tree = JointProblem(ens), _mixed_depth_tree(ens)
    full = run_protocol(problem, tree, prune=0.0)
    assert _paths(full) == leaf_paths(tree)
    pruned = run_protocol(problem, tree)
    paths = _paths(pruned)
    assert paths == sorted(paths)
    assert (0, 1, 1) not in paths and len(paths) == len(full.branches) - 1
    kept = [br for br in full.branches if br.probability >= PRUNE]
    assert [br.steps for br in pruned.branches] == [br.steps for br in kept]
    for got, want in zip(pruned.branches, kept):
        assert got.member_probabilities.tobytes() == want.member_probabilities.tobytes()
        assert got.guess_index == want.guess_index
    assert [br.guess_index for br in pruned.branches] == [None, 0, 4, 5, 6, 7, None]
    run, flat = _run_vs_flat(problem, tree)
    assert run == pytest.approx(flat, abs=1e-12)


def _at(node, path):
    for k in path:
        node = node.children[k]
    return node


def test_walk_returns_the_reached_leaves_depth_first():
    ens = ghz_basis(3, (2, 1))
    tree = _mixed_depth_tree(ens)
    paths = leaf_paths(tree)
    for prune, reached in ((0.0, paths), (PRUNE, [p for p in paths if p != (0, 1, 1)])):
        leaves, steps, probs = _push_rows(tree, ens.amplitude_matrix(), ens.dims, ens.priors,
                                          prune)
        assert [tuple(s.outcome for s in leaf_steps) for leaf_steps in steps] == reached
        assert all(leaf is _at(tree, path) for leaf, path in zip(leaves, reached))
        assert probs.shape == (len(reached), ens.size)


def test_build_tree_guesses_the_best_member_of_each_leaf_ties_to_the_lowest():
    ens = _uneven_ghz3()
    priors = ens.priors
    script = [computational_instrument("A1", (0,), (2,)), _weak("A2", 2),
              bell_instrument("A1", (0, 1))]
    tree = build_tree(JointProblem(ens), script)
    leaves, _, rows = _push_rows(tree, ens.amplitude_matrix(), ens.dims, ens.priors, -math.inf)
    assert len(leaves) == len(rows) == 2 * 2 * 4
    ties = moved = 0
    for leaf, probs, path in zip(leaves, rows, leaf_paths(tree)):
        weighted = priors * probs
        best = np.flatnonzero(weighted == weighted.max())
        assert leaf is _at(tree, path) and leaf.guess == best[0]
        ties += len(best) > 1
        moved += leaf.guess != np.argmax(probs)
    assert ties == 16 and moved == 8  # every leaf ties, and the priors move half the guesses


def test_build_tree_enters_negative_weight_outcomes():
    # priors down to -1e-9 are admitted; the two mixed-bit outcomes of B weigh
    # -1e-10 and must still decode to psi+ (2), not keep the default guess 0
    bell = bell_basis()
    ens = Ensemble(bell.layout, tuple(zip((0.5 + 2e-10, 0.5, 1e-10, -3e-10), bell.states)))
    tree = build_tree(JointProblem(ens), [computational_instrument("A", (0,), (2,)),
                                          computational_instrument("B", (1,), (2,))])
    assert [_at(tree, path).guess for path in leaf_paths(tree)] == [0, 2, 2, 0]


def test_build_tree_refuses_a_script_that_does_not_fit_the_problem():
    with pytest.raises(ValueError, match="operator shape"):
        build_tree(JointProblem(bell_basis()), [computational_instrument("A", (0,), (4,))])


def test_build_tree_runs_each_script_step_once_per_prefix():
    prefixes = []

    def counting_step(outcomes):
        prefixes.append(outcomes)
        return plus_minus_instrument("A2", 2)

    tree = build_tree(JointProblem(ghz_basis(3, (2, 1))),
                      [bell_instrument("A1", (0, 1)), counting_step])
    assert prefixes == [(0,), (1,), (2,), (3,)]
    leaves = [_at(tree, path) for path in leaf_paths(tree)]
    assert len(leaves) == 8 and len({id(leaf) for leaf in leaves}) == 8
    assert all(type(leaf.guess) is int for leaf in leaves)


def _record_cases():
    for entry in standard_zoo():
        yield entry.name, entry.problem, entry.tree
    yield "sequential-bell-5", *sequential_bell_protocol(5)
    yield "partitioned-ghz-5-221", *partitioned_ghz_protocol(5, (2, 2, 1))
    yield "graph-cycle5", *graph_decode_protocol(Graph.cycle(5))
    # uneven priors that move 4 of the 8 guesses; on 4 branches a (branches, members)
    # @ (members,) product differs from np.dot in the last bit
    problem = JointProblem(_uneven_ghz3())
    yield "ghz3-21-uneven-weak", problem, build_tree(problem, [
        computational_instrument("A1", (0,), (2,)), _weak("A2", 2), plus_minus_instrument("A2", 2)])


def _records(problem, tree):
    result = run_protocol(problem, tree)
    return result.fidelity.hex(), [
        (br.steps, br.probability.hex(), br.member_probabilities.tobytes(), br.survivors,
         br.guess_index) for br in result.branches]


def _count_contractions(monkeypatch):
    calls = []
    contract = protocols._contract
    monkeypatch.setattr(protocols, "_contract", lambda *args: calls.append(1) or contract(*args))
    return calls


def test_a_zero_group_budget_contracts_round_by_round_to_the_same_bits(monkeypatch):
    cases = list(_record_cases())
    want = [_records(problem, tree) for _, problem, tree in cases]
    calls = _count_contractions(monkeypatch)
    monkeypatch.setattr(protocols, "_GROUP_BYTES", 0)
    for (name, problem, tree), records in zip(cases, want):
        assert _records(problem, tree) == records, name
    problem, tree = sequential_bell_protocol(5)
    calls.clear()
    run_protocol(problem, tree)
    assert len(calls) > 9  # 9 unsplit groups, one per script step


def _weak_tree(n_qubits, depth):
    """``depth`` weak rounds on qubits 0, 1, ... in turn, all 2^depth branches kept."""
    node = Leaf(0)
    for d in reversed(range(depth)):
        node = Round(_weak(f"A{d % n_qubits + 1}", d % n_qubits), (node, node))
    return node


def test_a_deep_tree_of_general_rounds_stays_within_the_group_budget():
    # 1024 branches of 64 member rows of 64 amplitudes: the bottom depth's rows alone
    # take 64 MiB, a walk holding a whole depth peaked at 160 MiB and 4 MiB groups at 40
    problem = JointProblem(ghz_basis(6, (1,) * 6))
    tracemalloc.start()
    try:
        result = run_protocol(problem, _weak_tree(6, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.branches) == 1024
    assert peak < 48 << 20


def _other_threads_cpu_ns():
    """CPU time of this process's other threads, from /proc/self/task/*/schedstat."""
    me, total = threading.get_native_id(), 0
    for task in os.listdir("/proc/self/task"):
        if int(task) != me:
            try:
                with open(f"/proc/self/task/{task}/schedstat") as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:  # the thread has exited
                pass
    return total


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_the_branch_walk_wakes_no_other_thread():
    # a BLAS product large enough for OpenBLAS to hand to its idle worker wakes it, and the
    # worker then spins for about 0.1 s of CPU: every product of the walk must stay smaller
    if len(os.listdir("/proc/self/task")) < 2:
        pytest.skip("this process has no other thread")
    if not os.path.exists(f"/proc/self/task/{threading.get_native_id()}/schedstat"):
        pytest.skip("the kernel keeps no schedstat")
    before = _other_threads_cpu_ns()
    deadline = time.monotonic() + 1.0
    while True:  # until a worker woken before this test has gone back to sleep
        time.sleep(0.02)
        now = _other_threads_cpu_ns()
        if now == before:
            break
        if time.monotonic() > deadline:
            pytest.skip("another thread stayed busy for 1 s")
        before = now
    run_protocol(*sequential_bell_protocol(5))
    assert _other_threads_cpu_ns() - before < 5_000_000


def test_held_kets_stay_with_their_rounds_past_a_disjoint_round():
    # qubit 0's split-off ket passes the +/- round on qubit 2 in the rows of four
    # rounds and meets the second computational round on qubit 0 in each of them
    ens = ghz_basis(3, (2, 1))
    measure = computational_instrument("A1", (0,), (2,))
    problem = JointProblem(ens)
    tree = build_tree(problem, [measure, plus_minus_instrument("A2", 2), measure])
    result = run_protocol(problem, tree, prune=0.0)
    povm, _ = flatten_to_povm(tree, problem)
    assert len(result.branches) == len(povm.factors) == 8
    states = ens.amplitude_matrix()
    for branch, factor in zip(result.branches, povm.factors):
        want = np.sum(np.abs(states @ factor.T) ** 2, axis=1)
        assert np.max(np.abs(branch.member_probabilities - want)) <= 1e-12


def test_a_rank_one_group_with_pruned_outcomes_hands_each_child_its_own_rows():
    # A measures qubit 0, then both rounds below apply B's 3-outcome rank-one round on
    # qubit 1 as one group of two. Only outcomes (0, 0), (1, 1) and (1, 2) are entered,
    # and the rounds below them form two groups, one of them gathering (0, 0) and (1, 2).
    # Further down, a random projective round puts qubit 1's split-off ket back.
    rng = np.random.default_rng(3)
    layout = PartyLayout((("A", (0,)), ("B", (1, 2))))
    members = []
    for _ in range(4):
        x, y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c, d = rng.normal(size=2) + 1j * rng.normal(size=2)
        members.append(StateVector.normalized((2, 2, 2), c * np.kron([1, 0, 0, 0], x)
                                              + d * np.kron([0, 0, 0, 1], y)))
    ens = Ensemble(layout, tuple(zip(rng.dirichlet(np.ones(4)), members)))
    lopsided = Instrument("B", (1,), (np.diag([1.0, 0.0]), np.array([[0, S2], [0, 0]]),
                                      np.diag([0.0, S2])))
    assert lopsided._rank_one is not None
    back = Round(projective_instrument("B", (1,), random_unitary(rng, 2)), _leaves(2))
    weak = Round(_weak("B", 2), (back, Leaf(1)))
    again = Round(projective_instrument("B", (1,), random_unitary(rng, 2)), _leaves(2, 2))
    tree = Round(computational_instrument("A", (0,), (2,)), (
        Round(lopsided, (weak, Leaf(0), Leaf(1))),
        Round(lopsided, (Leaf(2), again, weak)),
    ))
    problem = JointProblem(ens)
    result = run_protocol(problem, tree)
    paths = _paths(result)
    assert {path[:2] for path in paths} == {(0, 0), (1, 1), (1, 2)}
    povm, _ = flatten_to_povm(tree, problem)
    factors = dict(zip(leaf_paths(tree), povm.factors))
    states = ens.amplitude_matrix()
    for path, branch in zip(paths, result.branches):
        want = np.sum(np.abs(states @ factors[path].T) ** 2, axis=1)
        assert np.max(np.abs(branch.member_probabilities - want)) <= 1e-12, path
    for path in set(factors) - set(paths):
        assert np.max(np.sum(np.abs(states @ factors[path].T) ** 2, axis=1)) <= 1e-12, path


@pytest.mark.parametrize("build, steps", [
    (lambda: sequential_bell_protocol(5), 9),
    (lambda: partitioned_ghz_protocol(5, (2, 2, 1)), 11),
    (lambda: graph_decode_protocol(Graph.cycle(5)), 5),
], ids=["sequential-bell-5", "partitioned-ghz-5-221", "graph-cycle5"])
def test_script_grown_trees_take_one_contraction_per_script_step(build, steps, monkeypatch):
    problem, tree = build()
    calls = _count_contractions(monkeypatch)
    run_protocol(problem, tree)
    assert len(calls) == steps == len(leaf_paths(tree)[0])


def _uneven_ghz3():
    base = ghz_basis(3, (2, 1))
    priors = np.array([3, 3, 1, 1, 3, 3, 1, 1]) / 16
    return Ensemble(base.layout, tuple(zip(priors, base.states)))


def test_branch_records_and_guesses_match_their_per_leaf_definitions():
    for name, problem, tree in _record_cases():
        ens = problem.joint
        result = run_protocol(problem, tree)
        assert result.branches, name
        for branch in result.branches:
            probs = branch.member_probabilities
            assert branch.probability.hex() == float(np.dot(ens.priors, probs)).hex(), name
            assert branch.survivors == tuple(np.flatnonzero(probs > PRUNE)), name
            assert all(type(i) is int for i in branch.survivors), name
        leaves, _, rows = _push_rows(tree, ens.amplitude_matrix(), ens.dims, ens.priors,
                                     -math.inf)
        assert [leaf.guess for leaf in leaves] == [
            int(np.argmax(ens.priors * probs)) for probs in rows], name


def test_branches_taking_the_same_step_share_one_record():
    result = run_protocol(*sequential_bell_protocol(5))
    assert len(result.branches) == 1024
    for depth in range(len(result.branches[0].steps)):
        steps = [branch.steps[depth] for branch in result.branches]
        assert len({id(step) for step in steps}) == len(set(steps)) == 4, depth


def test_fidelity_is_the_branch_ordered_sum_of_per_leaf_terms():
    # 12 random, non-orthogonal members: the overlaps are not 0 or 1, so a dot
    # product that read the overlap column at another stride could round differently
    rng = np.random.default_rng(5)
    states = [StateVector.normalized((2, 2, 2), rng.standard_normal(8) + 1j * rng.standard_normal(8))
              for _ in range(12)]
    ens = Ensemble(single_qubit_layout(3), tuple(zip(rng.dirichlet(np.ones(12)), states)))
    problem, tree = computational_protocol(ens)
    result = run_protocol(problem, tree)
    amps = ens.amplitude_matrix()
    members = sorted({branch.guess_index for branch in result.branches})
    overlaps = dict(zip(members, (np.abs(amps.conj() @ amps[members].T) ** 2).T))
    total = 0.0
    for branch in result.branches:
        total += float(np.dot(ens.priors * branch.member_probabilities,
                              overlaps[branch.guess_index]))
    assert result.fidelity.hex() == total.hex()


def _resource_cases():
    for entry in standard_zoo():
        if entry.problem.resource is not None:
            yield entry.name, entry.problem, entry.tree
    qutrit = Ensemble(PartyLayout((("A", (0,)), ("B", (1,)))), tuple(
        (1 / 9, StateVector((3, 3), row)) for row in generalized_bell_vectors(3)))
    yield "teleport-qutrit", *teleportation_protocol(qutrit, "A", "B")


def test_overlaps_taken_on_the_ensemble_match_the_joint_members():
    cases = list(_resource_cases())
    assert len(cases) == 14
    for name, problem, tree in cases:
        factored = run_protocol(problem, tree)
        joint = run_protocol(JointProblem(problem.joint), tree)  # the same members, no resource
        assert abs(factored.fidelity - joint.fidelity) <= 1e-12, name
        for a, b in zip(factored.branches, joint.branches, strict=True):
            assert a.member_probabilities.tobytes() == b.member_probabilities.tobytes(), name


def _repeated(inst, depth, bottom):
    """``depth`` rounds of ``inst`` above ``bottom``, each outcome 0 ending in Leaf(0)."""
    node = bottom
    for _ in range(depth):
        node = Round(inst, (Leaf(0),) + (node,) * (inst.n_outcomes - 1))
    return node


def test_validate_tree_checks_each_instrument_in_every_call():
    ens = ghz_basis(3, (2, 1))  # A1 holds qubits (0, 1), A2 qubit 2
    shared = computational_instrument("A1", (1,), (2,))
    tree = _repeated(shared, 8, Leaf(1))
    validate_tree(tree, ens)
    # the same tree against a layout in which A1 no longer holds qubit 1
    moved = Ensemble(PartyLayout((("A1", (0, 2)), ("A2", (1,)))), ens.members)
    with pytest.raises(ValueError, match=r"targets \(1,\) outside"):
        validate_tree(tree, moved)
    validate_tree(tree, ens)
    # a bad instrument or guess used only at the bottom still raises
    stray = computational_instrument("A2", (0,), (2,))
    with pytest.raises(ValueError, match=r"'A2' targets \(0,\) outside"):
        validate_tree(_repeated(shared, 8, Round(stray, (Leaf(0), Leaf(1)))), ens)
    with pytest.raises(ValueError, match="leaf guesses member 8 of 8"):
        validate_tree(_repeated(shared, 8, Leaf(8)), ens)


def _chain(instruments, leaf=Leaf(0)):
    """Single-outcome rounds of ``instruments``, root first, above ``leaf``."""
    for inst in reversed(instruments):
        leaf = Round(inst, (leaf,))
    return leaf


ID_A = unitary_instrument("A", (0,), np.eye(2))
ID_B = unitary_instrument("B", (1,), np.eye(2))


def test_a_chain_of_1200_single_outcome_rounds_validates_and_runs():
    # deeper than the interpreter's recursion limit: validation walks an explicit stack
    ens = bell_basis()
    tree = _chain([ID_A] * 1200)
    validate_tree(tree, ens)
    result = run_protocol(JointProblem(ens), tree)
    assert len(result.branches) == 1 and len(result.branches[0].steps) == 1200
    assert result.fidelity == pytest.approx(0.25, abs=1e-12)  # the prior of member 0


def test_a_chain_of_1200_single_outcome_rounds_flattens_to_the_run_fidelity():
    problem = JointProblem(bell_basis())
    tree = _chain([ID_A] * 1200)
    povm, guesses = flatten_to_povm(tree, problem)
    assert len(povm.factors) == 1
    factor = povm.factors[0]
    assert np.max(np.abs(factor.conj().T @ factor - np.eye(4))) <= ATOL  # complete
    flat = average_fidelity(problem.joint, povm, guesses)
    assert abs(flat - run_protocol(problem, tree).fidelity) <= 1e-12
    assert flat == pytest.approx(0.25, abs=1e-12)


def test_one_way_order_is_checked_down_a_chain_of_1200_rounds():
    assert validate_one_way(_chain([ID_A] * 1199 + [ID_B]), ("A", "B"))
    assert not validate_one_way(_chain([ID_A] * 1198 + [ID_B, ID_A]), ("A", "B"))
    assert not validate_one_way(_chain([ID_A] * 1199 + [ID_B]), ("B", "A"))


def test_a_chain_of_1200_rounds_relabels_to_one_party():
    ens = bell_basis()
    tree = _chain([ID_A, ID_B] * 600)
    grouping = {"A": "AB", "B": "AB"}
    coarse_tree = relabel_parties(tree, grouping)
    copies = _instruments(coarse_tree)
    assert len(copies) == 2 and {inst.party for inst in copies.values()} == {"AB"}
    coarse = JointProblem(Ensemble(coarsen(ens.layout, grouping), ens.members))
    assert run_protocol(coarse, coarse_tree).fidelity == pytest.approx(0.25, abs=1e-12)
    assert run_protocol(JointProblem(ens), tree).fidelity == pytest.approx(0.25, abs=1e-12)


def test_a_script_of_1200_steps_grows_and_runs():
    # deeper than the interpreter's recursion limit: the tree grows one script step at a time
    problem = JointProblem(bell_basis())
    tree = build_tree(problem, [ID_A] * 1200)
    assert run_protocol(problem, tree).fidelity == pytest.approx(0.25, abs=1e-12)


def test_a_chain_of_1200_rounds_survives_text_to_tree_to_text():
    # deeper than the interpreter's recursion limit: tree JSON nests 7 levels at most
    text = tree_to_json(_chain([ID_A, ID_B] * 600, Leaf(StateVector((2, 2), np.eye(4)[3]))))
    tree = tree_from_json(text)
    assert tree_to_json(tree) == text
    assert len(_instruments(tree)) == 2
    node, rounds = tree, 0
    while isinstance(node, Round):
        node, rounds = node.children[0], rounds + 1
    assert rounds == 1200 and isinstance(node.guess, StateVector)


def test_text_nesting_too_deep_for_json_is_refused():
    with pytest.raises(ValueError, match="^tree: JSON nests too deep"):
        tree_from_json("[" * 100_000)


def _instruments(tree):
    """The distinct instruments of ``tree`` by id, walked from an explicit stack."""
    found, stack = {}, [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Round):
            found[id(node.instrument)] = node.instrument
            stack.extend(node.children)
    return found


def test_json_copy_of_a_shared_chain_gives_bit_identical_branches():
    problem, tree = sequential_bell_protocol(3, ("A2", "A1", "A3"))
    copy = unshared(tree)
    assert len(_instruments(copy)) > len(_instruments(tree))  # the copy shares none
    # the JSON copy stores each instrument once, and shares it as the original does
    assert len(_instruments(tree_from_json(tree_to_json(tree)))) == len(_instruments(tree))
    shared, loaded = run_protocol(problem, tree), run_protocol(problem, copy)
    assert shared.fidelity.hex() == loaded.fidelity.hex()
    assert len(shared.branches) == len(loaded.branches) == 64
    for a, b in zip(shared.branches, loaded.branches):
        assert a.probability.hex() == b.probability.hex()
        assert a.member_probabilities.tobytes() == b.member_probabilities.tobytes()
        assert (a.steps, a.survivors, a.guess_index) == (b.steps, b.survivors, b.guess_index)


def test_relabelling_keeps_instrument_sharing():
    problem, tree = sequential_bell_protocol(3)
    joint = problem.joint
    grouping = {name: "ALL" for name in joint.layout.names}
    coarse_tree = relabel_parties(tree, grouping)
    before, after = _instruments(tree), _instruments(coarse_tree)
    assert len(after) == len(before) < 64
    assert {inst.party for inst in after.values()} == {"ALL"}
    coarse = JointProblem(Ensemble(coarsen(joint.layout, grouping), joint.members))
    assert run_protocol(coarse, coarse_tree).fidelity == run_protocol(problem, tree).fidelity


# -- flattening by round kind -------------------------------------------------

def _weak(party, target):
    """Two-outcome weak measurement of one qubit: neither operator is rank one."""
    return Instrument(party, (target,), (np.diag([math.sqrt(0.3), math.sqrt(0.7)]),
                                         np.diag([math.sqrt(0.7), math.sqrt(0.3)])))


def _round_kinds():
    """(tree, SVD calls flattening it makes) on 5 qubits, A holding (0, 4)."""
    rng = np.random.default_rng(7)
    u4, u2 = random_unitary(rng, 4), random_unitary(rng, 2)
    rank_one = projective_instrument("A", (4, 0), random_unitary(rng, 4))
    nearly = Instrument("B", (3, 1), (u4 @ np.diag([1 + 1e-12, 1, 1, 1]),))
    measure_0 = computational_instrument("A", (0,), (2,))
    plus_minus = plus_minus_instrument("B", 2)
    annihilated = Round(unitary_instrument("B", (2,), u2), (
        Round(_weak("B", 1), (Round(rank_one, _leaves(4, size=32)), Leaf(3))),))
    angles = 2 * math.pi / 3 * np.arange(3)
    trine = Instrument("B", (2,), tuple(  # three rank-one outcomes on one qubit
        math.sqrt(2 / 3) * np.outer(v, v) for v in np.stack([np.cos(angles), np.sin(angles)], 1)))
    parity = Instrument("B", (3, 1), (np.diag([1, 0, 0, 1]), np.diag([0, 1, 1, 0])))
    return {
        # rank-one rounds on un-held qubits and single-outcome rounds keep full row rank,
        # also one whose Kraus operator is 1e-12 off unitary
        "rank-one-out-of-order": (Round(rank_one, (Round(plus_minus, _leaves(2, size=32)),)
                                        + _leaves(3, start=1, size=32)), 0),
        "rank-one-trine": (Round(trine, (Round(rank_one, _leaves(4, size=32)),)
                                 + _leaves(2, start=1, size=32)), 0),
        "unitary": (Round(unitary_instrument("A", (4, 0), u4), (Round(plus_minus, _leaves(2)),)), 0),
        "nearly-complete": (Round(nearly, (Leaf(5),)), 0),
        # one SVD at each leaf below a round that is neither
        "weak": (Round(_weak("B", 3), (Round(rank_one, _leaves(4, size=32)), Leaf(1))), 5),
        # two rank-two projectors: each branch loses half the rank
        "parity": (Round(parity, (Leaf(2), Round(rank_one, _leaves(4, size=32)))), 5),
        # measure_0 again touches its held qubit: its outcome 1 leaves no rows, and each of
        # the 6 leaves below the second measure_0 gets an SVD
        "annihilating": (Round(measure_0, (Round(measure_0, (Leaf(0), annihilated)), Leaf(1))), 6),
    }


ROUND_KINDS = _round_kinds()


@pytest.mark.parametrize("kind", list(ROUND_KINDS))
def test_flatten_factors_rebuild_the_dense_kraus_products(kind, monkeypatch):
    tree, svd_calls = ROUND_KINDS[kind]
    ens = Ensemble(PartyLayout((("A", (0, 4)), ("B", (1, 2, 3)))), ghz_basis(5, (1,) * 5).members)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape) or svd(a, *args, **kw))
    povm, _ = flatten_to_povm(tree, JointProblem(ens))  # raises unless the POVM is complete
    assert len(calls) == svd_calls
    want = list(branch_kraus(tree, ens.dims))
    assert povm.n_outcomes == len(want)
    for c, k in zip(povm.factors, want):
        assert np.max(np.abs(c.conj().T @ c - k.conj().T @ k)) <= ATOL
        assert len(c) == np.linalg.matrix_rank(k)
    if kind == "annihilating":
        assert [len(c) for c in povm.factors] == [16] + [0] * 5 + [16]


# -- coarsening and resource invariance ---------------------------------------

def test_coarsening_leaves_fidelity_unchanged():
    problem, tree = computational_protocol(ghz_basis(3, (1, 1, 1)))
    base = run_protocol(problem, tree).fidelity
    grouping = {"A1": "X", "A2": "X", "A3": "Y"}
    joint = problem.joint
    merged = Ensemble(coarsen(joint.layout, grouping), joint.members)
    coarse = JointProblem(merged)
    coarse_tree = relabel_parties(tree, grouping)
    validate_tree(coarse_tree, merged)
    assert run_protocol(coarse, coarse_tree).fidelity == pytest.approx(base, abs=1e-12)


def test_product_resource_ignored_by_tree():
    bell = bell_basis()
    plain_problem, _ = computational_protocol(bell)
    plain_tree = build_tree(plain_problem, [
        computational_instrument("A", (0,), (2,)),
        computational_instrument("B", (1,), (2,)),
    ])
    base = run_protocol(plain_problem, plain_tree).fidelity

    product = StateVector((2, 2), np.eye(4)[0])
    res_layout = PartyLayout((("A", (0,)), ("B", (1,))))
    problem = JointProblem(bell, product, res_layout)
    # same measurements, addressed at the shifted unknown qubits
    tree = build_tree(problem, [
        computational_instrument("A", (2,), (2,)),
        computational_instrument("B", (3,), (2,)),
    ])
    assert run_protocol(problem, tree).fidelity == pytest.approx(base, abs=1e-12)


# -- serialization ------------------------------------------------------------

def test_tree_json_round_trip():
    problem, tree = computational_protocol(bell_basis())
    text = tree_to_json(tree)
    back = tree_from_json(text)
    assert run_protocol(problem, back).fidelity == pytest.approx(
        run_protocol(problem, tree).fidelity, abs=1e-15)
    assert tree_to_json(back) == text


@pytest.mark.parametrize("name, problem, tree", [
    *(pytest.param(entry.name, entry.problem, entry.tree, id=entry.name)
      for entry in standard_zoo()),
    pytest.param("sequential-bell-5", *sequential_bell_protocol(5), id="sequential-bell-5"),
])
def test_tree_json_text_is_a_fixed_point(name, problem, tree):
    # text -> tree -> text keeps every -0.0 imaginary part; report where long
    # texts part rather than diff them
    text = tree_to_json(tree)
    loaded = tree_from_json(text)
    back = tree_to_json(loaded)
    first = next((i for i, (a, b) in enumerate(zip(text, back)) if a != b), None)
    assert first is None and len(back) == len(text), (name, first)
    assert len(_instruments(loaded)) == len(_instruments(tree))
    want, got = run_protocol(problem, tree), run_protocol(problem, loaded)
    assert got.fidelity.hex() == want.fidelity.hex()
    for a, b in zip(want.branches, got.branches, strict=True):
        assert a.steps == b.steps and a.probability.hex() == b.probability.hex()
        assert a.member_probabilities.tobytes() == b.member_probabilities.tobytes()


def test_tree_json_structure():
    inst = unitary_instrument("A", (0,), np.array([[0, 1j], [1j, 0]]), "ix")
    tree = Round(inst, (Leaf(0),))
    problem = JointProblem(bell_basis())
    payload = json.loads(tree_to_json(tree))
    assert payload["format"] == 2
    assert payload["instruments"][0]["party"] == "A"
    assert payload["instruments"][0]["labels"] == ["ix"]
    assert payload["instruments"][0]["kraus"][0]["im"][0][1] == 1.0
    assert payload["nodes"] == [{"round": 0, "children": [1]}, {"member": 0}]
    rebuilt = tree_from_json(tree_to_json(tree))
    assert run_protocol(problem, rebuilt).fidelity == pytest.approx(0.25)


def test_tree_json_with_a_nan_kraus_entry_is_refused():
    _problem, tree = computational_protocol(bell_basis())
    payload = json.loads(tree_to_json(tree))
    payload["instruments"][0]["kraus"][0]["re"][0][0] = float("nan")
    with pytest.raises(ValueError, match="incomplete"):
        tree_from_json(json.dumps(payload))
    state = {"dims": [2], "re": [float("nan"), 0.0], "im": [0.0, 0.0]}
    with pytest.raises(ValueError, match="not normalized"):
        tree_from_json(_leaf_json({"state": state}))


@pytest.mark.parametrize("im", [0, [0.0, 0.0]])
def test_tree_json_refuses_an_im_part_of_another_shape_naming_the_field(im):
    _problem, tree = computational_protocol(bell_basis())
    payload = json.loads(tree_to_json(tree))
    payload["instruments"][0]["kraus"][1]["im"] = im  # against a 2 x 2 re
    with pytest.raises(ValueError, match=r"instruments\[0\]\.kraus\[1\]\.im: shape"):
        tree_from_json(json.dumps(payload))
    state = {"dims": [2, 2], "re": [1.0, 0.0, 0.0, 0.0], "im": im}
    with pytest.raises(ValueError, match=r"nodes\[0\]\.state\.im: shape"):
        tree_from_json(_leaf_json({"state": state}))


_DROP = object()


def _edited(keys, value):
    """The JSON text of the computational Bell-basis tree with the field at
    ``keys`` set to ``value`` (removed for ``_DROP``, appended one past the
    end of a list); no keys put ``value`` in the tree's place. The tree has two instruments, A's and B's, and the
    nodes [round 0 -> (1, 4)], [round 1 -> (2, 3)], member 0, member 2,
    [round 1 -> (5, 6)], member 2, member 0."""
    payload = json.loads(tree_to_json(computational_protocol(bell_basis())[1]))
    if not keys:
        return json.dumps(value)
    *parents, last = keys
    node = payload
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    elif last == len(node):  # one past the end of a list
        node.append(value)
    else:
        node[last] = value
    return json.dumps(payload)


@pytest.mark.parametrize("keys, value, path", [
    (("instruments", 1, "party"), _DROP, r"instruments\[1\]\.party: missing"),
    (("nodes", 0, "children"), _DROP, r"nodes\[0\]\.children: missing"),
    (("nodes", 4, "round"), _DROP, r"nodes\[4\]: no round, member or state"),
    (("nodes", 2, "member"), _DROP, r"nodes\[2\]: no round, member or state"),
    (("instruments", 1, "kraus"), 5, r"instruments\[1\]\.kraus: expected list"),
    (("instruments", 0, "labels"), 5, r"instruments\[0\]\.labels: expected list"),
    ((), [{"member": 0}], r"tree: expected dict"),
    (("instruments", 1, "kraus", 0, "re"), [[1.0, 0.0], [0.0]],
     r"instruments\[1\]\.kraus\[0\]\.re: not an array of numbers"),
], ids=["party", "children", "type", "leaf-guess", "kraus", "labels", "top-level-list",
        "ragged-re"])
def test_tree_json_refuses_an_unreadable_node_naming_its_path(keys, value, path):
    with pytest.raises(ValueError, match=f"^{path}"):
        tree_from_json(_edited(keys, value))


@pytest.mark.parametrize("keys, value, path", [
    (("nodes", 4, "children", 1), 7, r"nodes\[4\]\.children\[1\]: index 7 is not in 5\.\.6"),
    (("nodes", 0, "round"), 2, r"nodes\[0\]\.round: index 2 is not in 0\.\.1"),
    (("nodes", 4, "children", 0), 3, r"nodes\[4\]\.children\[0\]: index 3 is not in 5\.\.6"),
    (("nodes", 4, "children", 0), 4, r"nodes\[4\]\.children\[0\]: index 4 is not in 5\.\.6"),
    (("nodes", 1, "children", 1), 5, r"nodes\[1\]\.children\[1\]: node 5 has a second parent"),
    (("nodes", 7), {"member": 1}, r"nodes\[7\]: no parent"),
    (("instruments", 2), {"party": "A", "targets": [1], "labels": None,
                          "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}]},
     r"instruments\[2\]: used by no round"),
    (("nodes",), [], r"nodes: empty"),
    (("format",), _DROP, r"format: missing"),
    (("format",), 1, r"format: 1 is not 2"),
    (("format",), "2", r"format: '2' is not 2"),
], ids=["child-out-of-range", "instrument-out-of-range", "child-below-parent",
        "child-is-parent", "second-parent", "unreached", "unused-instrument", "no-nodes",
        "no-format", "format-1", "format-string"])
def test_tree_json_refuses_a_node_table_that_is_not_a_tree_naming_the_path(keys, value, path):
    with pytest.raises(ValueError, match=f"^{path}"):
        tree_from_json(_edited(keys, value))


@pytest.mark.parametrize("entry", ["1", True, False, None, [1.0], 10 ** 400],
                         ids=["string", "true", "false", "null", "list", "past-float"])
@pytest.mark.parametrize("keys, path", [
    (("instruments", 1, "kraus", 0, "re", 0), r"instruments\[1\]\.kraus\[0\]\.re"),
    (("instruments", 0, "kraus", 1, "im", 1), r"instruments\[0\]\.kraus\[1\]\.im"),
], ids=["re", "im"])
def test_tree_json_refuses_an_entry_that_is_not_a_number_naming_its_path(entry, keys, path):
    with pytest.raises(ValueError, match=f"^{path}: not an array of numbers"):
        tree_from_json(_edited(keys + (0,), entry))
    state = {"dims": [2], "re": [1.0, entry], "im": [0.0, 0.0]}
    with pytest.raises(ValueError, match=r"^nodes\[0\]\.state\.re: not an array of numbers"):
        tree_from_json(_leaf_json({"state": state}))


@pytest.mark.parametrize("keys, value, message", [
    (("instruments", 1, "kraus", 0, "re", 0, 0), 0.5,
     r"instruments\[1\]: incomplete instrument for party 'B': "),
    (("instruments", 0, "labels"), ["0"],
     r"instruments\[0\]: labels must match the number of outcomes"),
    (("instruments", 0, "targets"), [0, 0], r"instruments\[0\]: targets must be distinct"),
    (("nodes", 4, "children"), [5], r"nodes\[4\]: round has 1 children for 2 outcomes"),
    (("nodes", 3), {"state": {"dims": [2], "re": [1.0, 1.0], "im": [0.0, 0.0]}},
     r"nodes\[3\]\.state: state vector not normalized"),
], ids=["incomplete", "labels", "targets", "round", "state"])
def test_tree_json_prefixes_the_path_to_a_constructor_refusal(keys, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        tree_from_json(_edited(keys, value))


@pytest.mark.parametrize("member", [1.7, True])
def test_tree_json_refuses_a_member_that_is_not_an_integer(member):
    with pytest.raises(ValueError, match="member"):
        tree_from_json(_leaf_json({"member": member}))


@pytest.mark.parametrize("target", [0.9, True])
def test_tree_json_refuses_a_target_that_is_not_an_integer(target):
    with pytest.raises(ValueError, match="targets"):
        tree_from_json(_edited(("instruments", 0, "targets"), [target]))


@pytest.mark.parametrize("dims", [[2.5, 2], [True, 2]])
def test_tree_json_refuses_a_dimension_that_is_not_an_integer(dims):
    state = {"dims": dims, "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0] * 4}
    with pytest.raises(ValueError, match="dims"):
        tree_from_json(_leaf_json({"state": state}))


def test_integer_fields_take_numpy_integers_and_integral_floats():
    inst = Instrument("A", (np.int64(1), 0.0), (np.eye(4),))
    assert inst.targets == (1, 0) and all(type(t) is int for t in inst.targets)
    assert StateVector((np.int32(2), 2.0), np.eye(4)[0]).dims == (2, 2)
    with pytest.raises(ValueError, match="targets"):
        Instrument("A", (True,), (np.eye(2),))


_BELL = StateVector((2, 2), bell_vectors()[0])


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: ghz_basis(3, (2.9, 1.1)), "party_sizes", id="ghz_basis"),
    pytest.param(lambda: partitioned_ghz_protocol(3, (2.9, 1.1)), "party_sizes",
                 id="partitioned_ghz_protocol"),
    pytest.param(lambda: PartyLayout((("A", (0.5,)), ("B", (1,)))), "parties", id="PartyLayout"),
    pytest.param(lambda: Graph(3, {(0, 1.7)}), "edges", id="Graph-edges"),
    pytest.param(lambda: Graph(2.5, {(0, 1)}), "vertex_count", id="Graph-vertex_count"),
    pytest.param(lambda: Povm((2.5,), (np.eye(2),)), "dims", id="Povm"),
    pytest.param(lambda: partial_trace(_BELL, [0.7]), "keep", id="partial_trace"),
    pytest.param(lambda: schmidt(_BELL, ((0.4,), (1,))), "bipartition", id="schmidt"),
    pytest.param(lambda: entanglement_entropy(_BELL, ((0,), (1.2,))), "bipartition",
                 id="entanglement_entropy"),
    pytest.param(lambda: vidal_conversion_probability(_BELL, ((0,), (1,)), 2.5), "target_rank",
                 id="vidal_conversion_probability"),
    pytest.param(lambda: ghz_basis(2.5, (1, 1)), "num_qubits", id="ghz_basis-num_qubits"),
    pytest.param(lambda: ghz_state(True), "num_parties", id="ghz_state"),
    pytest.param(lambda: lattice_basis(1.5), "num_pairs", id="lattice_basis"),
    pytest.param(lambda: sequential_bell_protocol(2.5), "num_parties",
                 id="sequential_bell_protocol"),
    pytest.param(lambda: partitioned_ghz_protocol(True, (1, 1)), "num_qubits",
                 id="partitioned_ghz_protocol-num_qubits"),
])
def test_integer_inputs_refuse_fractions_naming_the_field(build, field):
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
        build()


def _same_ensemble(a, b):
    return (a.layout == b.layout and np.array_equal(a.priors, b.priors)
            and np.array_equal(a.amplitude_matrix(), b.amplitude_matrix()))


def test_integral_float_counts_build_as_integers():
    assert _same_ensemble(ghz_basis(3.0, (2, 1)), ghz_basis(3, (2, 1)))
    assert ghz_state(3.0).dims == (2, 2, 2)
    assert np.array_equal(ghz_state(3.0).amps, ghz_state(3).amps)
    assert _same_ensemble(lattice_basis(2.0), lattice_basis(2))
    for build, args in ((sequential_bell_protocol, ()), (partitioned_ghz_protocol, ((2, 1),))):
        (problem, tree), (want_problem, want_tree) = build(3.0, *args), build(3, *args)
        assert _same_ensemble(problem.joint, want_problem.joint)
        assert tree_to_json(tree) == tree_to_json(want_tree)


def test_leaf_takes_a_numpy_integer_and_refuses_a_bool():
    leaf = Leaf(np.int64(1))
    assert type(leaf.guess) is int
    assert tree_from_json(tree_to_json(leaf)) == Leaf(1)
    for guess in (True, np.bool_(False), 1.5):
        with pytest.raises(ValueError, match="leaf guess"):
            Leaf(guess)


def test_tree_json_state_guess():
    st = bell_basis().states[2]
    tree = Leaf(st)
    back = tree_from_json(tree_to_json(tree))
    assert isinstance(back.guess, StateVector)
    assert np.allclose(back.guess.amps, st.amps)


def test_round_child_count_must_match():
    with pytest.raises(ValueError):
        Round(plus_minus_instrument("A", 0), (Leaf(0),))
