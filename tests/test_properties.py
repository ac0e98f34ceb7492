"""Property tests: random complete instruments on the split three-qubit GHZ
basis, random trees that mix rank-one, unitary and general rounds on 2 or
3 Bell pairs, random POVMs held as factors or dense elements, the separable bound
on random bases, and the one-way residual, its gradient and its Hessian
against their brute-force Kronecker form and with an exactly zero outcome
appended."""

import copy
import functools
import json
import operator
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locce.tensor import StateVector, generalized_bell_vectors
from locce.families import (
    Ensemble,
    PartyLayout,
    bell_basis,
    ghz_basis,
    lattice_basis,
    parametric_basis,
    single_qubit_layout,
)
from locce.fidelity import (
    Povm,
    _outcome_weights,
    average_fidelity,
    computational_povm,
    optimal_guess,
    separable_bound,
)
from locce.oneway import (
    MatrixRep,
    ResourceSpectrum,
    _hessian,
    _objective,
    _pack,
    _pair_products,
    orthogonality_residual,
    to_matrix_rep,
)
from locce.protocols import (
    PRUNE,
    Instrument,
    JointProblem,
    Leaf,
    Round,
    flatten_to_povm,
    projective_instrument,
    run_protocol,
    tree_from_json,
    tree_to_dict,
    tree_to_json,
    unitary_instrument,
)
from locce.zoo import computational_protocol

from dense_reference import branch_kraus, leaf_paths, random_unitary

ENSEMBLE = ghz_basis(3, (1, 1, 1))
PROBLEM = JointProblem(ENSEMBLE)
ATOL = 1e-9


def random_instrument(rng: np.random.Generator, ens: Ensemble) -> Instrument:
    """A party's qubit measured by the 2x2 blocks of a random isometry, or
    about half the time projected onto the rows of a random unitary (rank
    one, so the walk splits the qubit off and restores it when it is
    measured again)."""
    party, (target,) = ens.layout.parties[rng.integers(len(ens.layout.parties))]
    if rng.random() < 0.5:
        return projective_instrument(party, (target,), random_unitary(rng, 2))
    n_outcomes = int(rng.integers(1, 4))
    z = rng.normal(size=(2 * n_outcomes, 2)) + 1j * rng.normal(size=(2 * n_outcomes, 2))
    isometry = np.linalg.qr(z)[0]  # (2K, 2) with orthonormal columns
    kraus = tuple(isometry[2 * k:2 * k + 2] for k in range(n_outcomes))
    return Instrument(party, (target,), kraus)


def random_tree(rng: np.random.Generator, rounds: int, ens: Ensemble = ENSEMBLE,
                make_round=random_instrument):
    if rounds == 0 or rng.random() < 0.2:
        if rng.random() < 0.2:
            return Leaf(ens.states[rng.integers(ens.size)])
        return Leaf(int(rng.integers(ens.size)))
    inst = make_round(rng, ens)
    return Round(inst, tuple(random_tree(rng, rounds - 1, ens, make_round)
                             for _ in range(inst.n_outcomes)))


trees = st.builds(
    lambda seed, rounds: random_tree(np.random.default_rng(seed), rounds),
    st.integers(0, 2 ** 32 - 1),
    st.integers(0, 3),
)


@settings(deadline=None)
@given(trees)
def test_run_protocol_matches_flattened_povm(tree):
    povm, guesses = flatten_to_povm(tree, PROBLEM)
    flat = average_fidelity(ENSEMBLE, povm, guesses)
    assert abs(run_protocol(PROBLEM, tree).fidelity - flat) <= ATOL


@settings(deadline=None)
@given(trees)
def test_flattened_factors_rebuild_the_dense_branch_elements(tree):
    povm, _ = flatten_to_povm(tree, PROBLEM)
    want = [k.conj().T @ k for k in branch_kraus(tree, ENSEMBLE.dims)]
    assert povm.n_outcomes == len(want)
    for a, element in enumerate(want):
        assert np.max(np.abs(povm.elements[a] - element)) <= 1e-12


def random_lattice_round(rng: np.random.Generator, ens: Ensemble) -> Instrument:
    """One round on one or two of a party's qubits, in a random order: a
    rank-one projective measurement, a single-outcome unitary or the
    blocks of a random isometry (1 to 3 outcomes of full rank), about a
    third of the time each."""
    party, qubits = ens.layout.parties[rng.integers(2)]
    targets = tuple(int(q) for q in rng.permutation(qubits)[:rng.integers(1, 3)])
    d = 2 ** len(targets)
    kind = rng.integers(3)
    if kind == 0:
        return projective_instrument(party, targets, random_unitary(rng, d))
    if kind == 1:
        return unitary_instrument(party, targets, random_unitary(rng, d))
    n_outcomes = int(rng.integers(1, 4))
    z = rng.normal(size=(d * n_outcomes, d)) + 1j * rng.normal(size=(d * n_outcomes, d))
    isometry = np.linalg.qr(z)[0]
    return Instrument(party, targets, tuple(isometry[d * k:d * (k + 1)] for k in range(n_outcomes)))


@settings(deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_flattening_mixed_rounds_on_qubit_pairs_matches_the_walk(pairs, seed, rounds):
    ens = lattice_basis(pairs)
    problem = JointProblem(ens)
    tree = random_tree(np.random.default_rng(seed), rounds, ens, random_lattice_round)
    povm, guesses = flatten_to_povm(tree, problem)  # raises unless the POVM is complete
    flat = average_fidelity(ens, povm, guesses)
    assert abs(run_protocol(problem, tree).fidelity - flat) <= ATOL


@settings(deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
@example(pairs=2, seed=62491, rounds=3)
def test_flattened_factor_rows_are_the_ranks_of_the_dense_kraus_products(pairs, seed, rounds):
    ens = lattice_basis(pairs)
    tree = random_tree(np.random.default_rng(seed), rounds, ens, random_lattice_round)
    povm, _ = flatten_to_povm(tree, JointProblem(ens))  # raises unless the POVM is complete
    rows = np.concatenate(povm.factors)
    assert np.max(np.abs(rows.conj().T @ rows - np.eye(ens.dim))) <= ATOL
    # ranks at the factors' 1e-13 rule: numpy's default cut, 16 eps of the largest singular
    # value, counts rounding noise of a product of rounds (5.6e-15 of it in the example)
    ranks = [int(np.linalg.matrix_rank(k, rtol=1e-13)) for k in branch_kraus(tree, ens.dims)]
    assert [len(c) for c in povm.factors] == ranks


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2))
def test_overlaps_taken_on_the_ensemble_match_the_joint_members(seed, rounds):
    # random non-orthonormal members with uneven priors, a random two-qubit resource of
    # norm 1 + 5e-10 and a root whose first leaf guesses an explicit state
    rng = np.random.default_rng(seed)
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    size = int(rng.integers(2, 6))
    amps = rng.normal(size=(size, 4)) + 1j * rng.normal(size=(size, 4))
    ens = Ensemble(layout, tuple(zip(rng.dirichlet(np.ones(size)),
                                     (StateVector.normalized((2, 2), a) for a in amps))))
    r = rng.normal(size=4) + 1j * rng.normal(size=4)
    resource = StateVector((2, 2), r * (1 + 5e-10) / np.linalg.norm(r))
    problem = JointProblem(ens, resource, layout)
    joint = problem.joint
    guess = StateVector.normalized(joint.dims, rng.normal(size=joint.dim)
                                   + 1j * rng.normal(size=joint.dim))
    isometry = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0]
    root = Instrument("A", (2,), tuple(isometry[2 * k:2 * k + 2] for k in range(3)))
    tree = Round(root, (Leaf(guess), Leaf(int(rng.integers(size))),
                        random_tree(rng, rounds, joint, random_lattice_round)))
    factored = run_protocol(problem, tree).fidelity
    assert abs(factored - run_protocol(JointProblem(joint), tree).fidelity) <= 1e-12


def random_folding_round(rng: np.random.Generator, ens: Ensemble) -> Instrument:
    """A computational measurement of one of a party's qubits a quarter of the
    time (measured again, it leaves outcomes that no member reaches), else a
    random lattice round."""
    if rng.random() < 0.25:
        party, qubits = ens.layout.parties[rng.integers(2)]
        return projective_instrument(party, (int(rng.choice(qubits)),), np.eye(2))
    return random_lattice_round(rng, ens)


def leaf_nodes(node):
    """The leaves of ``node``, depth first."""
    if isinstance(node, Leaf):
        return [node]
    return [leaf for child in node.children for leaf in leaf_nodes(child)]


@settings(deadline=None)
@given(st.sampled_from((3, 5, 6, 7)), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_folded_member_rows_match_the_flattened_and_dense_branches(members, seed, rounds):
    # 3, 5, 6 or 7 random members of 3 qubits and a random Bell-pair-sized resource, 32
    # joint amplitudes: the member rows a product folds divide the member count, so with 6
    # members 3 rows of width 8 share one product, and with 5 or 7 all rows of width 4
    rng = np.random.default_rng(seed)
    layout = PartyLayout((("A", (0, 1)), ("B", (2,))))
    amps = rng.normal(size=(members, 8)) + 1j * rng.normal(size=(members, 8))
    ens = Ensemble(layout, tuple(zip(rng.dirichlet(np.ones(members)),
                                     (StateVector.normalized((2, 2, 2), a) for a in amps))))
    resource = StateVector.normalized((2, 2), rng.normal(size=4) + 1j * rng.normal(size=4))
    problem = JointProblem(ens, resource, PartyLayout((("A", (0,)), ("B", (1,)))))
    joint = problem.joint
    measure = projective_instrument("A", (2,), np.eye(2))  # rank one: its ket is held below
    tree = Round(measure, tuple(random_tree(rng, rounds, joint, random_folding_round)
                                for _ in range(2)))
    result = run_protocol(problem, tree)
    povm, _ = flatten_to_povm(tree, problem)
    factors = dict(zip(leaf_paths(tree), povm.factors))
    states = joint.amplitude_matrix()
    for branch in result.branches:
        path = tuple(step.outcome for step in branch.steps)
        want = np.sum(np.abs(states @ factors[path].T) ** 2, axis=1)
        assert np.max(np.abs(branch.member_probabilities - want)) <= 1e-12, path
    dense = 0.0
    for leaf, kraus in zip(leaf_nodes(tree), branch_kraus(tree, joint.dims)):
        guess = joint.states[leaf.guess] if isinstance(leaf.guess, int) else leaf.guess
        overlaps = np.abs(states.conj() @ guess.amps) ** 2
        dense += float(np.sum(joint.priors * np.sum(np.abs(kraus @ states.T) ** 2, axis=0)
                              * overlaps))
    assert abs(result.fidelity - dense) <= 1e-12


@settings(deadline=None)
@given(trees)
def test_member_probabilities_sum_to_one_without_pruning(tree):
    result = run_protocol(PROBLEM, tree, prune=0.0)
    total = sum(br.member_probabilities for br in result.branches)
    assert np.max(np.abs(total - 1.0)) <= ATOL


@settings(deadline=None)
@given(trees)
def test_branches_come_out_depth_first_and_match_the_unpruned_walk(tree):
    full = run_protocol(PROBLEM, tree, prune=0.0)
    paths = [tuple(step.outcome for step in br.steps) for br in full.branches]
    assert paths == leaf_paths(tree)
    unpruned = dict(zip(paths, full.branches))
    pruned = run_protocol(PROBLEM, tree)
    kept = [tuple(step.outcome for step in br.steps) for br in pruned.branches]
    assert kept == sorted(kept)
    for path, branch in zip(kept, pruned.branches):
        assert branch.steps == unpruned[path].steps
        assert branch.probability == unpruned[path].probability >= PRUNE


@settings(deadline=None)
@given(trees)
def test_json_round_trip_keeps_fidelity_bits(tree):
    back = tree_from_json(tree_to_json(tree))
    assert run_protocol(PROBLEM, back).fidelity == run_protocol(PROBLEM, tree).fidelity


def _sites(value, path=()):
    """``(path, value)`` of every value in the JSON document ``value``, itself first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _sites(item, path + (key,))


_DROP = object()


def _mutations(doc):
    """``(path, kind, value)`` of every mutation of the tree JSON ``doc``
    that leaves it unreadable: the value at ``path`` is dropped from its
    dict, swapped for a value of another type, a number swapped for a string
    or a boolean, an array nested one level deeper or grown by a copy of its
    last item, or a node or instrument index pointed out of range."""
    for path, value in _sites(doc):
        if path and isinstance(path[-1], str):
            yield path, "drop", _DROP
        yield path, "type", [] if isinstance(value, dict) else {}
        if type(value) in (int, float):
            yield path, "string", str(value)
            yield path, "bool", value == 0
        if isinstance(value, list):
            yield path, "wrap", [value]
            if value:
                yield path, "grow", value + value[-1:]
        if path[-1:] == ("round",) or path[-2:-1] == ("children",):
            yield path, "past-end", len(doc["instruments" if path[-1] == "round" else "nodes"])
            yield path, "negative", -1


def _mutated(doc, path, value):
    """A copy of ``doc`` with ``value`` at ``path`` (removed for ``_DROP``)."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = functools.reduce(operator.getitem, parents, doc)
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


_PATH = re.compile(r"(tree|format|instruments|nodes)((?:\[\d+\]|\.[a-z]+)*): ")


def _named_path(message, doc):
    """The keys of the JSON path that ``message`` opens with, checked to lead
    into ``doc`` (its last key may be a missing one), or None."""
    match = _PATH.match(message)
    if match is None or (match[1] == "tree" and match[2]):
        return None
    if match[1] == "tree":
        return ()
    keys = [match[1]] + [int(index) if index else name
                         for index, name in re.findall(r"\[(\d+)\]|\.([a-z]+)", match[2])]
    try:
        parent = functools.reduce(operator.getitem, keys[:-1], doc)
    except (KeyError, IndexError, TypeError):
        return None
    if isinstance(parent, list) and not keys[-1] < len(parent):
        return None
    return tuple(keys) if isinstance(parent, (dict, list)) else None


@settings(deadline=None, max_examples=300)
@given(st.one_of(trees, st.just(computational_protocol(bell_basis())[1])), st.data())
def test_mutated_tree_json_is_refused_by_a_value_error_naming_a_path(tree, data):
    doc = tree_to_dict(tree)
    path, kind, value = data.draw(st.sampled_from(list(_mutations(doc))))
    mutated = _mutated(doc, path, value)
    with pytest.raises(ValueError) as refusal:
        tree_from_json(json.dumps(mutated))
    assert _named_path(str(refusal.value), mutated) is not None, (path, kind, str(refusal.value))


def conjugated(node, local: list[np.ndarray], joint: np.ndarray):
    """``node`` with each Kraus operator K on qubit t replaced by U_t K U_t^dagger."""
    if isinstance(node, Leaf):
        if isinstance(node.guess, int):
            return node
        return Leaf(StateVector(node.guess.dims, joint @ node.guess.amps))
    inst = node.instrument
    u = local[inst.targets[0]]
    kraus = tuple(u @ k @ u.conj().T for k in inst.kraus)
    return Round(Instrument(inst.party, inst.targets, kraus),
                 tuple(conjugated(c, local, joint) for c in node.children))


@settings(deadline=None)
@given(trees, st.integers(0, 2 ** 32 - 1))
def test_fidelity_is_invariant_under_local_unitaries(tree, seed):
    rng = np.random.default_rng(seed)
    local = [random_unitary(rng, 2) for _ in range(3)]
    joint = np.kron(np.kron(local[0], local[1]), local[2])
    moved = Ensemble(ENSEMBLE.layout, tuple(
        (p, StateVector(s.dims, joint @ s.amps)) for p, s in ENSEMBLE.members
    ))
    f_moved = run_protocol(JointProblem(moved), conjugated(tree, local, joint)).fidelity
    assert abs(f_moved - run_protocol(PROBLEM, tree).fidelity) <= ATOL


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_factored_weights_match_dense_weights(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    ranks = rng.integers(0, dim + 1, size=int(rng.integers(1, 5)))
    ranks[-1] += max(0, dim - int(ranks.sum()))
    z = rng.normal(size=(int(ranks.sum()), dim)) + 1j * rng.normal(size=(int(ranks.sum()), dim))
    factors = np.split(np.linalg.qr(z)[0], np.cumsum(ranks)[:-1])  # blocks of an isometry
    dense = np.array([c.conj().T @ c for c in factors])
    states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    ens = Ensemble(PartyLayout((("A", (0,)),)),
                   tuple((1 / 3, StateVector((dim,), s)) for s in states))
    want = np.real(np.einsum("id,ade,ie->ia", states.conj(), dense, states))
    for povm in (Povm((dim,), tuple(dense)), Povm.from_factors((dim,), factors)):
        assert np.max(np.abs(_outcome_weights(ens, povm) - want)) <= 1e-12


@settings(deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2 ** 32 - 1))
def test_separable_bound_caps_the_computational_guess(n, seed):
    # a separable measurement on a random orthonormal basis of n qubits,
    # one qubit per party, never beats the separable bound
    basis = random_unitary(np.random.default_rng(seed), 2 ** n)
    ens = Ensemble(single_qubit_layout(n),
                   tuple((2.0 ** -n, StateVector((2,) * n, row)) for row in basis))
    _, reached = optimal_guess(ens, computational_povm(ens.dims))
    bound = separable_bound(ens)
    assert reached <= bound + ATOL
    assert bound <= 1.0


# -- one-way residual against the Kronecker stack of Lambda (x) M_i^dag M_j ---

def random_rep(rng: np.random.Generator, kind: str) -> MatrixRep:
    if kind == "bell":
        return to_matrix_rep(bell_basis())
    if kind == "parametric":
        return to_matrix_rep(parametric_basis(*rng.uniform(1 / np.sqrt(2), 1, size=2)))
    d = 3 if kind == "bell-d3" else int(rng.integers(2, 4))
    members = (range(d * d) if kind == "bell-d3"
               else rng.choice(d * d, size=int(rng.integers(1, d * d + 1)), replace=False))
    vecs = generalized_bell_vectors(d)
    return MatrixRep(d, tuple(np.sqrt(d) * vecs[i].reshape(d, d).T for i in members))


def kron_conditions(rep: MatrixRep, lambdas: np.ndarray) -> list[np.ndarray]:
    return [np.kron(np.diag(lambdas), mi.conj().T @ mj)
            for i, mi in enumerate(rep.matrices)
            for j, mj in enumerate(rep.matrices) if i != j]


def random_problem(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    rep = random_rep(rng, kind)
    spectrum = ResourceSpectrum(rep.d * rng.dirichlet(np.ones(rep.d)))
    k = int(rng.integers(1, rep.d ** 2 + 4))
    ys = rng.normal(size=(k, rep.d ** 2)) + 1j * rng.normal(size=(k, rep.d ** 2))
    return rep, spectrum, kron_conditions(rep, spectrum.lambdas), ys


rep_kinds = st.sampled_from(("bell", "parametric", "bell-d3", "random-subset"))


@settings(deadline=None)
@given(rep_kinds, st.integers(0, 2 ** 32 - 1))
def test_residual_matches_the_kron_stack(kind, seed):
    rep, spectrum, ops, phis = random_problem(kind, seed)
    weights = np.random.default_rng(seed).uniform(0.1, 2.0, size=len(phis))
    units = phis / np.linalg.norm(phis, axis=1)[:, None]
    completeness = np.einsum("k,kc,kd->cd", weights, units, units.conj()) - np.eye(rep.d ** 2)
    want = np.linalg.norm(completeness) ** 2 + sum(
        abs(np.vdot(u, op @ u)) ** 2 for u in units for op in ops)
    got = orthogonality_residual(rep, spectrum, list(phis), weights)
    assert abs(got - want) <= 1e-12 * want


@settings(deadline=None)
@given(rep_kinds, st.integers(0, 2 ** 32 - 1))
def test_objective_value_and_gradient_match_the_kron_stack(kind, seed):
    rep, spectrum, ops, ys = random_problem(kind, seed)
    diff = ys.T @ ys.conj() - np.eye(rep.d ** 2)
    want, dconj = np.linalg.norm(diff) ** 2, 2 * ys @ diff.T  # derivative along conj(y_k)
    for k, y in enumerate(ys):
        t = np.vdot(y, y).real
        for op in ops:
            s = np.vdot(y, op @ y)
            want += abs(s) ** 2 / t ** 2
            dconj[k] += ((np.conj(s) * op + s * op.conj().T) @ y / t ** 2
                         - 2 * abs(s) ** 2 / t ** 3 * y)
    value, grad = _objective(_pack(ys[None]), _pair_products(rep, spectrum), spectrum.lambdas,
                             len(ys), rep.d)
    assert abs(value[0] - want) <= 1e-12 * want
    want_grad = 2 * _pack(dconj[None])[0]
    assert np.max(np.abs(grad[0] - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


def real_form(op: np.ndarray) -> np.ndarray:
    """S with y^dag op y = z^T S z for z = (Re y, Im y), S complex symmetric."""
    s = np.block([[op, 1j * op], [-1j * op, op]])
    return (s + s.T) / 2


def sum_abs2(forms, offsets, z):
    """Value, gradient and Hessian of sum_q |z^T S_q z - c_q|^2 over real z."""
    value, grad, hess = 0.0, np.zeros(z.size), np.zeros((z.size, z.size))
    for s, c in zip(forms, offsets):
        q, dq = z @ s @ z - c, 2 * s @ z
        value += abs(q) ** 2
        grad += 2 * np.real(np.conj(q) * dq)
        hess += 2 * np.real(np.outer(dq, dq.conj())) + 4 * np.real(np.conj(q) * s)
    return value, grad, hess


def kron_hessian(ops, ys: np.ndarray) -> np.ndarray:
    """Brute-force real Hessian of sum_k sum_op |<y_k|op|y_k>|^2 / t_k^2 +
    ||sum_k y_k y_k^dag - I||^2 over the packed (Re, Im) coordinates."""
    k, n = ys.shape
    big = k * n
    theta = _pack(ys[None])[0]
    slots = [np.r_[j * n:(j + 1) * n, big + j * n:big + (j + 1) * n] for j in range(k)]
    forms, offsets = [], []
    for a in range(n):
        for b in range(n):  # (sum_k y_k y_k^dag)_ab = sum_k y_k^dag (e_b e_a^T) y_k
            local = real_form(np.outer(np.eye(n)[b], np.eye(n)[a]))
            s = np.zeros((2 * big, 2 * big), dtype=complex)
            for idx in slots:
                s[np.ix_(idx, idx)] = local
            forms.append(s)
            offsets.append(float(a == b))
    hess = sum_abs2(forms, offsets, theta)[2]
    conditions = [real_form(op) for op in ops]
    for idx in slots:
        z = theta[idx]
        u, du, ddu = sum_abs2(conditions, [0.0] * len(conditions), z)
        t, dt = z @ z, 2 * z  # the Hessian of t is 2 I
        cross = np.outer(du, dt) + np.outer(dt, du)
        curvature = 6 * np.outer(dt, dt) / t ** 4 - 4 * np.eye(z.size) / t ** 3
        hess[np.ix_(idx, idx)] += ddu / t ** 2 - 2 * cross / t ** 3 + u * curvature
    return hess


def random_stack(kind: str, seed: int):
    """A random problem and a stack of 1 to 3 random points for it."""
    rep, spectrum, ops, ys = random_problem(kind, seed)
    rng = np.random.default_rng(seed + 1)
    shape = (int(rng.integers(0, 3)),) + ys.shape
    more = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return rep, spectrum, ops, np.concatenate([ys[None], more])


@settings(deadline=None)
@given(rep_kinds, st.integers(0, 2 ** 32 - 1))
def test_hessian_matches_the_kron_stack_and_is_symmetric(kind, seed):
    rep, spectrum, ops, stack = random_stack(kind, seed)
    hessians = _hessian(_pack(stack), _pair_products(rep, spectrum), spectrum.lambdas,
                        stack.shape[1], rep.d)
    assert hessians.shape[0] == len(stack)
    for got, ys in zip(hessians, stack):
        want = kron_hessian(ops, ys)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.max(np.abs(got - got.T)) <= 1e-14 * scale


@settings(deadline=None)
@given(rep_kinds, st.integers(0, 2 ** 32 - 1))
def test_hessian_matches_central_differences_of_the_gradient(kind, seed):
    rep, spectrum, _, stack = random_stack(kind, seed)
    args = (_pair_products(rep, spectrum), spectrum.lambdas, stack.shape[1], rep.d)
    theta, eps = _pack(stack), 1e-5
    got = _hessian(theta, *args)
    # every coordinate of every point of the stack moves at once
    for i, step in enumerate(eps * np.eye(theta.shape[1])):
        up, down = _objective(theta + step, *args)[1], _objective(theta - step, *args)[1]
        column = (up - down) / (2 * eps)
        scale = np.max(np.abs(got), axis=(1, 2))
        assert np.all(np.max(np.abs(got[:, :, i] - column), axis=1) <= 1e-8 * scale)


@settings(deadline=None)
@given(rep_kinds, st.integers(0, 2 ** 32 - 1))
def test_a_stack_gives_each_row_what_a_stack_of_one_gives(kind, seed):
    rep, spectrum, _, stack = random_stack(kind, seed)
    args = (_pair_products(rep, spectrum), spectrum.lambdas, stack.shape[1], rep.d)
    theta = _pack(stack)
    values, grads = _objective(theta, *args)
    hessians = _hessian(theta, *args)
    for row, value, grad, hess in zip(theta, values, grads, hessians):
        one_value, one_grad = _objective(row[None], *args)
        one_hess = _hessian(row[None], *args)
        assert abs(value - one_value[0]) <= 1e-12 * abs(one_value[0])
        assert np.max(np.abs(grad - one_grad[0])) <= 1e-12 * np.max(np.abs(one_grad))
        assert np.max(np.abs(hess - one_hess[0])) <= 1e-12 * np.max(np.abs(one_hess))


@settings(deadline=None)
@given(rep_kinds, st.integers(0, 2 ** 32 - 1))
def test_an_exactly_zero_outcome_adds_nothing(kind, seed):
    # a dropped outcome imposes no condition: appending it leaves the value,
    # the other coordinates' gradient and their Hessian block as they were
    rep, spectrum, _, ys = random_problem(kind, seed)
    k, n = ys.shape
    pairs = _pair_products(rep, spectrum)
    padded = np.concatenate([ys, np.zeros((1, n))])
    with np.errstate(all="raise"):
        value, grad = _objective(_pack(ys[None]), pairs, spectrum.lambdas, k, rep.d)
        hess = _hessian(_pack(ys[None]), pairs, spectrum.lambdas, k, rep.d)
        padded_value, padded_grad = _objective(_pack(padded[None]), pairs, spectrum.lambdas,
                                               k + 1, rep.d)
        padded_hess = _hessian(_pack(padded[None]), pairs, spectrum.lambdas, k + 1, rep.d)
    live = np.r_[:k * n, (k + 1) * n:(2 * k + 1) * n]
    zero = np.r_[k * n:(k + 1) * n, (2 * k + 1) * n:(2 * k + 2) * n]
    assert np.isfinite(padded_value[0]) and np.all(np.isfinite(padded_grad))
    assert np.all(np.isfinite(padded_hess))
    assert abs(padded_value[0] - value[0]) <= 1e-12 * value[0]
    assert np.max(np.abs(padded_grad[0, live] - grad[0])) <= 1e-12 * np.max(np.abs(grad))
    assert not padded_grad[0, zero].any()
    block = padded_hess[0][np.ix_(live, live)]
    assert np.max(np.abs(block - hess[0])) <= 1e-12 * np.max(np.abs(hess))
