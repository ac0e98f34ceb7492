"""Executable LOCC protocols as measurement trees with classical branching.

A protocol is a rooted tree. Each internal node carries an
:class:`Instrument` (a Kraus decomposition acting on an ordered subset
of one party's subsystems) and one child per outcome; classical
communication is implicit in the branching. Leaves carry a guess,
either a member index of the ensemble being discriminated or an
explicit state.

Evaluation enumerates every root-to-leaf branch. For member i and
branch b with accumulated Kraus product K_b, the branch contributes

    p_i * ||K_b |psi_i>||^2 * |<psi_i|phi_b>|^2

which matches the average-fidelity functional once each branch is read
as the POVM element K_b^dagger K_b with guess phi_b. Branches whose total
weighted probability falls below the pruning threshold are skipped.

The branch walk only needs ||K_b |psi_i>||^2; the overlaps come from the
members before any resource is attached (see :func:`run_protocol`). It
therefore pushes less than the full member rows through the tree, and
each reduction keeps that norm exact:

- an instrument whose Kraus operators are all rank one, K = |u><w| with
  |u| = 1 (every Bell, computational and +/- projector), replaces each
  row by <w|psi> on the remaining subsystems: K|psi> = |u> (x) <w|psi>
  has the same norm, and the split-off |u> is tensored back on only when
  a later instrument acts on one of those subsystems;
- the walk pops groups of rounds off a stack. A group's rounds were
  entered from one contraction and share the shape of their step
  (targets, outcome count, rank one or not); each group is applied to
  its stacked rows in one batched product, all outcomes at once, and a
  group whose rows exceed ``_GROUP_BYTES`` is contracted in halves.
  Each product covers as many member rows as fit in one joint row: the
  largest divisor c of the member count with c * width <= the joint
  dimension. So no product is wider than one member row's at the root,
  and a product's shape depends only on the member count and the rows'
  width: a tree whose rounds share no instrument (one copied round by
  round) gets the same bits as the tree it came from, and no product grows
  with the number of rounds. The walk returns the leaves it reached,
  with their rows' squared norms, in depth-first order, which sorting
  them by their step records gives: :func:`run_protocol` scores them and
  :func:`locce.zoo.build_tree` decodes its guesses from them.

:func:`flatten_to_povm` builds these elements by a separate walk, the
reference path of the cross-checks. It carries each Kraus product K_b on
the subsystems no rank-one outcome has split off (the split-off unit
kets leave K_b^dagger K_b unchanged) and emits a thin factor C with
K_b^dagger K_b = C^dagger C and rank K_b rows; dense elements are built
only on request. Rank-one rounds on such subsystems (contracted with
<w_k|) and single-outcome rounds, whose one Kraus operator completeness
makes invertible, keep the product's full row rank, so a branch made
only of them emits that product itself as its factor, with no
factorization. A branch below any other round, or below a round on a
split-off subsystem, can lose rank and gets one SVD, at its leaf. Like
the branch walk, it is one loop over an explicit stack.

Resource attachment follows the joint-space picture: discriminating
{psi_i} with a shared resource Psi is the same problem as
discriminating {Psi (x) psi_i}, with each sharing party now holding its
resource subsystems in front of its unknown-state subsystems.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .tensor import (
    TOL,
    StateVector,
    _as_int,
    apply_to_batch,
    bell_vectors,
    generalized_bell_vectors,
    kron,
)
from .families import Ensemble, PartyLayout
from .fidelity import GuessStrategy, Povm

__all__ = [
    "Instrument",
    "Round",
    "Leaf",
    "JointProblem",
    "attach_resource",
    "validate_tree",
    "run_protocol",
    "ProtocolResult",
    "BranchRecord",
    "StepRecord",
    "validate_one_way",
    "flatten_to_povm",
    "relabel_parties",
    "tree_to_json",
    "tree_from_json",
    "bell_instrument",
    "generalized_bell_instrument",
    "computational_instrument",
    "plus_minus_instrument",
    "unitary_instrument",
    "projective_instrument",
]

PRUNE = 1e-12


@dataclass(frozen=True)
class Instrument:
    """Kraus operators applied by one party to an ordered subsystem subset.

    ``kraus[k]`` acts on the product space of ``targets`` taken in the
    given order; completeness sum_k K^dag K = I is enforced, so padding
    with identities on the party's remaining subsystems is implicit.
    """

    party: str
    targets: tuple[int, ...]
    kraus: tuple[np.ndarray, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        targets = tuple(_as_int(t, "targets") for t in self.targets)
        if len(set(targets)) != len(targets) or not targets:
            raise ValueError(f"targets must be distinct and nonempty: {targets}")
        kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not kraus:
            raise ValueError("instrument needs at least one Kraus operator")
        d = kraus[0].shape[0] if kraus[0].ndim == 2 else 0
        total = np.zeros((d, d), dtype=complex)
        for k in kraus:
            if k.shape != (d, d) or not d:
                raise ValueError(f"kraus: operators must share one nonempty square shape, "
                                 f"got {k.shape}")
            total += k.conj().T @ k
        err = np.max(np.abs(total - np.eye(d)))
        if not err <= TOL:
            raise ValueError(
                f"incomplete instrument for party {self.party!r}: "
                f"sum K^dag K deviates from identity by {err:.2e}"
            )
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(kraus):
                raise ValueError("labels must match the number of outcomes")
        object.__setattr__(self, "party", str(self.party))
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "labels", labels)

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)

    def outcome_label(self, k: int) -> str:
        return self.labels[k] if self.labels else str(k)

    @cached_property
    def _stack(self) -> np.ndarray:
        """The Kraus operators as one (outcomes, d, d) array."""
        return np.array(self.kraus)

    @cached_property
    def _rank_one(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(kets, bras)`` with K_k = |kets[k]><bras[k]| and unit kets, or
        None unless this rebuilds every K_k to 1e-14 of its largest entry.
        Computed once per instrument; not a field."""
        stack = self._stack
        if len(stack) < stack.shape[1]:
            return None  # fewer rank-1 terms than d cannot sum to the identity
        scale = np.max(np.abs(stack), axis=(1, 2))
        if not np.all(scale > 0):
            return None
        columns = np.argmax(np.sum(np.abs(stack) ** 2, axis=1), axis=1)
        kets = stack[np.arange(len(stack)), :, columns]
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        bras = np.einsum("ka,kab->kb", kets.conj(), stack)
        error = np.max(np.abs(kets[:, :, None] * bras[:, None, :] - stack), axis=(1, 2))
        if np.any(error > 1e-14 * scale):
            return None
        return kets, bras


@dataclass(frozen=True)
class Round:
    instrument: Instrument
    children: tuple

    def __post_init__(self):
        if not isinstance(self.instrument, Instrument):
            raise ValueError(f"round instrument must be an Instrument, "
                             f"got {type(self.instrument).__name__}")
        children = tuple(self.children)
        for k, child in enumerate(children):
            if not isinstance(child, (Round, Leaf)):
                raise ValueError(f"round child {k} must be a Round or a Leaf, "
                                 f"got {type(child).__name__}")
        if len(children) != self.instrument.n_outcomes:
            raise ValueError(
                f"round has {len(children)} children for "
                f"{self.instrument.n_outcomes} outcomes"
            )
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class Leaf:
    """Terminal guess: an ensemble member index or an explicit state."""

    guess: int | StateVector

    def __post_init__(self):
        if type(self.guess) is not int and not isinstance(self.guess, StateVector):
            object.__setattr__(self, "guess", _as_int(self.guess, "leaf guess"))


@dataclass(frozen=True)
class JointProblem:
    """An ensemble to discriminate, optionally with an attached resource."""

    ensemble: Ensemble
    resource: StateVector | None = None
    resource_layout: PartyLayout | None = None
    joint: Ensemble = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.resource is None) != (self.resource_layout is None):
            raise ValueError("resource and resource_layout must be given together")
        if self.resource is not None:
            joint = attach_resource(self.ensemble, self.resource, self.resource_layout)
        else:
            joint = self.ensemble
        object.__setattr__(self, "joint", joint)


def attach_resource(ens: Ensemble, resource: StateVector,
                    resource_layout: PartyLayout) -> Ensemble:
    """Tensor the resource onto every member and merge the layouts.

    Resource subsystems occupy global indices 0..R-1; each sharing
    party's index list gains its resource subsystems in front of its
    unknown-state subsystems.
    """
    if not resource_layout.covers(resource.n_subsystems):
        raise ValueError("resource layout does not cover the resource subsystems")
    ens_names = set(ens.layout.names)
    for name in resource_layout.names:
        if name not in ens_names:
            raise KeyError(f"resource party {name!r} unknown to the ensemble layout")
    shift = resource.n_subsystems
    res_names = set(resource_layout.names)
    parties = []
    for name, idx in ens.layout.parties:
        res_idx = resource_layout.indices(name) if name in res_names else ()
        parties.append((name, tuple(res_idx) + tuple(i + shift for i in idx)))
    layout = PartyLayout(tuple(parties))
    members = tuple((p, kron(resource, s)) for p, s in ens.members)
    return Ensemble(layout, members)


def validate_tree(tree, ens: Ensemble) -> None:
    """Check party names, target locality and guess ranges against ``ens``.

    Every round and leaf is visited, depth first from an explicit stack, so
    a tree of any depth is checked; each distinct instrument (by identity)
    is checked once per call, at its first round. A root that is neither a
    Round nor a Leaf is refused here; a Round refuses such a child itself."""
    dims, size = ens.dims, ens.size
    if not isinstance(tree, (Round, Leaf)):
        raise ValueError(f"tree root must be a Round or a Leaf, got {type(tree).__name__}")
    checked: set[int] = set()  # ids of instruments checked; the tree keeps them alive
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if isinstance(node.guess, int):
                if not 0 <= node.guess < size:
                    raise ValueError(f"leaf guesses member {node.guess} of {size}")
            elif node.guess.dims != dims:
                raise ValueError("leaf guess dims do not match the ensemble")
            continue
        inst = node.instrument
        if id(inst) not in checked:
            party_idx = ens.layout.indices(inst.party)  # raises for unknown party
            if not set(inst.targets) <= set(party_idx):
                raise ValueError(
                    f"instrument for {inst.party!r} targets {inst.targets} outside "
                    f"that party's subsystems {party_idx}"
                )
            dloc = math.prod(dims[t] for t in inst.targets)
            if inst.kraus[0].shape != (dloc, dloc):
                raise ValueError(
                    f"instrument for {inst.party!r} has operator shape "
                    f"{inst.kraus[0].shape}, expected ({dloc},{dloc})"
                )
            checked.add(id(inst))
        stack.extend(reversed(node.children))


class StepRecord(NamedTuple):
    """One step of a branch; a named tuple, so that branches sort by their steps."""

    party: str
    outcome: int
    label: str
    n_outcomes: int
    survivor_count: int


class BranchRecord(NamedTuple):
    """One scored leaf; a named tuple, since a walk makes one per leaf."""

    steps: tuple[StepRecord, ...]
    probability: float
    member_probabilities: np.ndarray
    survivors: tuple[int, ...]
    guess_index: int | None


@dataclass(frozen=True)
class ProtocolResult:
    fidelity: float
    branches: tuple[BranchRecord, ...]

    def survivors_after_measurement_round(self, j: int) -> tuple[int, ...]:
        """Distinct survivor counts right after the j-th multi-outcome round."""
        counts = set()
        for br in self.branches:
            seen = 0
            for step in br.steps:
                if step.n_outcomes > 1:
                    seen += 1
                if seen == j:
                    counts.add(step.survivor_count)
                    break
        return tuple(sorted(counts))


_GROUP_BYTES = 1 << 22  # a group whose rows hold more is contracted in halves


def _probabilities(rows: np.ndarray) -> np.ndarray:
    """Squared norm along the last axis, a new float array. The sum runs over
    the real view of ``rows`` (its last axis must be contiguous), so it
    makes no complex temporary."""
    real = rows.view(float)
    return np.einsum("...d,...d->...", real, real)


class _Group(NamedTuple):
    """Rounds entered from one contraction that share the shape of their
    step. Round b has the records ``steps[b]`` made on the way and member
    rows ``rows[b]`` of shape (members, width), whose axes are the
    original subsystems ``axes``; each ``(subsystems, kets)`` in ``held``
    is a group of subsystems whose factor ``kets[b]`` was split off those
    rows."""

    nodes: tuple[Round, ...]
    steps: tuple[tuple[StepRecord, ...], ...]
    rows: np.ndarray
    axes: tuple[int, ...]
    held: tuple[tuple[tuple[int, ...], np.ndarray], ...]


def _push_rows(tree, states, dims, priors, prune):
    """Push the member rows ``states`` through ``tree`` and return its
    leaves in depth-first order as ``(leaves, steps, probs)``: the leaf
    nodes, the steps taken to each, and one row per leaf holding the
    squared norm of every member's row there.

    The walk pops groups of rounds off a stack, contracts each at once
    (:func:`_contract`) and pushes the groups entered below it. Each
    contraction hands over the leaves it entered, with their steps and
    their rows in one block. Outcomes whose weighted probability is below
    ``prune`` are not entered (``-math.inf`` enters every one), and each
    entered one adds a StepRecord to the branches below; within one
    contraction, branches taking the same step share one record. So two
    branches share the records of their common prefix and first differ at
    two outcomes of one round, where ``party`` ties and ``outcome``
    decides: sorting the leaves by their steps puts them depth first.
    """
    if isinstance(tree, Leaf):
        return [tree], [()], _probabilities(states)[None]
    dims = tuple(dims)
    stack = [_Group((tree,), ((),), states[None], tuple(range(len(dims))), ())]
    # (leaves, steps, probs) per contraction; the empty first block keeps the
    # concatenation defined when every outcome is pruned
    blocks: list = [((), (), np.empty((0, len(states))))]
    while stack:
        stack += _contract(stack.pop(), dims, priors, prune, blocks)
    leaves, steps = ([item for block in blocks for item in block[i]] for i in range(2))
    order = sorted(range(len(steps)), key=steps.__getitem__)
    probs = np.concatenate([block[2] for block in blocks])[order]
    return [leaves[i] for i in order], [steps[i] for i in order], probs


def _contract(group: _Group, dims, priors, prune, blocks) -> list[_Group]:
    """Apply the rounds of ``group`` to their stacked rows in one batched
    product: ``<w|`` for rank-one rounds, the Kraus stacks otherwise, each
    stacked once per distinct instrument and gathered by round. Each
    product covers ``chunk`` member rows, the largest divisor of the member
    count whose rows together are at most one joint row wide: a
    (outcomes, dloc) @ (dloc, chunk * rest) product, never wider than one
    member row's at the root. The result is laid out as (rounds, outcomes,
    members, rest); each group below takes its rows from it in one gather
    by (round, outcome), and so do the leaves entered, which are appended
    to ``blocks`` as one block. Return the entered rounds below, one group
    per shape of their step; a group of two or more rounds whose rows
    exceed ``_GROUP_BYTES`` is returned as two halves, the first on top."""
    nodes, rows = group.nodes, group.rows
    if len(nodes) > 1 and rows.nbytes > _GROUP_BYTES:
        half = len(nodes) // 2
        return [_Group(nodes[part], group.steps[part], rows[part], group.axes,
                       tuple((s, kets[part]) for s, kets in group.held))
                for part in (slice(half, None), slice(half))]
    targets = nodes[0].instrument.targets
    n_entries, members = rows.shape[:2]
    axes, kept = group.axes, []
    for subsystems, kets in group.held:
        if set(subsystems).isdisjoint(targets):
            kept.append((subsystems, kets))
            continue
        rows = (rows[:, :, :, None] * kets[:, None, None, :]).reshape(n_entries, members, -1)
        axes += subsystems
    pos = tuple(axes.index(t) for t in targets)
    local = tuple(dims[a] for a in axes)
    width = rows.shape[2]
    chunk = min(members, math.prod(dims) // width)
    while members % chunk:
        chunk -= 1
    insts = list({id(node.instrument): node.instrument for node in nodes}.values())
    position = {id(inst): i for i, inst in enumerate(insts)}
    index = np.array([position[id(node.instrument)] for node in nodes])
    rank_one = insts[0]._rank_one is not None
    if rank_one:
        split = np.array([inst._rank_one[0] for inst in insts])
        bras = np.array([inst._rank_one[1] for inst in insts])[index]
        n_outcomes, dloc = bras.shape[1:]
        rest = width // dloc
        # the chunk's member axis stays behind the target axes: one (outcomes, dloc) @ (dloc,
        # chunk * rest) product per chunk, written through a transposed view of (rounds,
        # outcomes, members, rest)
        arr = np.moveaxis(rows.reshape((n_entries, members // chunk, chunk) + local),
                          [p + 3 for p in pos], range(2, len(pos) + 2))
        out = np.empty((n_entries, n_outcomes, members, rest), dtype=complex)
        np.matmul(bras[:, None], arr.reshape(n_entries, members // chunk, dloc, chunk * rest),
                  out=out.reshape(n_entries, n_outcomes, members // chunk, -1).swapaxes(1, 2))
        axes = tuple(a for a in axes if a not in targets)
    else:
        ops = np.array([inst._stack for inst in insts])[index]
        n_outcomes = ops.shape[1]
        # the chunk is one more subsystem, in front of the rows' own
        out = apply_to_batch(ops, [p + 1 for p in pos],
                             rows.reshape(n_entries * members // chunk, chunk * width),
                             (chunk,) + local).reshape(n_entries, n_outcomes, members, width)
    probs = _probabilities(out)
    weights = (probs @ priors).tolist()
    survivors = np.count_nonzero(probs > prune, axis=2).tolist()
    records: dict = {}  # (id(instrument), outcome, survivor count) -> (its one StepRecord,)
    # the leaves entered: nodes, steps and rows in probs read as (rounds * outcomes, members);
    # parallel lists, as appending to each is cheaper than splitting tuples
    leaf_nodes, leaf_steps, at = [], [], []
    buckets: dict = {}  # step shape -> (rounds, steps, round indices, outcomes)
    bucket_of: dict = {}  # id(instrument below) -> the bucket of its step shape
    for b, (node, steps, weight, count) in enumerate(zip(nodes, group.steps, weights, survivors)):
        inst = node.instrument
        inst_id = id(inst)
        for k, child in enumerate(node.children):
            if weight[k] < prune:
                continue
            key = (inst_id, k, count[k])
            record = records.get(key)
            if record is None:
                record = records[key] = (StepRecord(inst.party, k, inst.outcome_label(k),
                                                    len(inst.kraus), count[k]),)
            if type(child) is Leaf:
                leaf_nodes.append(child)
                leaf_steps.append(steps + record)
                at.append(b * n_outcomes + k)
                continue
            bucket = bucket_of.get(id(child.instrument))
            if bucket is None:
                below = child.instrument
                shape = (below.targets, len(below.kraus), below._rank_one is None)
                bucket = bucket_of[id(below)] = buckets.setdefault(shape, ([], [], [], []))
            rounds, steps_below, entry, outcome = bucket
            rounds.append(child)
            steps_below.append(steps + record)
            entry.append(b)
            outcome.append(k)
    if at:
        blocks.append((leaf_nodes, leaf_steps, probs.reshape(-1, members)[at]))
    groups = []
    for rounds, steps, entry, outcome in buckets.values():
        entry, outcome = np.array(entry), np.array(outcome)
        held = tuple((subsystems, kets[entry]) for subsystems, kets in kept)
        if rank_one:
            held += ((targets, split[index[entry], outcome]),)
        groups.append(_Group(tuple(rounds), tuple(steps), out[entry, outcome], axes, held))
    return groups


def run_protocol(problem: JointProblem, tree, prune: float = PRUNE) -> ProtocolResult:
    """Exact fidelity of one protocol by full branch enumeration.

    A branch's probability is priors . member probabilities and its
    survivors are the members above ``prune``; both are computed for all
    branches at once, over the leaves' probability rows. Each record
    keeps the walk's own row as its ``member_probabilities``.

    A leaf guessing member g scores |<psi_i|psi_g>|^2, read from the Gram
    matrix of ``problem.ensemble``, the members before the resource r is
    attached: each joint member is r (x) psi_i, so the joint overlaps are
    these times |r|^4, a product over the ensemble's dimension instead of
    the joint one. A leaf guessing an explicit state is scored on the joint
    members."""
    ens = problem.joint
    validate_tree(tree, ens)
    states = ens.amplitude_matrix()
    priors = ens.priors
    leaves, steps, rows = _push_rows(tree, states, ens.dims, priors, prune)
    # a batch of (1, members) @ (members,) products: each one is np.dot(priors, row)
    probabilities = (rows[:, None, :] @ priors)[:, 0].tolist()
    above = rows > prune
    columns = np.nonzero(above)[1].tolist()
    survivors, start = [], 0
    for count in np.count_nonzero(above, axis=1).tolist():
        survivors.append(tuple(columns[start:start + count]))
        start += count
    guesses = [leaf.guess if isinstance(leaf.guess, int) else None for leaf in leaves]
    branches = tuple(map(BranchRecord._make, zip(steps, probabilities, rows, survivors, guesses)))
    # |<psi_i|psi_g>|^2 from the members before the resource is attached: each joint member
    # is r (x) psi_i, so its overlaps are these times |r|^4
    overlaps = np.abs(problem.ensemble.gram()) ** 2
    if problem.resource is not None:
        overlaps *= np.linalg.norm(problem.resource.amps) ** 4
    weighted = rows * priors
    # one (1, members) @ (members, 1) product per leaf, np.dot(priors * probs, overlap column):
    # taken side by side, the columns are read at a stride, as in place, when there are two
    # leaves or more (BLAS sums a contiguous column in another order)
    picked = np.take(overlaps, [0 if guess is None else guess for guess in guesses], axis=1)
    terms = (weighted[:, None, :] @ picked.T[:, :, None])[:, 0, 0]
    for i, guess in enumerate(guesses):
        if guess is None:
            terms[i] = np.dot(weighted[i], np.abs(states.conj() @ leaves[i].guess.amps) ** 2)
    total = 0.0
    for term in terms.tolist():  # summed in branch order
        total += term
    return ProtocolResult(total, branches)


def validate_one_way(tree, order: Sequence[str]) -> bool:
    """True iff every path's acting parties are non-decreasing in ``order``.

    The walk keeps each round still to visit with the lowest rank in
    ``order`` its party may take, on an explicit stack, so a tree of any
    depth is checked; a party named twice in ``order`` takes its last rank."""
    rank = {str(name): i for i, name in enumerate(order)}
    stack = [(tree, 0)]
    while stack:
        node, lowest = stack.pop()
        if isinstance(node, Leaf):
            continue
        r = rank.get(node.instrument.party, -1)
        if r < lowest:
            return False
        stack.extend((child, r) for child in node.children)
    return True


def flatten_to_povm(tree, problem: JointProblem):
    """Collapse a protocol tree to one global POVM element per branch.

    Branch b yields E_b = K_b^dagger K_b, with K_b its Kraus product
    identity-padded to the joint space, paired with the leaf's guess, so
    that ``average_fidelity`` on the result reproduces :func:`run_protocol`.
    E_b comes as a thin factor C_b of shape (rank K_b, d) with
    E_b = C_b^dagger C_b; no d x d element is formed. The walk is kept
    apart from :func:`_push_rows` so that the cross-checks compare two
    paths.

    One loop pops ``(node, K, axes, held, full)`` off an explicit stack, so
    a tree of any depth flattens. K, shape (m, d), is the Kraus product
    reaching ``node`` on the original subsystems ``axes``; each
    ``(subsystems, ket)`` in ``held`` is a unit ket split off K, which
    leaves K^dagger K unchanged, and ``full`` says K has full row rank m.
    A round moves its targets to the front of K's rows and applies all its
    outcomes in one product: <w_k| for a rank-one round, K_k = |u_k><w_k|
    (|u_k> is held), K_k for any other; its children are pushed in reverse,
    so the leaves come off depth first. Rank-one rounds on un-held targets
    and single-outcome rounds keep full row rank (a lone K has K^dagger K
    = I to TOL, so it is invertible), and the leaf emits K as it is. Below
    any other round, or a round touching a held subsystem (its kets are put
    back first), the leaf keeps the rows of K's SVD above 1e-13 of its
    largest singular value.
    """
    ens = problem.joint
    validate_tree(tree, ens)
    dims, states = ens.dims, ens.states
    factors: list[np.ndarray] = []
    guesses: list[StateVector] = []
    stack = [(tree, np.eye(ens.dim, dtype=complex), tuple(range(len(dims))), (), True)]
    while stack:
        node, kraus, axes, held, full = stack.pop()
        if isinstance(node, Leaf):
            if not full:
                _, s, vh = np.linalg.svd(kraus, full_matrices=False)
                r = int(np.count_nonzero(s > 1e-13 * s[0]))
                kraus = s[:r, None] * vh[:r]
            factors.append(kraus)
            guesses.append(states[node.guess] if isinstance(node.guess, int) else node.guess)
            continue
        inst = node.instrument
        targets, kept, d = inst.targets, [], kraus.shape[1]
        for subsystems, ket in held:
            if set(subsystems).isdisjoint(targets):
                kept.append((subsystems, ket))
                continue
            kraus = (ket[:, None, None] * kraus).reshape(-1, d)
            axes = subsystems + axes
            full = False
        rest = tuple(a for a in axes if a not in targets)
        if axes != targets + rest:
            perm = [axes.index(a) for a in targets + rest] + [len(axes)]
            kraus = kraus.reshape(tuple(dims[a] for a in axes) + (d,)).transpose(perm)
        kraus = kraus.reshape(len(inst.kraus[0]), -1)
        rank_one = inst._rank_one
        if rank_one is not None:
            kets, bras = rank_one
            images = (bras @ kraus).reshape(len(bras), -1, d)
            below = [(rest, (*kept, (targets, ket)), full) for ket in kets]
        else:
            images = (inst._stack @ kraus).reshape(len(inst.kraus), -1, d)
            below = [(targets + rest, tuple(kept), full and len(inst.kraus) == 1)] * len(images)
        stack += reversed([(child, image, *state)
                           for child, image, state in zip(node.children, images, below)])
    return Povm.from_factors(dims, factors), GuessStrategy(tuple(guesses))


def relabel_parties(tree, mapping: Mapping[str, str]):
    """Rename acting parties (e.g. after coarsening); targets unchanged.

    Rounds that share an instrument share its relabelled copy, which is
    built and checked once. Children are built before their parents from
    an explicit stack, so a tree of any depth is relabelled."""
    renamed: dict[int, Instrument] = {}
    done: list = []  # relabelled subtrees; a round's children are the last ones
    stack: list = [(tree, None)]  # (node, its copy's instrument once its children are pushed)
    while stack:
        node, inst = stack.pop()
        if inst is not None:
            first = len(done) - len(node.children)
            done[first:] = [Round(inst, tuple(done[first:]))]
        elif isinstance(node, Leaf):
            done.append(node)
        else:
            inst = node.instrument
            if id(inst) not in renamed:
                renamed[id(inst)] = Instrument(
                    mapping.get(inst.party, inst.party), inst.targets, inst.kraus, inst.labels,
                )
            stack.append((node, renamed[id(inst)]))
            stack.extend((child, None) for child in reversed(node.children))
    return done[0]


# -- serialization -----------------------------------------------------------

def _complex_to_json(arr: np.ndarray):
    return {"re": np.real(arr).tolist(), "im": np.imag(arr).tolist()}


def _field(node: dict, key: str, at: str, kind: type = object):
    """``node[key]``; a missing key or a value that is not a ``kind`` is
    refused, naming the field by its JSON path ``at + key``."""
    if key not in node:
        raise ValueError(f"{at}{key}: missing")
    return _checked(node[key], kind, at + key)


def _checked(value, kind: type, where: str):
    """``value``, refused naming ``where`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _complex_from_json(obj, name: str) -> np.ndarray:
    """The complex array of ``obj``'s ``re`` and ``im``, which must be
    arrays of JSON numbers (``bool`` is not one) of one shape; anything
    else is refused, naming the field by its JSON path ``name``."""
    _checked(obj, dict, name)
    parts = []
    for part in ("re", "im"):
        value = _field(obj, part, f"{name}.")
        # dtype=object keeps each entry's own type (a ragged array holds lists); an
        # integer past the float range overflows
        try:
            value = np.asarray(value, dtype=object)
            if all(type(x) is float or type(x) is int for x in value.flat):
                parts.append(value.astype(float))
                continue
        except (ValueError, OverflowError):
            pass
        raise ValueError(f"{name}.{part}: not an array of numbers")
    re, im = parts
    if im.shape != re.shape:
        raise ValueError(f"{name}.im: shape {im.shape} does not match re shape {re.shape}")
    # set the parts rather than add them: re + 1j * im turns -0.0 into +0.0
    arr = np.empty(re.shape, dtype=complex)
    arr.real, arr.imag = re, im
    return arr


def _built(at: str, make, *args):
    """``make(*args)``, whose ``ValueError`` is raised again with the JSON
    path ``at`` in front."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{at}: {exc}") from None


def _index(value, low: int, high: int, at: str) -> int:
    """``value`` as an index in ``low`` .. ``high - 1``, refused naming ``at``."""
    index = _as_int(value, at)
    if not low <= index < high:
        raise ValueError(f"{at}: index {index} is not in {low}..{high - 1}")
    return index


def _instrument_from_json(obj, at: str) -> Instrument:
    _checked(obj, dict, at)
    labels = _field(obj, "labels", f"{at}.")
    if labels is not None:
        labels = tuple(_checked(label, str, f"{at}.labels[{k}]")
                       for k, label in enumerate(_checked(labels, list, f"{at}.labels")))
    kraus = tuple(_complex_from_json(k, f"{at}.kraus[{i}]")
                  for i, k in enumerate(_field(obj, "kraus", f"{at}.", list)))
    return _built(at, Instrument, _field(obj, "party", f"{at}.", str),
                  tuple(_field(obj, "targets", f"{at}.", list)), kraus, labels)


def tree_to_dict(tree) -> dict:
    """The JSON-ready dict of ``tree``, tree JSON format 2: each distinct
    instrument (by identity) once in ``instruments``, and the nodes in
    ``nodes``, depth first from an explicit stack, the root first. A round
    is ``{"round": instrument index, "children": [node index, ...]}``, a
    leaf ``{"member": g}`` or ``{"state": {"dims", "re", "im"}}``."""
    instruments: dict[int, int] = {}  # id(instrument) -> its index; the tree keeps them alive
    table: list = []
    nodes: list = []
    stack = [(tree, [])]  # (node, its parent's children list)
    while stack:
        node, siblings = stack.pop()
        siblings.append(len(nodes))
        if isinstance(node, Leaf):
            guess = node.guess
            nodes.append({"member": guess} if isinstance(guess, int) else
                         {"state": {"dims": list(guess.dims), **_complex_to_json(guess.amps)}})
            continue
        inst, children = node.instrument, []
        if id(inst) not in instruments:
            instruments[id(inst)] = len(table)
            table.append({"party": inst.party, "targets": list(inst.targets),
                          "labels": list(inst.labels) if inst.labels else None,
                          "kraus": [_complex_to_json(k) for k in inst.kraus]})
        nodes.append({"round": instruments[id(inst)], "children": children})
        stack.extend((child, children) for child in reversed(node.children))
    return {"format": 2, "instruments": table, "nodes": nodes}


def tree_from_dict(obj):
    """The tree of a dict in the form of :func:`tree_to_dict`. A child's
    index must be above its parent's, and every node but ``nodes[0]``, the
    root, must have exactly one parent; so one loop builds the nodes from
    the last one up, and a tree of any depth is read. Each instrument is
    built once and shared by its rounds, and each must be used. Anything
    else is refused with a ``ValueError`` naming its JSON path, such as
    ``instruments[1].kraus[0].re`` or ``nodes[3].children[1]``."""
    _checked(obj, dict, "tree")
    if _field(obj, "format", "") != 2:
        raise ValueError(f"format: {obj['format']!r} is not 2")
    instruments = [_instrument_from_json(item, f"instruments[{i}]")
                   for i, item in enumerate(_field(obj, "instruments", "", list))]
    nodes = _field(obj, "nodes", "", list)
    if not nodes:
        raise ValueError("nodes: empty")
    built: list = [None] * len(nodes)  # each node once built, None again once its parent took it
    used: set[int] = set()
    for i in reversed(range(len(nodes))):
        at = f"nodes[{i}]"
        node = _checked(nodes[i], dict, at)
        if "round" in node:
            inst = _index(node["round"], 0, len(instruments), f"{at}.round")
            children = []
            for k, child in enumerate(_field(node, "children", f"{at}.", list)):
                j = _index(child, i + 1, len(nodes), f"{at}.children[{k}]")
                if built[j] is None:
                    raise ValueError(f"{at}.children[{k}]: node {j} has a second parent")
                children.append(built[j])
                built[j] = None
            used.add(inst)
            built[i] = _built(at, Round, instruments[inst], children)
        elif "member" in node:
            built[i] = Leaf(_as_int(node["member"], f"{at}.member"))
        elif "state" in node:
            st = _field(node, "state", f"{at}.", dict)
            dims = tuple(_field(st, "dims", f"{at}.state.", list))
            built[i] = Leaf(_built(f"{at}.state", StateVector, dims,
                                   _complex_from_json(st, f"{at}.state")))
        else:
            raise ValueError(f"{at}: no round, member or state")
    orphan = next((j for j in range(1, len(nodes)) if built[j] is not None), None)
    if orphan is not None:
        raise ValueError(f"nodes[{orphan}]: no parent")
    unused = next((i for i in range(len(instruments)) if i not in used), None)
    if unused is not None:
        raise ValueError(f"instruments[{unused}]: used by no round")
    return built[0]


def tree_to_json(tree) -> str:
    return json.dumps(tree_to_dict(tree))


def tree_from_json(text: str):
    """The tree of ``text``. Tree JSON nests at most 7 levels, so text that
    makes ``json`` recurse too deep is refused with a ``ValueError``."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("tree: JSON nests too deep") from None
    return tree_from_dict(obj)


# -- instrument builders -----------------------------------------------------

def projective_instrument(party: str, targets: Sequence[int],
                          vectors: np.ndarray,
                          labels: Sequence[str] | None = None,
                          complete: bool = False) -> Instrument:
    """Rank-1 projectors onto the rows of ``vectors``.

    With ``complete=True`` a residual projector onto the orthogonal
    complement is appended (labelled "rest") so the instrument sums to
    the identity even when the rows do not span the space.
    """
    vectors = np.asarray(vectors, dtype=complex)
    kraus = [np.outer(v, v.conj()) for v in vectors]
    labels = list(labels) if labels is not None else [str(k) for k in range(len(kraus))]
    if complete:
        rest = np.eye(vectors.shape[1], dtype=complex) - sum(kraus)
        if np.max(np.abs(rest)) > TOL:
            kraus.append(rest)
            labels.append("rest")
    return Instrument(party, tuple(targets), tuple(kraus), tuple(labels))


def bell_instrument(party: str, targets: Sequence[int]) -> Instrument:
    """Two-qubit Bell measurement in the order phi+, phi-, psi+, psi-."""
    return projective_instrument(
        party, targets, bell_vectors(), ("phi+", "phi-", "psi+", "psi-"),
    )


def generalized_bell_instrument(party: str, targets: Sequence[int], d: int) -> Instrument:
    labels = tuple(f"{m}{n}" for m in range(d) for n in range(d))
    return projective_instrument(party, targets, generalized_bell_vectors(d), labels)


def computational_instrument(party: str, targets: Sequence[int],
                             local_dims: Sequence[int]) -> Instrument:
    d = math.prod(local_dims)
    eye = np.eye(d, dtype=complex)
    labels = tuple(str(b) for b in range(d))
    return projective_instrument(party, targets, eye, labels)


def plus_minus_instrument(party: str, target: int) -> Instrument:
    h = 1 / math.sqrt(2)
    vecs = np.array([[h, h], [h, -h]], dtype=complex)
    return projective_instrument(party, (target,), vecs, ("+", "-"))


def unitary_instrument(party: str, targets: Sequence[int], u: np.ndarray,
                       label: str = "u") -> Instrument:
    """Single-outcome round applying a deterministic local unitary."""
    return Instrument(party, tuple(targets), (np.asarray(u, dtype=complex),), (label,))
