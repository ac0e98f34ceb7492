"""Concrete protocol builders.

Each builder returns a ``(JointProblem, tree)`` pair ready for
:func:`locce.protocols.run_protocol`. Builders take every round's target
subsystems from ``problem.joint.layout``, where
:func:`locce.protocols.attach_resource` places each party's resource
subsystems before its unknown ones. Leaf guesses are decoded from the
leaves that the exact branch walk scoring a tree returns: each leaf
guesses the member with the largest weighted branch probability (ties
to the lowest index), so perfect protocols end with the unique
surviving member and lossy ones with the best available guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import (
    BELL_CORRECTIONS,
    StateVector,
    apply_to_batch,  # noqa: F401  unused; perfbench/selftest.py checks the tracer rebinds it
    maximally_entangled,
    PAULI_I,
    PAULI_Z,
    _as_int,
    _bipartition_matrix,
    _weyl,
)
from .families import (
    Ensemble,
    Graph,
    PartyLayout,
    _adjacency,
    bell_basis,
    ghz_basis,
    graph_state_basis,
    lattice_basis,
    parametric_basis,
    single_qubit_layout,
)
from .fidelity import (
    global_optimum_orthonormal,
    mixed_strategy_fidelity,
    vidal_conversion_probability,
)
from .protocols import (
    Instrument,
    JointProblem,
    Leaf,
    Round,
    bell_instrument,
    computational_instrument,
    generalized_bell_instrument,
    plus_minus_instrument,
    projective_instrument,
    run_protocol,
    unitary_instrument,
    validate_tree,
    _push_rows,
)

__all__ = [
    "build_tree",
    "computational_protocol",
    "teleportation_protocol",
    "lattice_partial_teleport",
    "sequential_bell_protocol",
    "partitioned_ghz_protocol",
    "graph_decode_protocol",
    "graph_outcome_table",
    "ghz_subset_family",
    "ghz_subset_bell_protocol",
    "vidal_then_fallback",
    "ZooEntry",
    "standard_zoo",
]

ScriptStep = Instrument | Callable[[tuple[int, ...]], Instrument]


def build_tree(problem: JointProblem, script: Sequence[ScriptStep]):
    """Grow a tree from a round script once, check it with
    :func:`~locce.protocols.validate_tree` and set every leaf's guess in
    place: the member with the largest weighted branch probability (ties
    to the lowest index), from one argmax over the rows of the exact walk,
    which enters every outcome, even one whose weight a slightly negative
    prior makes negative.
    ``script`` entries are instruments, or callables receiving the outcome
    indices accumulated so far (for outcome-conditioned rounds such as
    correction unitaries); each callable runs once per prefix.
    """
    ens = problem.joint
    tree = _grow(script)
    validate_tree(tree, ens)
    leaves, _, rows = _push_rows(tree, ens.amplitude_matrix(), ens.dims, ens.priors, -math.inf)
    for leaf, guess in zip(leaves, np.argmax(ens.priors * rows, axis=1).tolist()):
        object.__setattr__(leaf, "guess", guess)  # as Leaf.__post_init__; no one holds it yet
    return tree


def _grow(script: Sequence[ScriptStep]):
    """The tree of ``script``, a new ``Leaf(0)`` on every branch, grown one
    script step at a time, so a script of any length grows. Each callable
    step runs once per outcome prefix, in the order of the prefixes; the
    rounds are then built from the last step up."""
    prefixes: list[tuple[int, ...]] = [()]
    levels = []  # the instruments of each script step, one per prefix
    for step in script:
        insts = [step if isinstance(step, Instrument) else step(prefix) for prefix in prefixes]
        levels.append(insts)
        prefixes = [prefix + (k,) for prefix, inst in zip(prefixes, insts)
                    for k in range(inst.n_outcomes)]
    nodes = [Leaf(0) for _ in prefixes]
    for insts in reversed(levels):
        below = iter(nodes)
        nodes = [Round(inst, tuple(itertools.islice(below, inst.n_outcomes))) for inst in insts]
    return nodes[0]


def _undo(party: str, target: int, pos: int, corrections=BELL_CORRECTIONS) -> ScriptStep:
    """Script step: after outcome k of the round at script position ``pos``,
    ``party`` applies ``corrections[k]`` to subsystem ``target``. Each
    correction's instrument is built once and shared by every branch."""
    instruments = tuple(unitary_instrument(party, (target,), u, f"undo:{k}")
                        for k, u in enumerate(corrections))
    return lambda outcomes: instruments[outcomes[pos]]


def computational_protocol(ens: Ensemble):
    """Every party measures all of its subsystems in the computational basis."""
    problem = JointProblem(ens)
    script = [
        computational_instrument(name, idx, tuple(ens.dims[i] for i in idx))
        for name, idx in ens.layout.parties
    ]
    return problem, build_tree(problem, script)


def teleportation_protocol(ens: Ensemble, sender: str, receiver: str):
    """Teleport the sender's share to the receiver, then project onto members.

    Consumes a d x d maximally entangled resource where d is the
    sender's local dimension; perfectly distinguishes any orthonormal
    ensemble, and is one-way sender -> receiver.
    """
    if len(ens.layout.parties) != 2:
        raise ValueError("teleportation needs a bipartite ensemble")
    if {sender, receiver} != set(ens.layout.names):
        raise ValueError(f"sender/receiver must be {ens.layout.names}")
    blocks = [ens.layout.indices(name) for name in (sender, receiver)]
    d = math.prod(ens.dims[i] for i in blocks[0])
    problem = JointProblem(ens, StateVector((d, d), maximally_entangled(d)),
                           PartyLayout(((sender, (0,)), (receiver, (1,)))))
    send, recv = (problem.joint.layout.indices(name) for name in (sender, receiver))
    labels = tuple(str(i) for i in range(ens.size))
    # members re-indexed to (sender block, receiver block) order
    images = _bipartition_matrix(ens.dims, ens.amplitude_matrix(), *blocks)
    images = images.reshape(ens.size, -1)
    script = [
        generalized_bell_instrument(sender, send, d),
        _undo(receiver, recv[0], 0, _weyl(d)),
        projective_instrument(receiver, recv, images, labels, complete=True),
    ]
    return problem, build_tree(problem, script)


def lattice_partial_teleport(num_pairs: int, teleported_pairs: int):
    """Identify ``teleported_pairs`` Bell pairs exactly via one resource
    pair each; measure the rest computationally.

    Achieves fidelity 1/2**(num_pairs - teleported_pairs) on the full
    Bell-product basis, saturating at 1 when every pair is teleported.
    All of A's rounds precede all of B's, so the protocol is one-way.
    """
    n, m = num_pairs, teleported_pairs
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    pairs = lattice_basis(m)
    problem = JointProblem(lattice_basis(n), pairs.states[0], pairs.layout)
    # each party holds m resource qubits, then its n unknown ones
    a, b = problem.joint.layout.indices("A"), problem.joint.layout.indices("B")
    script: list[ScriptStep] = [bell_instrument("A", (a[j], a[m + j])) for j in range(m)]
    if a[2 * m:]:
        script.append(computational_instrument("A", a[2 * m:], (2,) * (n - m)))
    for j in range(m):
        script.append(_undo("B", b[j], j))  # A's Bell round for pair j is step j
        script.append(bell_instrument("B", (b[j], b[m + j])))
    if b[2 * m:]:
        script.append(computational_instrument("B", b[2 * m:], (2,) * (n - m)))
    return problem, build_tree(problem, script)


def sequential_bell_protocol(num_parties: int, order: Sequence[str] | None = None):
    """Distinguish the fully split GHZ basis with a GHZ resource.

    Every party Bell-measures its (resource, unknown) qubit pair in
    sequence, the next party in line applying the Pauli undo on its
    resource qubit after each outcome. Achieves fidelity 1 exactly; any
    measurement order works.
    """
    num_parties = _as_int(num_parties, "num_parties")
    if num_parties < 2:
        raise ValueError("need at least 2 parties")
    return _ghz_chain(num_parties, (1,) * num_parties, order)


def _fanout_unitary(n_qubits: int) -> np.ndarray:
    """CNOTs copying local qubit 0 onto qubits 1..n-1: the permutation that
    flips every other bit of the basis states whose qubit 0 is 1."""
    half = 2 ** (n_qubits - 1)
    index = np.arange(2 * half)
    return np.eye(2 * half, dtype=complex)[np.where(index < half, index, index ^ (half - 1))]


def partitioned_ghz_protocol(num_qubits: int, party_sizes: Sequence[int]):
    """Distinguish an N-qubit m-party GHZ basis with an m-qubit GHZ resource.

    Each party first fans its resource qubit out over (n_i - 1) local
    ancilla qubits with CNOTs, turning the m-qubit resource into the
    N-qubit one; the sequential Bell protocol then runs pairwise under
    the coarse layout. Fidelity 1 for any partitioning.
    """
    return _ghz_chain(_as_int(num_qubits, "num_qubits"),
                      tuple(_as_int(s, "party_sizes") for s in party_sizes))


def _ghz_chain(n: int, sizes: tuple[int, ...], order: Sequence[str] | None = None):
    """``(problem, tree)`` for the GHZ basis of ``n`` qubits in parties of
    ``sizes``, with an m-qubit GHZ resource on each party's first qubit,
    padded with |0> ancillas over the party's block. Parties act in
    ``order`` (default: layout order): each fans its resource qubit out
    over its block; then, qubit by qubit, the owner Bell-measures
    (resource, unknown) and the owner of the next qubit undoes the
    outcome on that qubit's resource. A party's joint indices hold its
    resource qubits, then its unknown ones, so its pairs zip the halves."""
    ens = ghz_basis(n, sizes)
    names = list(order) if order is not None else list(ens.layout.names)
    if sorted(names) != sorted(ens.layout.names):
        raise ValueError(f"order must permute {ens.layout.names}")
    blocks = dict(ens.layout.parties)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[sum(1 << (n - 1 - idx[0]) for idx in blocks.values())] = 1 / math.sqrt(2)
    problem = JointProblem(ens, StateVector((2,) * n, amps), ens.layout)
    joint = problem.joint.layout
    halves = {name: len(joint.indices(name)) // 2 for name in names}
    script: list[ScriptStep] = [
        unitary_instrument(name, joint.indices(name)[:h], _fanout_unitary(h), "fanout")
        for name, h in halves.items() if h > 1
    ]
    chain = [(name, r, u) for name, h in halves.items()
             for r, u in zip(joint.indices(name)[:h], joint.indices(name)[h:])]
    for (name, r, u), nxt in itertools.zip_longest(chain, chain[1:]):
        script.append(bell_instrument(name, (r, u)))
        if nxt:
            script.append(_undo(*nxt[:2], len(script) - 1))
    return problem, build_tree(problem, script)


def graph_outcome_table(g: Graph) -> dict[tuple[int, ...], int]:
    """Decoding lookup: Bell-outcome tuple -> unique consistent member.

    Outcome k_a = 2 m_a + n_a leaves (tensor of X^{m_a} Z^{n_a}) on the
    fiducial state, up to phase. The stabilizer K_a = X_a prod_{b ~ a} Z_b
    fixes that state, so X_a acts on it as Z on a's neighbours, and the
    tuple decodes to the member whose bits, qubit 0 most significant, are
    x = n + Gamma m (mod 2) with Gamma the adjacency matrix. Every member
    is hit exactly 2**N times out of the 4**N tuples.
    """
    n = g.vertex_count
    outcomes = np.array(list(itertools.product(range(4), repeat=n))).reshape(-1, n)
    bits = (outcomes % 2 + (outcomes // 2) @ _adjacency(g)) % 2
    members = bits @ (1 << np.arange(n - 1, -1, -1))
    return dict(zip(map(tuple, outcomes.tolist()), members.tolist()))


def graph_decode_protocol(g: Graph):
    """Distinguish a graph-state basis with its conjugate as the resource.

    All parties Bell-measure their (resource, unknown) pair; each leaf
    guesses the one member left with nonzero probability, which is the
    member :func:`graph_outcome_table` gives for that outcome tuple.
    Fidelity 1 with no corrections and no adaptivity.
    """
    ens, resource, _stabs = graph_state_basis(g)
    n = g.vertex_count
    problem = JointProblem(ens, resource, single_qubit_layout(n))
    joint = problem.joint
    script = [
        bell_instrument(name, joint.layout.indices(name)) for name in joint.layout.names
    ]
    return problem, build_tree(problem, script)


def ghz_subset_family() -> Ensemble:
    """Four three-qubit GHZ-type states, equiprobable, parties A, B, C.

    The first two conjugate pairs of the split GHZ basis: Bell-like
    across C|AB, perfectly distinguishable across the other two cuts.
    """
    source = ghz_basis(3, (1, 1, 1))
    layout = PartyLayout((("A", (0,)), ("B", (1,)), ("C", (2,))))
    return Ensemble(layout, tuple((0.25, s) for s in source.states[:4]))


def ghz_subset_bell_protocol():
    """Distinguish the four-state GHZ subset with one Bell pair on B, C.

    A measures in the plus/minus basis; B applies a conditional phase
    flip, which leaves an unknown Bell pair between B and C; B and C
    finish by teleportation-style Bell discrimination. Fidelity 1.
    """
    problem = JointProblem(ghz_subset_family(), bell_basis().states[0],
                           PartyLayout((("B", (0,)), ("C", (1,)))))
    a, b, c = (problem.joint.layout.indices(name) for name in "ABC")

    def a_fix(outcomes):
        u = PAULI_I if outcomes[0] == 0 else PAULI_Z
        return unitary_instrument("B", b[1:], u, "I" if outcomes[0] == 0 else "Z")

    script: list[ScriptStep] = [
        plus_minus_instrument("A", a[0]),
        a_fix,
        bell_instrument("B", b),
        _undo("C", c[0], 2),
        bell_instrument("C", c),
    ]
    return problem, build_tree(problem, script)


def vidal_then_fallback(ens: Ensemble, resource: StateVector, target_rank: int,
                        fallback_tree) -> float:
    """Fidelity of: convert the resource to a maximally entangled state
    when possible, teleport (optimal); otherwise run the fallback tree.

    Returns p * F_opt + (1 - p) * F_fallback with p the maximal local
    conversion probability of the resource, split in half, to the rank-r target.
    """
    half = resource.n_subsystems // 2
    split = (tuple(range(half)), tuple(range(half, resource.n_subsystems)))
    p = vidal_conversion_probability(resource, split, target_rank)
    f_opt = global_optimum_orthonormal(ens)
    fallback = run_protocol(JointProblem(ens), fallback_tree).fidelity
    return mixed_strategy_fidelity(p, f_opt, fallback)


@dataclass(frozen=True)
class ZooEntry:
    name: str
    problem: JointProblem
    tree: object
    expected_fidelity: float
    mes: tuple[int, int] | None = None  # (k, d): k MES d x d members, for mes_bound checks
    one_way_order: tuple[str, ...] | None = None


def standard_zoo() -> list[ZooEntry]:
    """Desk-scale instances of every builder, used by the cross-checks."""
    entries: list[ZooEntry] = []

    problem, tree = teleportation_protocol(bell_basis(), "A", "B")
    entries.append(ZooEntry("teleport-bell", problem, tree, 1.0, (4, 4), ("A", "B")))

    problem, tree = teleportation_protocol(parametric_basis(0.9, 0.8), "A", "B")
    entries.append(ZooEntry("teleport-parametric", problem, tree, 1.0, None, ("A", "B")))

    problem, tree = teleportation_protocol(lattice_basis(1), "A", "B")
    entries.append(ZooEntry("teleport-lattice1", problem, tree, 1.0, (4, 4), ("A", "B")))

    problem, tree = lattice_partial_teleport(2, 1)
    entries.append(ZooEntry("lattice-2-1", problem, tree, 0.5, (16, 8), ("A", "B")))

    problem, tree = lattice_partial_teleport(2, 2)
    entries.append(ZooEntry("lattice-2-2", problem, tree, 1.0, (16, 16), ("A", "B")))

    for n in (2, 3):
        problem, tree = sequential_bell_protocol(n)
        entries.append(ZooEntry(f"sequential-bell-{n}", problem, tree, 1.0))

    problem, tree = partitioned_ghz_protocol(3, (2, 1))
    entries.append(ZooEntry("partitioned-ghz-3-21", problem, tree, 1.0))

    problem, tree = partitioned_ghz_protocol(4, (2, 2))
    entries.append(ZooEntry("partitioned-ghz-4-22", problem, tree, 1.0))

    for name, graph in (
        ("graph-path2", Graph.path(2)),
        ("graph-path3", Graph.path(3)),
        ("graph-triangle", Graph.complete(3)),
    ):
        problem, tree = graph_decode_protocol(graph)
        entries.append(ZooEntry(name, problem, tree, 1.0))

    problem, tree = ghz_subset_bell_protocol()
    entries.append(ZooEntry("ghz-subset-bell", problem, tree, 1.0))

    problem, tree = computational_protocol(bell_basis())
    entries.append(ZooEntry("computational-bell", problem, tree, 0.5, (4, 2), ("A", "B")))

    problem, tree = computational_protocol(ghz_basis(3, (1, 1, 1)))
    entries.append(ZooEntry("computational-ghz3", problem, tree, 0.5))

    problem, tree = computational_protocol(lattice_basis(2))
    entries.append(ZooEntry("computational-lattice2", problem, tree, 0.25, (16, 4), ("A", "B")))

    return entries
