"""Print a bit-exact fingerprint of the protocol builders, the branch walk,
flattening to a POVM and the one-way trust region.

    PYTHONPATH=src python tools/fingerprint.py

One line per protocol case: its name, then three values.

- ``tree``: sha256 of ``tree_to_json`` plus every branch's steps,
  survivors and guess index;
- ``probs``: sha256 of every branch probability (``float.hex``) and the
  bytes of its ``member_probabilities``;
- ``F``: the fidelity as ``float.hex``.

The cases are the ``standard_zoo()`` entries, the 5-party sequential Bell
chain in two fixed orders, the partitioned GHZ protocol at (2, 2, 1) and
(3, 2), graph decoding on the 5-cycle, teleportation of the d = 3
generalized Bell basis, the one case whose corrections are not Paulis,
the partial lattice teleport of 2 of 3 pairs, teleportation of the
2-pair lattice basis from B to A, two unknown qubits per party, and its
teleportation from A to B with the parties' subsystems listed out of
order, A = (2, 0) and B = (3, 1). One case has uneven priors: the
GHZ basis of 3 qubits in parties (2, 1), weighted 3:3:1:1:3:3:1:1 / 16,
under a computational round on qubit 0, then a weak (0.3 : 0.7) and a
+/- round on qubit 2: the priors move 4 of its 8 decoded guesses, and its
branch probabilities are sums that a different summation order rounds
differently. Another GHZ (2, 1) case measures qubit 0, then qubit 2 in
the +/- basis, then qubit 0 again: the ket split off qubit 0 is carried
past the round on qubit 2 and put back for the second measurement. Two
cases hold trees whose rounds share no instrument: the first chain after
a JSON round trip, and the (2, 2, 1) partitioned GHZ protocol coarsened
to one party by ``relabel_parties``. The last case measures A of the
Bell basis twice, then B after a Hadamard: half its leaves are reached
by no member, so its ``tree`` hash covers the guesses decoded there.

Then one ``flat-<case>`` line per protocol case of joint dimension at
most 256 (22 cases, 16 of them the ``standard_zoo()`` entries), for the
POVM and guesses that ``flatten_to_povm`` makes of it. Each holds two
values.

- ``rows``: sha256 of the bytes of the stacked factor rows and of their
  outcome bounds;
- ``guesses``: sha256 of the bytes of every guess's amplitudes.

Then one line per one-way search, ``feasibility_search`` on the Bell
basis at seed 0: spectra (1, 1) and (1.6, 0.4) with K = 4 and (1.6, 0.4)
with K = 8, 12 restarts each, and (1.6, 0.4) with K = 8 and 50 restarts.
Each line holds two values.

- ``records``: sha256 of every ``RestartRecord`` (``residual`` and
  ``grad_norm`` as ``float.hex``, ``nit``, ``nfev``, ``status``);
- ``phis``: sha256 of the bytes of the best restart's ``phis``.

Two commits agree bit for bit when their outputs are identical (see the
README for the diff recipe).
Uses only the standard library, numpy and ``locce``.
"""

import hashlib

import numpy as np

from locce.families import (
    Ensemble, Graph, PartyLayout, bell_basis, coarsen, ghz_basis, lattice_basis,
)
from locce.oneway import ResourceSpectrum, feasibility_search, to_matrix_rep
from locce.protocols import (
    Instrument,
    JointProblem,
    computational_instrument,
    flatten_to_povm,
    plus_minus_instrument,
    relabel_parties,
    run_protocol,
    tree_from_json,
    tree_to_json,
    unitary_instrument,
)
from locce.zoo import (
    build_tree,
    graph_decode_protocol,
    lattice_partial_teleport,
    partitioned_ghz_protocol,
    sequential_bell_protocol,
    standard_zoo,
    teleportation_protocol,
)
from locce.tensor import HADAMARD, StateVector, generalized_bell_vectors


def cases():
    for entry in standard_zoo():
        yield entry.name, entry.problem, entry.tree
    for order in (("A1", "A2", "A3", "A4", "A5"), ("A3", "A1", "A5", "A2", "A4")):
        yield ("sequential-bell-5-" + "-".join(order),
               *sequential_bell_protocol(5, order))
    for sizes in ((2, 2, 1), (3, 2)):
        yield ("partitioned-ghz-5-" + "".join(map(str, sizes)),
               *partitioned_ghz_protocol(5, sizes))
    yield "graph-cycle5", *graph_decode_protocol(Graph.cycle(5))
    qutrit = Ensemble(PartyLayout((("A", (0,)), ("B", (1,)))), tuple(
        (1 / 9, StateVector((3, 3), row)) for row in generalized_bell_vectors(3)))
    yield "teleport-qutrit", *teleportation_protocol(qutrit, "A", "B")
    yield "lattice-3-2", *lattice_partial_teleport(3, 2)
    yield "teleport-lattice2-BA", *teleportation_protocol(lattice_basis(2), "B", "A")
    relabelled = Ensemble(PartyLayout((("A", (2, 0)), ("B", (3, 1)))), lattice_basis(2).members)
    yield "teleport-lattice2-relabelled", *teleportation_protocol(relabelled, "A", "B")
    problem, tree = sequential_bell_protocol(5, ("A1", "A2", "A3", "A4", "A5"))
    yield "sequential-bell-5-json", problem, tree_from_json(tree_to_json(tree))
    problem, tree = partitioned_ghz_protocol(5, (2, 2, 1))
    joint = problem.joint
    grouping = {name: "ALL" for name in joint.layout.names}
    merged = Ensemble(coarsen(joint.layout, grouping), joint.members)
    yield ("partitioned-ghz-5-221-coarsened", JointProblem(merged),
           relabel_parties(tree, grouping))
    ghz = ghz_basis(3, (2, 1))
    uneven = JointProblem(Ensemble(ghz.layout, tuple(
        (weight / 16, state) for weight, state in zip((3, 3, 1, 1, 3, 3, 1, 1), ghz.states))))
    weak = Instrument("A2", (2,), (np.diag([0.3 ** 0.5, 0.7 ** 0.5]),
                                   np.diag([0.7 ** 0.5, 0.3 ** 0.5])))
    script = [computational_instrument("A1", (0,), (2,)), weak, plus_minus_instrument("A2", 2)]
    yield "ghz3-21-uneven-weak", uneven, build_tree(uneven, script)
    held = JointProblem(ghz)
    measure = computational_instrument("A1", (0,), (2,))
    yield "ghz3-21-held-kets", held, build_tree(held, [measure, plus_minus_instrument("A2", 2),
                                                       measure])
    bell = JointProblem(bell_basis())
    measure = computational_instrument("A", (0,), (2,))
    yield "bell-unreached-leaves", bell, build_tree(bell, [
        measure, measure, unitary_instrument("B", (1,), HADAMARD),
        computational_instrument("B", (1,), (2,))])


def fingerprint(problem, tree) -> tuple[str, str, str]:
    result = run_protocol(problem, tree)
    shape = hashlib.sha256(tree_to_json(tree).encode())
    probs = hashlib.sha256()
    for branch in result.branches:
        steps = [(s.party, s.outcome, s.label, s.n_outcomes, s.survivor_count)
                 for s in branch.steps]
        shape.update(repr((steps, branch.survivors, branch.guess_index)).encode())
        probs.update(branch.probability.hex().encode())
        probs.update(branch.member_probabilities.tobytes())
    return shape.hexdigest(), probs.hexdigest(), result.fidelity.hex()


FLAT_MAX_DIM = 256  # the 1024-dimensional cases are left out to keep the run short


def flat_fingerprint(problem, tree) -> tuple[str, str]:
    povm, guess = flatten_to_povm(tree, problem)
    rows = hashlib.sha256(povm.elements.rows.tobytes() + povm.elements.bounds.tobytes())
    guesses = hashlib.sha256(b"".join(g.amps.tobytes() for g in guess.guesses))
    return rows.hexdigest(), guesses.hexdigest()


def oneway_searches():
    for lambdas, outcomes, restarts in (((1.0, 1.0), 4, 12), ((1.6, 0.4), 4, 12),
                                        ((1.6, 0.4), 8, 12), ((1.6, 0.4), 8, 50)):
        yield (f"oneway-{lambdas[0]},{lambdas[1]}-K{outcomes}-R{restarts}",
               ResourceSpectrum(lambdas), outcomes, restarts)


def oneway_fingerprint(spectrum, outcomes, restarts) -> tuple[str, str]:
    result = feasibility_search(to_matrix_rep(bell_basis()), spectrum, outcomes, restarts, 0)
    records = hashlib.sha256()
    for r in result.records:
        records.update(repr((r.residual.hex(), r.nit, r.nfev, r.status,
                             r.grad_norm.hex())).encode())
    phis = hashlib.sha256(b"".join(phi.tobytes() for phi in result.phis))
    return records.hexdigest(), phis.hexdigest()


def main() -> None:
    flat = []
    for name, problem, tree in cases():
        shape, probs, fidelity = fingerprint(problem, tree)
        print(f"{name} tree={shape} probs={probs} F={fidelity}")
        if problem.joint.dim <= FLAT_MAX_DIM:
            flat.append((name, problem, tree))
    for name, problem, tree in flat:
        rows, guesses = flat_fingerprint(problem, tree)
        print(f"flat-{name} rows={rows} guesses={guesses}")
    for name, *search in oneway_searches():
        records, phis = oneway_fingerprint(*search)
        print(f"{name} records={records} phis={phis}")


if __name__ == "__main__":
    main()
