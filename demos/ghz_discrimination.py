# GHZ-basis discrimination, with and without an entangled resource.
#
# Walkthrough: build the 8-state three-qubit GHZ basis, see why local
# measurements top out at fidelity 1/2, then attach a GHZ resource and
# watch the sequential Bell-measurement chain identify every member.

from locce import (
    Ensemble,
    coarsen,
    computational_povm,
    ghz_basis,
    optimal_guess,
    run_protocol,
    separable_bound,
)
from locce.zoo import computational_protocol, partitioned_ghz_protocol, sequential_bell_protocol

ens = ghz_basis(3, (1, 1, 1))
print(f"GHZ basis: {ens.size} orthonormal members on qubits {ens.layout.parties}")

# Every member looks maximally mixed from any single qubit: its largest
# squared Schmidt coefficient across every bipartition is 1/2, so a
# separable measurement can reach at most 8 * (1/8) * (1/2) = 1/2. Merging
# the parties into the two sides of one cut bounds that cut alone.
for a, b in ens.layout.bipartitions():
    grouping = {**dict.fromkeys(a, "A"), **dict.fromkeys(b, "B")}
    bound = separable_bound(Ensemble(coarsen(ens.layout, grouping), ens.members))
    print(f"  bound across {'+'.join(a)} | {'+'.join(b)}: {bound:.12g}")
ceiling = separable_bound(ens)
print(f"local fidelity ceiling: {ceiling:.12g}")

# The ceiling is achievable: measure every qubit in the computational
# basis and guess the better of the two surviving members.
problem, tree = computational_protocol(ens)
achieved = run_protocol(problem, tree).fidelity
print(f"computational protocol achieves: {achieved:.12g}  (saturates the ceiling)")

# The same number falls out of the POVM picture.
_, guessed = optimal_guess(ens, computational_povm(ens.dims))
print(f"optimal guessing on the computational POVM: {guessed:.12g}")

# Now hand the parties a 3-qubit GHZ resource. Party by party, a Bell
# measurement on (resource qubit, unknown qubit) plus a Pauli fix-up on
# the next resource qubit walks the field down to a single candidate.
problem, tree = sequential_bell_protocol(3)
result = run_protocol(problem, tree)
print(f"\nwith a GHZ resource: fidelity {result.fidelity:.12g}")
for j in (1, 2, 3):
    counts = result.survivors_after_measurement_round(j)
    print(f"  survivors after Bell round {j}: {counts}")

# The same resource works for any split of the qubits among fewer
# parties: each party fans its resource qubit out with CNOTs first.
for sizes in ((2, 1), (1, 2)):
    problem, tree = partitioned_ghz_protocol(3, sizes)
    f = run_protocol(problem, tree).fidelity
    print(f"partitioned into {sizes}: fidelity {f:.12g}")

print("\nminimal resource: one GHZ state (1 unit of product-term entanglement,")
print("smallest m-party resource dimension), and it reaches the global optimum.")
