"""Constructors for the state families and ensembles under study.

Every constructor returns an :class:`Ensemble`: equiprobable orthonormal
members together with a :class:`PartyLayout` assigning subsystems to
named parties. Party bipartitions drive entropy and separability bounds
downstream, so layouts are explicit rather than implied by qubit order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tensor import (
    TOL,
    Operator,
    StateVector,
    _as_int,
    all_bipartitions,
    bell_vectors,
)

__all__ = [
    "PartyLayout",
    "Ensemble",
    "Graph",
    "bell_basis",
    "ghz_basis",
    "ghz_state",
    "lattice_basis",
    "graph_state_basis",
    "parametric_basis",
    "coarsen",
    "single_qubit_layout",
]


@dataclass(frozen=True)
class PartyLayout:
    """Ordered assignment of subsystem indices to named parties.

    Within a party the index list is ordered; when a resource is
    attached, resource subsystems precede the unknown-state subsystems.
    """

    parties: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        parties = tuple((str(n), tuple(_as_int(i, "parties") for i in idx))
                        for n, idx in self.parties)
        names = [n for n, _ in parties]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate party names: {names}")
        seen: set[int] = set()
        for name, idx in parties:
            if not idx:
                raise ValueError(f"party {name} holds no subsystems")
            if seen & set(idx):
                raise ValueError(f"party {name} overlaps another party")
            seen |= set(idx)
        object.__setattr__(self, "parties", parties)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.parties)

    @property
    def n_subsystems(self) -> int:
        return sum(len(idx) for _, idx in self.parties)

    def indices(self, name: str) -> tuple[int, ...]:
        for n, idx in self.parties:
            if n == name:
                return idx
        raise KeyError(f"unknown party {name!r}")

    def subsystems_of(self, names: Iterable[str]) -> tuple[int, ...]:
        out: list[int] = []
        for n in names:
            out.extend(self.indices(n))
        return tuple(sorted(out))

    def covers(self, n_subsystems: int) -> bool:
        seen = sorted(i for _, idx in self.parties for i in idx)
        return seen == list(range(n_subsystems))

    def bipartitions(self):
        """All unordered splits of the parties, first party pinned to side A."""
        names = self.names
        return [
            (tuple(names[i] for i in a), tuple(names[i] for i in b))
            for a, b in all_bipartitions(len(names))
        ]


@dataclass(frozen=True)
class Ensemble:
    """Prior-weighted states sharing one layout."""

    layout: PartyLayout
    members: tuple[tuple[float, StateVector], ...]

    def __post_init__(self):
        members = tuple((float(p), s) for p, s in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        priors = [p for p, _ in members]
        if any(p < -TOL for p in priors) or not abs(sum(priors) - 1.0) <= TOL:
            raise ValueError(f"priors must be nonnegative and sum to 1, got {priors}")
        dims = members[0][1].dims
        if any(s.dims != dims for _, s in members):
            raise ValueError("all members must share the same subsystem dims")
        if not self.layout.covers(len(dims)):
            raise ValueError("layout does not cover the state's subsystems")
        object.__setattr__(self, "members", members)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.members[0][1].dims

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def priors(self) -> np.ndarray:
        """The member priors, built once per ensemble and read-only, since
        every caller shares the one array."""
        priors = np.array([p for p, _ in self.members])
        priors.flags.writeable = False
        return priors

    @cached_property
    def states(self) -> tuple[StateVector, ...]:
        return tuple(s for _, s in self.members)

    def amplitude_matrix(self) -> np.ndarray:
        """Members as rows, shape (size, dim)."""
        return np.stack([s.amps for _, s in self.members])

    def gram(self) -> np.ndarray:
        m = self.amplitude_matrix()
        return m.conj() @ m.T

    def is_orthonormal(self) -> bool:
        m = self.amplitude_matrix()
        # a real amplitude matrix needs only the real Gram, at a quarter of the work
        g = m.real @ m.real.T if not np.any(m.imag) else m.conj() @ m.T
        return bool(np.max(np.abs(g - np.eye(self.size))) <= TOL)

    def is_complete_basis(self) -> bool:
        return self.size == self.dim and self.is_orthonormal()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = _as_int(self.vertex_count, "vertex_count")
        edges = frozenset(tuple(sorted((_as_int(a, "edges"), _as_int(b, "edges"))))
                          for a, b in self.edges)
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) outside 0..{n - 1}")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(b if a == v else a for a, b in self.edges if v in (a, b)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls(n, frozenset((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset(itertools.combinations(range(n), 2)))

    @classmethod
    def star(cls, n: int) -> "Graph":
        return cls(n, frozenset((0, i) for i in range(1, n)))


def single_qubit_layout(n: int) -> PartyLayout:
    return PartyLayout(tuple((f"A{i + 1}", (i,)) for i in range(n)))


def _equiprobable(layout: PartyLayout, states: Sequence[StateVector]) -> Ensemble:
    p = 1.0 / len(states)
    return Ensemble(layout, tuple((p, s) for s in states))


def bell_basis() -> Ensemble:
    """The four Bell states, equiprobable, one qubit per party."""
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    states = [StateVector((2, 2), row) for row in bell_vectors()]
    return _equiprobable(layout, states)


def ghz_basis(num_qubits: int, party_sizes: Sequence[int]) -> Ensemble:
    """Complete GHZ-type basis of (|k> +- |kbar>)/sqrt(2) on ``num_qubits``.

    Members are enumerated by the leading-bit-zero string k in
    lexicographic order, plus sign first, so member 2a corresponds to
    +|k_a> and member 2a+1 to -|k_a>. Qubits are grouped contiguously
    into parties of the given sizes.
    """
    num_qubits = _as_int(num_qubits, "num_qubits")
    sizes = tuple(_as_int(s, "party_sizes") for s in party_sizes)
    if num_qubits < 2:
        raise ValueError("need at least 2 qubits")
    if len(sizes) < 2 or any(s < 1 for s in sizes) or sum(sizes) != num_qubits:
        raise ValueError(f"party sizes {sizes} inconsistent with {num_qubits} qubits")
    d = 2 ** num_qubits
    states = []
    for k in range(d // 2):
        kbar = (d - 1) ^ k
        for sign in (1.0, -1.0):
            amps = np.zeros(d, dtype=complex)
            amps[k] = 1 / math.sqrt(2)
            amps[kbar] = sign / math.sqrt(2)
            states.append(StateVector((2,) * num_qubits, amps))
    blocks = []
    off = 0
    for i, s in enumerate(sizes):
        blocks.append((f"A{i + 1}", tuple(range(off, off + s))))
        off += s
    return _equiprobable(PartyLayout(tuple(blocks)), states)


def ghz_state(num_parties: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on ``num_parties`` qubits."""
    num_parties = _as_int(num_parties, "num_parties")
    if num_parties < 2:
        raise ValueError("need at least 2 parties")
    d = 2 ** num_parties
    amps = np.zeros(d, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return StateVector((2,) * num_parties, amps)


def lattice_basis(num_pairs: int) -> Ensemble:
    """Products of Bell states over ``num_pairs`` qubit pairs.

    Party A holds the first qubit of every pair (even subsystems), B the
    second (odd subsystems), so every member is maximally entangled of
    rank 2**num_pairs across A|B.
    """
    num_pairs = _as_int(num_pairs, "num_pairs")
    if num_pairs < 1:
        raise ValueError("need at least one pair")
    bells = bell_vectors()
    states = []
    for combo in itertools.product(range(4), repeat=num_pairs):
        amps = np.ones(1, dtype=complex)
        for i in combo:
            amps = np.kron(amps, bells[i])
        states.append(StateVector((2,) * (2 * num_pairs), amps))
    layout = PartyLayout((
        ("A", tuple(range(0, 2 * num_pairs, 2))),
        ("B", tuple(range(1, 2 * num_pairs, 2))),
    ))
    return _equiprobable(layout, states)


def _adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency matrix of ``g``, shape (vertex_count, vertex_count)."""
    adjacency = np.zeros((g.vertex_count, g.vertex_count), dtype=int)
    for a, b in g.edges:
        adjacency[a, b] = adjacency[b, a] = 1
    return adjacency


def graph_state_basis(g: Graph):
    """Graph-state eigenbasis, the conjugate resource, and the stabilizers.

    The fiducial state is |+>^N with a CZ for every edge, i.e. amplitude
    (-1)^(edges inside i) / sqrt(2^N) on |i>; member x applies Z^{x_a} on
    each vertex a and satisfies K_a |psi_x> = (-1)^{x_a} |psi_x> for the
    vertex operator K_a = X_a prod_{b ~ a} Z_b. Each party holds one qubit.
    """
    n = g.vertex_count
    dims = (2,) * n
    d = 2 ** n
    index = np.arange(d)
    bits = index[:, None] >> np.arange(n - 1, -1, -1) & 1  # bits[i, a]: qubit a of |i>
    lit_neighbors = bits @ _adjacency(g)  # [i, a]: neighbors of vertex a that are 1 in |i>
    edges_inside = (lit_neighbors * bits).sum(axis=1) // 2
    base = (1.0 - 2 * (edges_inside % 2)) * complex(1 / math.sqrt(d))
    stabilizers = []
    for a in range(n):
        mat = np.zeros((d, d), dtype=complex)
        mat[index ^ (1 << (n - 1 - a)), index] = 1.0 - 2 * (lit_neighbors[:, a] % 2)
        stabilizers.append(Operator(dims, mat))
    z_signs = 1.0 - 2 * (bits @ bits.T % 2)  # [x, i]: sign of Z^x on |i>
    states = [StateVector(dims, row) for row in z_signs * base]
    ensemble = _equiprobable(single_qubit_layout(n), states)
    resource = StateVector(dims, base).conj()
    return ensemble, resource, stabilizers


def parametric_basis(alpha: float, gamma: float) -> Ensemble:
    """Two-qubit orthonormal family interpolating computational <-> Bell.

    Members: (a|00> + b|11>), (b|00> - a|11>), (c|01> + e|10>),
    (e|01> - c|10>) with b, e fixed by normalization. Requires
    1/sqrt(2) <= alpha, gamma <= 1 so the first coefficient dominates.
    """
    lo = 1 / math.sqrt(2) - TOL
    if not (lo <= alpha <= 1 + TOL) or not (lo <= gamma <= 1 + TOL):
        raise ValueError(f"alpha and gamma must lie in [1/sqrt2, 1], got {alpha}, {gamma}")
    alpha = min(float(alpha), 1.0)
    gamma = min(float(gamma), 1.0)
    beta = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    delta = math.sqrt(max(0.0, 1.0 - gamma * gamma))
    rows = [
        (alpha, 0.0, 0.0, beta),
        (beta, 0.0, 0.0, -alpha),
        (0.0, gamma, delta, 0.0),
        (0.0, delta, -gamma, 0.0),
    ]
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    return _equiprobable(layout, [StateVector((2, 2), r) for r in rows])


def coarsen(layout: PartyLayout, grouping: Mapping[str, str]) -> PartyLayout:
    """Merge parties into superparties; subsystem coverage is unchanged.

    Superparties appear in order of first appearance; each inherits the
    concatenated subsystem lists of its constituents.
    """
    missing = [n for n in layout.names if n not in grouping]
    if missing:
        raise ValueError(f"grouping does not cover parties {missing}")
    order: list[str] = []
    merged: dict[str, list[int]] = {}
    for name, idx in layout.parties:
        superparty = str(grouping[name])
        if superparty not in merged:
            merged[superparty] = []
            order.append(superparty)
        merged[superparty].extend(idx)
    return PartyLayout(tuple((s, tuple(merged[s])) for s in order))
