"""Discrimination fidelity functionals and the bounds that cage them.

The average fidelity of a measurement M = {M_a} with guesses a -> phi_a
against an ensemble {p_i, psi_i} is

    F = sum_{i,a} p_i <psi_i|M_a|psi_i> |<psi_i|phi_a>|^2

The optimal guess for a fixed POVM takes, per outcome, the principal
eigenvector of rho_a = sum_i p_i <psi_i|M_a|psi_i> |psi_i><psi_i|, and
scores sum_a lambda_max(rho_a).

A :class:`Povm` holds each element as a thin factor, M_a = C_a^dagger C_a
with C_a of shape (rank, d), so the weights <psi_i|M_a|psi_i> =
||C_a psi_i||^2 of all outcomes come from one product of the stacked
factor rows with the members. The flattened protocols of
:func:`locce.protocols.flatten_to_povm` arrive as factors; dense elements
are factored once when a POVM is built from them, and built again only
on request. Completeness is checked on the stored factors, so a POVM
holds what it was checked on.

The local-protocol optimum itself is never computed here: it is only
bracketed between protocol-achievable values (see :mod:`locce.zoo`) and
the upper bounds in this module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .tensor import (
    TOL,
    StateVector,
    _as_dims,
    _as_int,
    _bipartition_matrix,
    _schmidt_values,
    entanglement_entropy,
    principal_eigenvector,
)
from .families import Ensemble, PartyLayout

__all__ = [
    "Povm",
    "GuessStrategy",
    "computational_povm",
    "average_fidelity",
    "optimal_guess",
    "global_optimum_orthonormal",
    "mes_bound",
    "separable_bound",
    "EntropyBoundRow",
    "EntropyBoundReport",
    "entropy_bound_check",
    "mixed_strategy_fidelity",
    "vidal_conversion_probability",
]


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to the identity on ``dims``.

    Every element is held as a thin factor C_a of shape (r_a, d) with
    E_a = C_a^dagger C_a, so positivity holds by construction. Built from
    dense elements, ``Povm(dims, elements)`` checks each one for shape,
    hermiticity and positivity (smallest eigenvalue at least -TOL), then
    factors each once; :meth:`from_factors` takes the factors as given.
    Either way completeness is checked once, on the factors stored, by
    one Gram product of all factor rows. ``elements[a]`` builds the
    dense E_a on request, and ``len(elements)`` builds nothing.
    """

    dims: tuple[int, ...]
    elements: Sequence[np.ndarray]

    def __post_init__(self):
        dims = _as_dims(self.dims)
        d = math.prod(dims)
        elements = self.elements
        if not isinstance(elements, _Elements):
            elements = _Elements(tuple(_factor(k, np.asarray(e, dtype=complex), d)
                                       for k, e in enumerate(elements)), d)
        if not np.max(np.abs(elements.rows.conj().T @ elements.rows - np.eye(d))) <= TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_factors(cls, dims: Sequence[int], factors: Sequence[np.ndarray]) -> "Povm":
        """The POVM with elements C_a^dagger C_a, one per factor C_a of
        shape (r_a, prod(dims))."""
        dims = _as_dims(dims)
        return cls(dims, _Elements(factors, math.prod(dims)))

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.elements.factor(a) for a in range(len(self.elements)))

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


class _Elements(Sequence):
    """Dense POVM elements E_a = C_a^dagger C_a, each built on request
    from its factor C_a. Only the factors are stored, stacked as ``rows``
    in outcome order, with outcome a owning rows ``bounds[a]:bounds[a+1]``."""

    def __init__(self, factors: Sequence[np.ndarray], d: int):
        factors = tuple(np.asarray(c, dtype=complex) for c in factors)
        for k, c in enumerate(factors):
            if c.ndim != 2 or c.shape[1] != d:
                raise ValueError(f"factor {k} has shape {c.shape}, expected (rank, {d})")
        self.rows = np.concatenate(factors) if factors else np.zeros((0, d), dtype=complex)
        self.bounds = np.cumsum([0] + [len(c) for c in factors])

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, a: int) -> np.ndarray:
        c = self.factor(a)
        return c.conj().T @ c

    def factor(self, a: int) -> np.ndarray:
        a = range(len(self))[a]
        return self.rows[self.bounds[a]:self.bounds[a + 1]]

    def __repr__(self) -> str:
        return f"<{len(self)} POVM elements from {len(self.rows)} factor rows>"


def _factor(k: int, e: np.ndarray, d: int) -> np.ndarray:
    """Thin factor of the dense element ``e`` (number ``k``), after checking
    its shape, hermiticity and positivity."""
    if e.shape != (d, d):
        raise ValueError(f"element {k} has shape {e.shape}, expected ({d},{d})")
    if not np.max(np.abs(e - e.conj().T)) <= TOL:
        raise ValueError(f"element {k} is not Hermitian")
    vals, vecs = np.linalg.eigh(e)
    if vals[0] < -TOL:
        raise ValueError(f"element {k} is not positive semidefinite")
    keep = vals > 1e-13 * vals[-1]  # eigh's rounding noise sits near 1e-16 of the largest
    return np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T


@dataclass(frozen=True)
class GuessStrategy:
    """One normalized guess state per measurement outcome."""

    guesses: tuple[StateVector, ...]

    def __getitem__(self, outcome: int) -> StateVector:
        return self.guesses[outcome]

    def __len__(self) -> int:
        return len(self.guesses)


def computational_povm(dims: Sequence[int]) -> Povm:
    """Rank-1 projectors onto the computational product basis."""
    dims = tuple(dims)
    return Povm.from_factors(dims, np.eye(math.prod(dims), dtype=complex)[:, None])


def _outcome_weights(ens: Ensemble, povm: Povm) -> np.ndarray:
    """w[i, a] = <psi_i|E_a|psi_i> = ||C_a psi_i||^2, every outcome in one product."""
    if povm.dims != ens.dims:
        raise ValueError(f"POVM dims {povm.dims} != ensemble dims {ens.dims}")
    elements = povm.elements
    amps = elements.rows @ ens.amplitude_matrix().T  # row j of C_a against every psi_i
    per_row = amps.real ** 2 + amps.imag ** 2
    ranks = np.diff(elements.bounds)
    w = np.zeros((povm.n_outcomes, ens.size))
    w[ranks > 0] = np.add.reduceat(per_row, elements.bounds[:-1][ranks > 0], axis=0)
    return w.T


def average_fidelity(ens: Ensemble, povm: Povm, guess: GuessStrategy) -> float:
    if len(guess) != povm.n_outcomes:
        raise ValueError("guess strategy must cover every POVM outcome")
    w = _outcome_weights(ens, povm)
    if any(g.dims != ens.dims for g in guess.guesses):
        raise ValueError("guess dims do not match ensemble dims")
    phis = np.array([g.amps for g in guess.guesses])
    overlap = np.abs(ens.amplitude_matrix().conj() @ phis.T) ** 2
    return float(np.einsum("i,ia,ia->", ens.priors, w, overlap))


def optimal_guess(ens: Ensemble, povm: Povm):
    """Best guess per outcome and the fidelity it achieves.

    Degenerate outcome operators resolve through the deterministic
    eigenvector tie-break of :func:`locce.tensor.principal_eigenvector`.
    """
    states = ens.amplitude_matrix()
    w = _outcome_weights(ens, povm)
    weighted = ens.priors[:, None] * w
    guesses = []
    total = 0.0
    for a in range(povm.n_outcomes):
        rho = np.einsum("i,id,ie->de", weighted[:, a], states, states.conj())
        val, vec = principal_eigenvector(rho)
        total += val
        guesses.append(StateVector.normalized(ens.dims, vec))
    return GuessStrategy(tuple(guesses)), float(total)


def global_optimum_orthonormal(ens: Ensemble) -> float:
    """Unrestricted-measurement optimum for mutually orthogonal members."""
    if not ens.is_orthonormal():
        raise ValueError("ensemble members are not mutually orthogonal")
    return 1.0


def mes_bound(k: int, d: int) -> float:
    """d/k, the closed form of :func:`separable_bound` for k equiprobable
    maximally entangled d x d members."""
    if k < 1 or d < 2:
        raise ValueError("need k >= 1 and d >= 2")
    return d / k


def separable_bound(ens: Ensemble) -> float:
    """Upper bound on the fidelity any separable, hence any LOCC,
    measurement reaches on ``ens``: min(1, D max_i p_i Lambda_i^2).

    For a separable element E and a pure psi, Tr(E psi) <= Lambda^2(psi) Tr E,
    with Lambda^2(psi) the largest overlap of psi with a product state
    (Hayashi, Markham, Murao, Owari and Virmani, PRL 96, 040501 (2006)).
    Orthonormal members keep sum_i |<psi_i|phi>|^2 <= 1 for every guess
    phi, so summing over outcomes caps the fidelity at D max_i p_i
    Lambda_i^2, with D the joint dimension. Lambda_i^2 is taken as the
    smallest top squared Schmidt coefficient of member i over the party
    bipartitions; coarsen the layout to bound across one cut only.
    """
    if not ens.is_orthonormal():
        raise ValueError("separable bound requires orthonormal members")
    amps = ens.amplitude_matrix()
    overlap = np.ones(ens.size)
    for names_a, names_b in ens.layout.bipartitions():
        mats = _bipartition_matrix(ens.dims, amps, ens.layout.subsystems_of(names_a),
                                   ens.layout.subsystems_of(names_b))
        overlap = np.minimum(overlap, np.linalg.svd(mats, compute_uv=False)[:, 0] ** 2)
    return float(min(1.0, ens.dim * np.max(ens.priors * overlap)))


@dataclass(frozen=True)
class EntropyBoundRow:
    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    mean_member_entropy: float
    resource_entropy: float
    satisfied: bool


@dataclass(frozen=True)
class EntropyBoundReport:
    """Per-bipartition entropy comparison of a resource against an ensemble.

    A resource enabling perfect local discrimination of a complete basis
    must carry at least the mean member entanglement across every party
    bipartition; for incomplete ensembles the requirement is vacuous and
    the report passes as not applicable. ``n_partite_ok`` records the
    companion predicate: when every bipartition has positive mean member
    entanglement, the resource must itself be entangled everywhere.
    """

    rows: tuple[EntropyBoundRow, ...]
    applicable: bool
    passed: bool
    all_mean_positive: bool
    resource_fully_entangled: bool
    n_partite_ok: bool


def entropy_bound_check(resource: StateVector, resource_layout: PartyLayout,
                        ens: Ensemble) -> EntropyBoundReport:
    res_names = set(resource_layout.names)
    ens_names = set(ens.layout.names)
    if not res_names <= ens_names:
        raise ValueError(
            f"resource parties {sorted(res_names)} not a subset of ensemble parties "
            f"{sorted(ens_names)}"
        )
    if not resource_layout.covers(resource.n_subsystems):
        raise ValueError("resource layout does not cover the resource subsystems")
    rows = []
    for names_a, names_b in ens.layout.bipartitions():
        idx_a = ens.layout.subsystems_of(names_a)
        idx_b = ens.layout.subsystems_of(names_b)
        mean_e = float(sum(
            p * entanglement_entropy(st, (idx_a, idx_b)) for p, st in ens.members
        ))
        res_a = [n for n in names_a if n in res_names]
        res_b = [n for n in names_b if n in res_names]
        if res_a and res_b:
            e_res = entanglement_entropy(
                resource,
                (resource_layout.subsystems_of(res_a), resource_layout.subsystems_of(res_b)),
            )
        else:
            e_res = 0.0
        rows.append(EntropyBoundRow(
            tuple(names_a), tuple(names_b), mean_e, e_res,
            e_res >= mean_e - TOL,
        ))
    applicable = ens.is_complete_basis()
    passed = all(r.satisfied for r in rows) if applicable else True
    all_mean_positive = all(r.mean_member_entropy > TOL for r in rows)
    fully_entangled = all(r.resource_entropy > TOL for r in rows)
    n_partite_ok = fully_entangled if (applicable and all_mean_positive) else True
    return EntropyBoundReport(
        tuple(rows), applicable, passed, all_mean_positive, fully_entangled, n_partite_ok,
    )


def mixed_strategy_fidelity(p: float, f_opt: float, f_local_fallback: float) -> float:
    """Fidelity of branching with probability p to an optimal strategy."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
    for f in (f_opt, f_local_fallback):
        if not (0.0 <= f <= 1.0 + TOL):
            raise ValueError(f"fidelity out of range: {f}")
    return p * f_opt + (1.0 - p) * f_local_fallback


def vidal_conversion_probability(psi: StateVector, bipartition, target_rank: int) -> float:
    """Maximal local probability of reaching the rank-r maximally
    entangled state from ``psi`` across the bipartition.

    With descending squared Schmidt coefficients lam_1..lam_n this is
    min over 1 <= l <= r of r/(r-l+1) * sum_{i>=l} lam_i; it vanishes
    when the Schmidt rank falls short of the target.
    """
    r = _as_int(target_rank, "target_rank")
    if r < 2:
        raise ValueError("target rank must be >= 2")
    s = _schmidt_values(psi, bipartition)
    lam = s[s > TOL] ** 2  # the Schmidt rank is lam.size
    if lam.size < r:
        return 0.0
    best = 1.0
    for l in range(1, r + 1):
        tail = float(np.sum(lam[l - 1:]))
        best = min(best, r / (r - l + 1) * tail)
    return float(min(max(best, 0.0), 1.0))
