"""One-way discrimination machinery for bipartite d x d ensembles.

States map to matrices through |psi_i> = (I (x) M_i)|Phi> with |Phi>
the canonical maximally entangled state. A resource with squared
Schmidt spectrum Lambda/d (Tr Lambda = d) admits perfect one-way
discrimination of the ensemble only if there are states {phi_k} and
positive weights {a_k} with

    sum_k a_k |phi_k><phi_k| = I_{d^2}
    <phi_k| (Lambda (x) M_i^dag M_j) |phi_k> = 0   for all i != j

The orthogonality residual below is the squared violation of that
system, scored in d x d space: with Y_k the d x d reshape of phi_k,
<phi_k|Lambda (x) A|phi_k> = Tr(A G_k^T) for G_k = Y_k^dag Lambda Y_k,
so no d^2 x d^2 operator is built. :func:`feasibility_search` probes
the residual with seeded multi-start trust-region Newton descent on the
exact dense Hessian (:func:`_hessian`, from the same d x d terms). A
nonzero floor is reported as evidence of infeasibility, never as proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from .tensor import TOL, StateVector, _bipartition_matrix, generalized_bell_vectors
from .families import Ensemble

__all__ = [
    "MatrixRep",
    "ResourceSpectrum",
    "to_matrix_rep",
    "orthogonality_residual",
    "RestartRecord",
    "FeasibilityResult",
    "feasibility_search",
    "RkReport",
    "rk_structure_check",
    "teleportation_certificate",
]


@dataclass(frozen=True)
class MatrixRep:
    """The d x d matrices identifying each member of a bipartite ensemble."""

    d: int
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        for i, m in enumerate(mats):
            if m.shape != (self.d, self.d):
                raise ValueError(f"matrix shape {m.shape} != ({self.d},{self.d})")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"matrix of member {i} must be finite, got {m}")
        object.__setattr__(self, "matrices", mats)

    @property
    def size(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class ResourceSpectrum:
    """Diagonal Lambda with Tr Lambda = d; Lambda/d is the squared
    Schmidt spectrum of the candidate resource."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).reshape(-1)
        if not np.all(np.isfinite(lam)):
            raise ValueError(f"spectrum must be finite, got {lam}")
        if np.any(lam < -TOL):
            raise ValueError(f"spectrum must be nonnegative, got {lam}")
        if abs(lam.sum() - lam.size) > TOL:
            raise ValueError(f"spectrum must sum to d = {lam.size}, got {lam.sum()}")
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)

    @property
    def d(self) -> int:
        return self.lambdas.size

    def matrix(self) -> np.ndarray:
        return np.diag(self.lambdas).astype(complex)


def to_matrix_rep(ens: Ensemble) -> MatrixRep:
    """M_i = sqrt(d) * (amplitude matrix of psi_i) transposed.

    The transpose makes (I (x) M_i)|Phi> reproduce each member exactly;
    for an orthonormal basis Tr(M_i^dag M_j) = d * delta_ij.
    """
    if len(ens.layout.parties) != 2:
        raise ValueError("matrix representation needs a bipartite layout")
    (_, idx_a), (_, idx_b) = ens.layout.parties
    mats = _bipartition_matrix(ens.dims, ens.amplitude_matrix(), idx_a, idx_b)
    da, db = mats.shape[1:]
    if da != db:
        raise ValueError(f"local dimensions differ: {da} vs {db}")
    return MatrixRep(da, tuple(np.sqrt(da) * m.T for m in mats))


def _pair_products(rep: MatrixRep, spectrum: ResourceSpectrum) -> np.ndarray:
    """The flattened M_i^dag M_j over ordered pairs i != j, one per row."""
    if spectrum.d != rep.d:
        raise ValueError(f"spectrum dimension {spectrum.d} != rep dimension {rep.d}")
    rows = [(mi.conj().T @ mj).reshape(-1) for i, mi in enumerate(rep.matrices)
            for j, mj in enumerate(rep.matrices) if i != j]
    return np.array(rows, dtype=complex).reshape(len(rows), rep.d ** 2)


def orthogonality_residual(rep: MatrixRep, spectrum: ResourceSpectrum,
                           phis: Sequence[np.ndarray],
                           weights: Sequence[float]) -> float:
    """Squared violation of the one-way necessary condition.

    sum_k sum_{i != j} |<phi_k|(Lambda (x) M_i^dag M_j)|phi_k>|^2
    plus the squared Frobenius distance of sum_k a_k |phi_k><phi_k|
    from the identity. Zero iff the condition holds exactly.
    """
    n = rep.d ** 2
    ys = [np.asarray(p.amps if isinstance(p, StateVector) else p, dtype=complex).reshape(-1)
          for p in phis]
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if len(ys) != weights.size or any(y.size != n for y in ys):
        raise ValueError(f"need one weight and d^2 = {n} amplitudes per state")
    ys = np.array(ys).reshape(-1, n)
    with np.errstate(invalid="ignore"):  # an infinite amplitude gives a NaN norm
        norms = np.linalg.norm(ys, axis=1)
    for what, values in (("weight", weights), ("state norm", norms)):
        bad = np.flatnonzero(~((values > 0) & (values < np.inf)))  # NaN fails both
        if bad.size:
            raise ValueError(f"{what} {bad[0]} must be positive and finite, got {values[bad[0]]}")
    ys *= (np.sqrt(weights) / norms)[:, None]
    return _objective(_pack(ys), _pair_products(rep, spectrum), spectrum.lambdas,
                      len(ys), rep.d)[0]


def _pack(ys: np.ndarray) -> np.ndarray:
    return np.concatenate([ys.real.reshape(-1), ys.imag.reshape(-1)])


def _unpack(theta: np.ndarray, k: int, n: int) -> np.ndarray:
    half = k * n
    return theta[:half].reshape(k, n) + 1j * theta[half:].reshape(k, n)


def _terms(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int):
    """The d x d terms of the residual at ``theta``: the vectors y_k, the
    completeness difference sum_k y_k y_k^dag - I, Lambda Y_k, W_k,
    t_k = ||y_k||^2 and the per-outcome violation sum |s|^2."""
    n = d * d
    ys = _unpack(theta, k, n)
    diff = ys.T @ ys.conj() - np.eye(n)  # sum_k y_k y_k^dag - I
    ly = lambdas[:, None] * ys.reshape(k, d, d)  # Lambda Y_k
    s = (ys.conj().reshape(k, d, d).swapaxes(1, 2) @ ly).reshape(k, n) @ pairs.T
    w = (s.conj() @ pairs).reshape(k, d, d)  # W_k
    t = np.einsum("kc,kc->k", ys.conj(), ys).real  # ||y_k||^2
    s2 = np.einsum("km,km->k", s.conj(), s).real  # per-k condition violation
    return ys, diff, ly, w, t, s2


def _objective(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int):
    """Residual and gradient over unnormalized vectors y_k = sqrt(a_k) phi_k.

    ``pairs`` holds the rows of :func:`_pair_products`. With Y_k the d x d
    reshape of y_k and G_k = Y_k^dag Lambda Y_k, the condition values are
    s_ij = <y_k|Lambda (x) M_i^dag M_j|y_k> = Tr(M_i^dag M_j G_k^T), and as
    s_ji = conj(s_ij) the derivative of sum |s_ij|^2 along conj(y_k) is
    2 Lambda Y_k W_k^T with W_k = sum_{i != j} conj(s_ij) M_i^dag M_j.
    """
    n = d * d
    ys, diff, ly, w, t, s2 = _terms(theta, pairs, lambdas, k, d)
    value = float(np.linalg.norm(diff) ** 2 + np.sum(s2 / t ** 2))
    grad = 2.0 * (ys @ diff.T)  # (diff @ y_k) per row; diff Hermitian
    grad += (2.0 * (ly @ w.swapaxes(1, 2))).reshape(k, n) / t[:, None] ** 2
    grad -= (2.0 * s2 / t ** 3)[:, None] * ys
    return value, np.concatenate([2 * grad.real.reshape(-1), 2 * grad.imag.reshape(-1)])


def _hessian(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int):
    """The exact dense Hessian of :func:`_objective` in the packed real
    coordinates, (2 d^2 K) x (2 d^2 K).

    The complex gradient g = df/d conj(y) moves as dg = A dy + B conj(dy)
    with A Hermitian and B symmetric, so H = 2 [[Re(A + B), Im(B - A)],
    [Im(A + B), Re(A - B)]]. Completeness couples outcomes only through
    the Gram matrix, A_kj = 2 (y_j^dag y_k) I, and B_kj = 2 y_j y_k^T. The
    condition term sits in the diagonal blocks. With P_m = M_i^dag M_j,
    a_m = (Lambda (x) P_m) y_k, b_m = (Lambda (x) P_m^dag) y_k (the d x d
    products Lambda Y_k P_m^T and Lambda Y_k conj(P_m)), u = sum |s|^2,
    t = ||y_k||^2 and c = 3u/t^4 y_k - 4/t^3 (Lambda (x) W_k) y_k:

        A_kk += 2/t^2 (sum_m a_m a_m^dag + Lambda (x) W_k) + 2 diff
                + c y_k^dag + y_k c^dag - 2u/t^3 I
        B_kk += 2/t^2 sum_m a_m b_m^T + c y_k^T + y_k c^T
    """
    n, p = d * d, len(pairs)
    big = k * n
    ys, diff, ly, w, t, s2 = _terms(theta, pairs, lambdas, k, d)
    # every a_m and b_m in one product, scaled by sqrt(2)/t to carry the 2/t^2
    mats = pairs.reshape(p, d, d)
    right = np.concatenate([mats.transpose(2, 0, 1), mats.conj().transpose(1, 0, 2)], axis=1)
    scaled = (np.sqrt(2.0) / t)[:, None, None] * ly
    ab = (scaled.reshape(k * d, d) @ right.reshape(d, 2 * p * d)).reshape(k, d, 2 * p, d)
    ab = ab.transpose(0, 2, 1, 3).reshape(k, 2 * p, n)
    a = ab[:, :p]
    blocks = a.swapaxes(1, 2) @ np.concatenate([a.conj(), ab[:, p:]], axis=2)
    c = (3.0 * s2 / t ** 4)[:, None] * ys
    c -= (4.0 / t ** 3)[:, None] * (ly @ w.swapaxes(1, 2)).reshape(k, n)
    cy = c[:, :, None] * ys.conj()[:, None, :]
    a_kk = blocks[:, :, :n] + cy + cy.conj().swapaxes(1, 2) + 2.0 * diff
    idx = np.arange(d)
    a_kk.reshape(k, d, d, d, d)[:, idx, :, idx, :] += (
        lambdas[:, None, None, None] * ((2.0 / t ** 2)[:, None, None] * w))
    a_kk[:, np.arange(n), np.arange(n)] -= (2.0 * s2 / t ** 3)[:, None]
    cy = c[:, :, None] * ys[:, None, :]
    b_kk = blocks[:, :, n:] + cy + cy.swapaxes(1, 2)

    outcome = np.arange(k)
    cross_a = np.kron(2.0 * (ys @ ys.conj().T), np.eye(n)).reshape(k, n, k, n)
    cross_a[outcome, :, outcome, :] += a_kk
    cross_b = (2.0 * ys.T)[None, :, :, None] * ys[:, None, None, :]
    cross_b[outcome, :, outcome, :] += b_kk
    cross_a, cross_b = cross_a.reshape(big, big), cross_b.reshape(big, big)
    hess = np.empty((2 * big, 2 * big))
    np.add(cross_a.real, cross_b.real, out=hess[:big, :big])
    np.subtract(cross_b.imag, cross_a.imag, out=hess[:big, big:])
    np.add(cross_a.imag, cross_b.imag, out=hess[big:, :big])
    np.subtract(cross_a.real, cross_b.real, out=hess[big:, big:])
    hess *= 2.0
    return hess


class RestartRecord(NamedTuple):
    """How one restart of :func:`feasibility_search` ended."""

    residual: float
    nit: int
    nfev: int
    status: int  # 0 gradient below gtol, 1 iteration cap, 2 no predicted decrease, 3 linalg error
    grad_norm: float


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a multi-start residual minimization."""

    lambdas: tuple[float, ...]
    outcomes: int
    restarts: int
    seed: int
    best_residual: float
    best_restart: int
    phis: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    wall_time_s: float
    records: tuple[RestartRecord, ...]  # one per restart, in restart order

    def to_dict(self) -> dict:
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("phis", "weights")}
        return {**record, "lambdas": list(self.lambdas),
                "records": [r._asdict() for r in self.records]}


# The trust-region options are gate parameters: criterion 10 reads its floors
# at them. They are scipy's defaults, spelled out so that the search does not
# move with scipy: stop once the gradient 2-norm is below gtol; inexact
# Krylov subproblems.
_TRUST_REGION = {"gtol": 1e-4, "initial_trust_radius": 1.0, "max_trust_radius": 1000.0,
                 "eta": 0.15, "inexact": True}


def _restart_bytes(d: int, outcomes: int) -> int:
    """The arrays :func:`_hessian` holds at once, to leading order in K: the
    complex N x N blocks A and B (16 B an entry each) and the real 2N x 2N
    Hessian (8 B an entry), N = d^2 K, so 64 N^2 B. The per-outcome stacks
    beside them grow only linearly in K."""
    return 64 * (d * d * outcomes) ** 2


def feasibility_search(rep: MatrixRep, spectrum: ResourceSpectrum,
                       outcomes: int, restarts: int, seed: int,
                       maxiter: int = 1500) -> FeasibilityResult:
    """Minimize the orthogonality residual by seeded multi-start
    trust-region Newton descent.

    Each restart runs scipy's ``trust-krylov`` on the value and gradient
    of :func:`_objective` and the exact dense Hessian of :func:`_hessian`,
    for at most ``maxiter`` outer iterations, with the options in
    ``_TRUST_REGION``. Exact second-order steps matter here: with more
    outcomes than d^2 the landscape is flat along the splitting of an
    outcome, where first-order descent crawls.

    Deterministic for a fixed seed: restart r draws its start from
    ``default_rng(seed + r)`` and the best (lowest residual, then lowest
    restart index) configuration is returned, with how every restart
    ended in ``records``. A small best residual is a feasibility
    certificate up to that tolerance; a stubbornly large one is evidence
    against feasibility, nothing stronger.
    """
    n = rep.d ** 2
    k = int(outcomes)
    if k < n:
        raise ValueError(f"need at least d^2 = {n} outcomes for completeness")
    if restarts < 1:
        raise ValueError("need at least one restart")
    pairs = _pair_products(rep, spectrum)
    start = time.perf_counter()
    best = None
    records = []
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        scale = np.sqrt(n / (2.0 * k * n))
        y0 = scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        res = minimize(
            _objective, _pack(y0), args=(pairs, spectrum.lambdas, k, rep.d),
            method="trust-krylov", jac=True, hess=_hessian,
            options={"maxiter": maxiter, **_TRUST_REGION},
        )
        records.append(RestartRecord(float(res.fun), int(res.nit), int(res.nfev),
                                     int(res.status), float(np.linalg.norm(res.jac))))
        if best is None or res.fun < best[0]:  # ties keep the earliest restart
            best = (float(res.fun), r, res.x)
    value, restart_idx, theta = best
    ys = _unpack(theta, k, n)
    norms = np.linalg.norm(ys, axis=1)
    return FeasibilityResult(
        lambdas=tuple(float(x) for x in spectrum.lambdas), outcomes=k,
        restarts=int(restarts), seed=int(seed), best_residual=value,
        best_restart=restart_idx, phis=tuple(ys / norms[:, None]),
        weights=tuple(float(x) for x in norms ** 2), wall_time_s=time.perf_counter() - start,
        records=tuple(records))


@dataclass(frozen=True)
class RkReport:
    distance: float
    scale: float
    is_identity_multiple: bool


def rk_structure_check(rep: MatrixRep, spectrum: ResourceSpectrum, phi) -> RkReport:
    """How far R Lambda R^dag sits from a multiple of the identity,
    for phi = (I (x) R)|Phi>.

    Distance zero is exactly the condition that phi annihilates every
    cross term against the first (full-rank) member.
    """
    d = rep.d
    if np.linalg.svd(rep.matrices[0], compute_uv=False)[-1] <= TOL:
        raise ValueError("first member's matrix is singular; reorder a full-rank member first")
    amps = np.asarray(phi.amps if isinstance(phi, StateVector) else phi,
                      dtype=complex).reshape(-1)
    if amps.size != d * d:
        raise ValueError(f"state length {amps.size} != d^2 = {d * d}")
    r = np.sqrt(d) * amps.reshape(d, d).T
    b = r @ spectrum.matrix() @ r.conj().T
    scale = float(np.real(np.trace(b)) / d)
    distance = float(np.linalg.norm(b - scale * np.eye(d)))
    return RkReport(distance, scale, distance <= 1e-9)


def teleportation_certificate(d: int):
    """The explicit solution at Lambda = I: the generalized Bell states
    with unit weights. Witnesses feasibility for any full basis."""
    return tuple(generalized_bell_vectors(d)), (1.0,) * (d * d)
