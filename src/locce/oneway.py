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
so no d^2 x d^2 operator is built. The evaluators take a stack of
points, one row per restart.

:func:`feasibility_search` probes the residual with seeded multi-start
trust-region Newton descent. :func:`minimize` runs every restart at once
in plain numpy: exact dense Hessians (:func:`_hessian`, from the same
d x d terms), one batched Steihaug conjugate-gradient subproblem per
iteration (:func:`_steihaug`), and finished restarts leave the batch.
An outcome whose weight falls below a fixed share of its restart's
largest is dropped: set to exactly 0, where it imposes no condition. A
nonzero floor is reported as evidence of infeasibility, never as proof.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

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
        if not lam.size:
            raise ValueError("spectrum must be nonempty")
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
    from the identity. Zero iff the condition holds exactly. An outcome
    of weight 0 is skipped: it imposes no condition.
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
    bad = np.flatnonzero(~((weights >= 0) & (weights < np.inf)))  # NaN fails both
    if bad.size:
        raise ValueError(f"weight {bad[0]} must be nonnegative and finite, got {weights[bad[0]]}")
    live = weights > 0
    bad = np.flatnonzero(live & ~((norms > 0) & (norms < np.inf)))
    if bad.size:
        raise ValueError(f"state norm {bad[0]} must be positive and finite, got {norms[bad[0]]}")
    ys[live] *= (np.sqrt(weights[live]) / norms[live])[:, None]
    ys[~live] = 0.0
    return float(_objective(_pack(ys[None]), _pair_products(rep, spectrum), spectrum.lambdas,
                            len(ys), rep.d)[0][0])


def _pack(ys: np.ndarray) -> np.ndarray:
    """(R, K, d^2) complex vectors -> (R, 2 d^2 K) real rows: every real
    part of a restart, then every imaginary part."""
    rows = len(ys)
    return np.concatenate([ys.real.reshape(rows, -1), ys.imag.reshape(rows, -1)], axis=1)


def _unpack(theta: np.ndarray, k: int, n: int) -> np.ndarray:
    half = k * n
    return theta[:, :half].reshape(-1, k, n) + 1j * theta[:, half:].reshape(-1, k, n)


def _terms(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int):
    """The d x d terms of the residual at each row of ``theta``: the vectors
    y_k, the completeness difference sum_k y_k y_k^dag - I, Lambda Y_k, W_k,
    t_k = ||y_k||^2 and the per-outcome violation sum |s|^2, each with a
    leading restart axis. A zero outcome gets t_k = inf, so every
    condition term divided by a power of t_k is exactly 0 there, and
    where t_k > 0 the arithmetic is unchanged."""
    n = d * d
    ys = _unpack(theta, k, n)
    rows = len(ys)
    diff = ys.swapaxes(1, 2) @ ys.conj() - np.eye(n)  # sum_k y_k y_k^dag - I
    ly = lambdas[:, None] * ys.reshape(rows, k, d, d)  # Lambda Y_k
    s = (ys.conj().reshape(rows, k, d, d).swapaxes(2, 3) @ ly).reshape(rows, k, n) @ pairs.T
    w = (s.conj() @ pairs).reshape(rows, k, d, d)  # W_k
    t = np.einsum("rkc,rkc->rk", ys.conj(), ys).real  # ||y_k||^2
    t = np.where(t > 0, t, np.inf)  # a dropped outcome imposes no condition
    s2 = np.einsum("rkm,rkm->rk", s.conj(), s).real  # per-k condition violation
    return ys, diff, ly, w, t, s2


def _objective(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int):
    """Residuals (R,) and gradients (R, 2 d^2 K) over unnormalized vectors
    y_k = sqrt(a_k) phi_k, one row of ``theta`` per restart.

    ``pairs`` holds the rows of :func:`_pair_products`. With Y_k the d x d
    reshape of y_k and G_k = Y_k^dag Lambda Y_k, the condition values are
    s_ij = <y_k|Lambda (x) M_i^dag M_j|y_k> = Tr(M_i^dag M_j G_k^T), and as
    s_ji = conj(s_ij) the derivative of sum |s_ij|^2 along conj(y_k) is
    2 Lambda Y_k W_k^T with W_k = sum_{i != j} conj(s_ij) M_i^dag M_j.
    """
    ys, diff, ly, w, t, s2 = _terms(theta, pairs, lambdas, k, d)
    rows = len(ys)
    value = np.linalg.norm(diff, axis=(1, 2)) ** 2 + np.sum(s2 / t ** 2, axis=1)
    grad = 2.0 * (ys @ diff.swapaxes(1, 2))  # (diff @ y_k) per row; diff Hermitian
    grad += (2.0 * (ly @ w.swapaxes(2, 3))).reshape(rows, k, -1) / t[..., None] ** 2
    grad -= (2.0 * s2 / t ** 3)[..., None] * ys
    return value, 2 * _pack(grad)


def _hessian(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int):
    """The exact dense Hessians of :func:`_objective` in the packed real
    coordinates, (R, 2 d^2 K, 2 d^2 K).

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
    rows = len(ys)
    # every a_m and b_m in one product, scaled by sqrt(2)/t to carry the 2/t^2
    mats = pairs.reshape(p, d, d)
    right = np.concatenate([mats.transpose(2, 0, 1), mats.conj().transpose(1, 0, 2)], axis=1)
    scaled = (np.sqrt(2.0) / t)[..., None, None] * ly
    ab = (scaled.reshape(-1, d) @ right.reshape(d, 2 * p * d)).reshape(rows, k, d, 2 * p, d)
    ab = ab.transpose(0, 1, 3, 2, 4).reshape(rows, k, 2 * p, n)
    a = ab[:, :, :p]
    blocks = a.swapaxes(2, 3) @ np.concatenate([a.conj(), ab[:, :, p:]], axis=3)
    c = (3.0 * s2 / t ** 4)[..., None] * ys
    c -= (4.0 / t ** 3)[..., None] * (ly @ w.swapaxes(2, 3)).reshape(rows, k, n)
    cy = c[..., :, None] * ys.conj()[..., None, :]
    a_kk = blocks[..., :n] + cy + cy.conj().swapaxes(2, 3) + 2.0 * diff[:, None]
    idx = np.arange(d)
    a_kk.reshape(rows, k, d, d, d, d)[:, :, idx, :, idx, :] += (
        lambdas[:, None, None, None, None] * ((2.0 / t ** 2)[..., None, None] * w))
    a_kk[..., np.arange(n), np.arange(n)] -= (2.0 * s2 / t ** 3)[..., None]
    cy = c[..., :, None] * ys[..., None, :]
    b_kk = blocks[..., n:] + cy + cy.swapaxes(2, 3)

    outcome = np.arange(k)
    gram = 2.0 * (ys @ ys.conj().swapaxes(1, 2))
    cross_a = gram[:, :, None, :, None] * np.eye(n)[:, None, :]
    cross_a[:, outcome, :, outcome, :] += a_kk.swapaxes(0, 1)
    cross_b = (2.0 * ys.swapaxes(1, 2))[:, None, :, :, None] * ys[:, :, None, None, :]
    cross_b[:, outcome, :, outcome, :] += b_kk.swapaxes(0, 1)
    cross_a, cross_b = cross_a.reshape(rows, big, big), cross_b.reshape(rows, big, big)
    hess = np.empty((rows, 2 * big, 2 * big))
    np.add(cross_a.real, cross_b.real, out=hess[:, :big, :big])
    np.subtract(cross_b.imag, cross_a.imag, out=hess[:, :big, big:])
    np.add(cross_a.imag, cross_b.imag, out=hess[:, big:, :big])
    np.subtract(cross_a.real, cross_b.real, out=hess[:, big:, big:])
    hess *= 2.0
    return hess


# The trust region's constants are gate parameters: criterion 10 reads its
# floors at them. Stop once the gradient 2-norm is below gtol; start at radius
# 1, never above 1000; take a step when rho > eta.
_TRUST_REGION = {"gtol": 1e-4, "initial_trust_radius": 1.0, "max_trust_radius": 1000.0,
                 "eta": 0.15}
# An outcome below this share of its restart's largest weight is dropped (see
# minimize). One kept small instead keeps its condition term sum |s|^2 / t_k^2,
# which does not shrink with t_k, so the search must turn its direction too.
# Criterion 10's K=8 search (Bell basis, spectrum (1.6, 0.4), 50 restarts,
# seed 0; wall is the median of 5 in-process runs at one BLAS thread on a
# shared 2-vCPU virtual machine):
#
#     rule               iterations (max)   wall     best - K=4 best
#     freeze at 1e-8     4,249 (148)        0.72 s   4.2e-10
#     drop at 1e-8       3,431 (136)        0.56 s   1.2e-14
#     drop at 1e-6       3,028 (98)         0.47 s   -3.3e-16
#     drop at 1e-4       2,699 (83)         0.43 s   -3.9e-15
#     drop at 1e-3       2,461 (76)         0.37 s   6.3e-15
#     drop at 1e-2       2,127 (59)         0.30 s   1.3e-14
#
# Every restart ends at status 0 in every row. A dropped outcome never comes
# back, so a larger share restricts the search more; 1e-3 is the largest share
# checked restart by restart against the freeze (criterion 10 and the
# benchmark's oneway searches at seeds 0-11: no residual rose).
_DROP_WEIGHT = 1e-3


def _dropped(theta: np.ndarray, k: int) -> np.ndarray:
    """The coordinates of every outcome whose weight ||y_k||^2 is below
    ``_DROP_WEIGHT`` of its restart's largest, as a mask shaped like
    ``theta``."""
    rows = len(theta)
    parts = np.square(theta).reshape(rows, 2, k, theta.shape[1] // (2 * k))
    t = parts.sum(axis=(1, 3))
    dropped = t < _DROP_WEIGHT * t.max(axis=1, keepdims=True)
    return np.broadcast_to(dropped[:, None, :, None], parts.shape).reshape(theta.shape)


def _model_hessian(theta: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int,
                   d: int) -> np.ndarray:
    """The Hessians of :func:`_hessian` at ``theta``, with the rows and
    columns of every dropped coordinate (:func:`_dropped`) made those of the
    identity."""
    hess = _hessian(theta, pairs, lambdas, k, d)
    dropped = _dropped(theta, k)
    if dropped.any():
        hess[dropped] = 0.0
        hess.swapaxes(1, 2)[dropped] = 0.0
        row, col = np.nonzero(dropped)
        hess[row, col, col] = 1.0
    return hess


def _boundary_steps(z: np.ndarray, p: np.ndarray, radius2: np.ndarray):
    """Both roots tau_a <= tau_b of ||z + tau p||^2 = radius2, per row, by
    the cancellation-free quadratic formula, as in scipy's trust-ncg."""
    a = np.einsum("ij,ij->i", p, p)
    b = 2.0 * np.einsum("ij,ij->i", z, p)
    c = np.einsum("ij,ij->i", z, z) - radius2
    aux = b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b)
    roots = np.sort(np.stack([-aux / (2.0 * a), -2.0 * c / aux]), axis=0)
    return roots[0], roots[1]


def _steihaug(grad: np.ndarray, hess: np.ndarray, gnorm: np.ndarray, radius: np.ndarray):
    """Steihaug's truncated conjugate gradients on the trust-region model
    g.p + p.H p / 2, ||p|| <= radius, for every row at once (Nocedal and
    Wright, Numerical Optimization, Alg. 7.2; Steihaug, SIAM J. Numer.
    Anal. 20, 626 (1983)), with scipy trust-ncg's stopping tolerance
    min(1/2, sqrt(||g||)) ||g|| on the residual.

    A row finishes on negative curvature (the boundary point along p with
    the lower model value), on a step across the boundary (the boundary
    point along p), on a small residual, or after as many steps as the
    dimension. Returns the steps, whether each lies on the boundary, and
    each step's curvature s.H s. Every row keeps its place in the arrays
    until the loop ends: a finished row's step is written once, as it
    finishes, and its later iterates, which may overflow, are never read.
    """
    rows, size = grad.shape
    steps = np.empty_like(grad)
    on_boundary = np.zeros(rows, dtype=bool)
    live = np.ones(rows, dtype=bool)  # the rows still iterating
    tol2 = np.square(np.minimum(0.5, np.sqrt(gnorm)) * gnorm)
    radius2 = np.square(radius)
    z = np.zeros_like(grad)
    r = grad
    p = -grad
    rr = np.square(gnorm)
    with np.errstate(all="ignore"):
        for _ in range(size):
            hp = (hess @ p[:, :, None])[:, :, 0]
            curvature = np.einsum("ij,ij->i", p, hp)
            alpha = (rr / curvature)[:, None]
            z_next = z + alpha * p
            r_next = r + alpha * hp
            rr_next = np.einsum("ij,ij->i", r_next, r_next)
            negative = live & ~(curvature > 0)
            outside = live & ~negative & (np.einsum("ij,ij->i", z_next, z_next) >= radius2)
            small = live & ~(negative | outside) & (rr_next < tol2)
            if negative.any():
                sel = np.flatnonzero(negative)
                ta, tb = _boundary_steps(z[sel], p[sel], radius2[sel])
                za, zb = z[sel] + ta[:, None] * p[sel], z[sel] + tb[:, None] * p[sel]
                ha, hb = (hess[sel] @ np.stack([za, zb], axis=2)).transpose(2, 0, 1)
                g = grad[sel]
                model_a = np.einsum("ij,ij->i", g, za) + 0.5 * np.einsum("ij,ij->i", za, ha)
                model_b = np.einsum("ij,ij->i", g, zb) + 0.5 * np.einsum("ij,ij->i", zb, hb)
                steps[sel] = np.where((model_a < model_b)[:, None], za, zb)
            if outside.any():
                sel = np.flatnonzero(outside)
                tb = _boundary_steps(z[sel], p[sel], radius2[sel])[1]
                steps[sel] = z[sel] + tb[:, None] * p[sel]
            on_boundary |= negative | outside
            steps[small] = z_next[small]
            live &= ~(negative | outside | small)
            if not live.any():
                break
            p = -r_next + (rr_next / rr)[:, None] * p
            z, r, rr = z_next, r_next, rr_next
        steps[live] = z[live]
    return steps, on_boundary, np.einsum("ij,ij->i", steps, (hess @ steps[:, :, None])[:, :, 0])


@dataclass(frozen=True)
class TrustRegionResult:
    """How :func:`minimize` left each restart, one entry per row of its
    start; ``nit``, ``nfev`` and ``status`` summarize the batch."""

    x: np.ndarray  # (R, 2 d^2 K) final points
    fun: np.ndarray  # residual at x
    grad_norm: np.ndarray  # gradient 2-norm at x
    nits: np.ndarray  # trust-region iterations
    nfevs: np.ndarray  # residual-and-gradient evaluations
    statuses: np.ndarray  # 0 gradient below gtol, 1 iteration cap, 2 no predicted decrease

    @property
    def nit(self) -> int:
        return int(self.nits.sum())

    @property
    def nfev(self) -> int:
        return int(self.nfevs.sum())

    @property
    def status(self) -> int:
        return int(self.statuses.max())


def minimize(theta0: np.ndarray, pairs: np.ndarray, lambdas: np.ndarray, k: int, d: int,
             maxiter: int) -> TrustRegionResult:
    """Trust-region Newton descent of :func:`_objective` from every row of
    ``theta0`` at once, on the exact Hessians of :func:`_hessian`.

    Each restart follows scipy trust-ncg's rules on its own, with the
    constants in ``_TRUST_REGION``: the radius starts at
    ``initial_trust_radius``, shrinks 4x when the actual over predicted
    decrease rho is below 1/4 (or not a number), doubles up to
    ``max_trust_radius`` when rho > 3/4 and the step reached the boundary,
    and the step is taken when rho > ``eta``. A restart stops with status
    0 once its gradient 2-norm is below ``gtol``, 1 after ``maxiter``
    iterations, and 2 when the
    model predicts no decrease (NaN included). Stopped restarts leave the
    batch; the subproblems of the rest are solved together by
    :func:`_steihaug`, on Hessians made afresh each iteration.

    An outcome below ``_DROP_WEIGHT`` of its restart's largest weight, at
    the start or at a trial point, is dropped (:func:`_dropped`) before
    the point is evaluated: its coordinates are set to exactly 0, where its
    condition terms, value and gradient are 0. Its Hessian rows and
    columns are made those of the identity, so no step moves it again.
    """
    gtol, eta = _TRUST_REGION["gtol"], _TRUST_REGION["eta"]
    x = np.array(theta0, dtype=float)
    x[_dropped(x, k)] = 0.0
    rows = len(x)
    args = (pairs, lambdas, k, d)
    fun, grad = _objective(x, *args)
    gnorm = np.linalg.norm(grad, axis=1)
    radius = np.full(rows, _TRUST_REGION["initial_trust_radius"])
    nits = np.zeros(rows, dtype=int)
    nfevs = np.ones(rows, dtype=int)
    statuses = np.zeros(rows, dtype=int)
    live = np.flatnonzero(~(gnorm < gtol))
    while live.size:
        here = x[live]
        g = grad[live]
        steps, on_boundary, curvature = _steihaug(g, _model_hessian(here, *args), gnorm[live],
                                                  radius[live])
        predicted = -(np.einsum("ij,ij->i", g, steps) + 0.5 * curvature)
        stuck = ~(predicted > 0)
        statuses[live[stuck]] = 2
        go = ~stuck
        live, here, steps, on_boundary, predicted = (
            v[go] for v in (live, here, steps, on_boundary, predicted))
        if not live.size:
            break
        trial = here + steps
        trial[_dropped(trial, k)] = 0.0
        trial_fun, trial_grad = _objective(trial, *args)
        nfevs[live] += 1
        rho = (fun[live] - trial_fun) / predicted
        grown = np.where((rho > 0.75) & on_boundary,
                         np.minimum(2.0 * radius[live], _TRUST_REGION["max_trust_radius"]),
                         radius[live])
        radius[live] = np.where(rho >= 0.25, grown, 0.25 * radius[live])
        taken = rho > eta
        moved = live[taken]
        x[moved], fun[moved], grad[moved] = trial[taken], trial_fun[taken], trial_grad[taken]
        gnorm[moved] = np.linalg.norm(grad[moved], axis=1)
        nits[live] += 1
        converged = gnorm[live] < gtol
        capped = ~converged & (nits[live] >= maxiter)
        statuses[live[capped]] = 1
        live = live[~(converged | capped)]
    return TrustRegionResult(x, fun, gnorm, nits, nfevs, statuses)


class RestartRecord(NamedTuple):
    """How one restart of :func:`feasibility_search` ended."""

    residual: float
    nit: int
    nfev: int
    status: int  # 0 gradient below gtol, 1 iteration cap, 2 no predicted decrease
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


def _restart_bytes(d: int, outcomes: int) -> int:
    """What one restart of a search holds at once, to leading order in K:
    while :func:`_hessian` runs, the complex N x N blocks A and B (16 B an
    entry each) and the real 2N x 2N Hessian (8 B an entry), N = d^2 K, so
    64 N^2 B. :func:`minimize` keeps no Hessian between iterations, and the
    per-outcome stacks beside them grow only linearly in K. A search runs
    all its restarts at once, so it needs ``restarts`` times this."""
    return 64 * (d * d * outcomes) ** 2


def feasibility_search(rep: MatrixRep, spectrum: ResourceSpectrum,
                       outcomes: int, restarts: int, seed: int,
                       maxiter: int = 1500) -> FeasibilityResult:
    """Minimize the orthogonality residual by seeded multi-start
    trust-region Newton descent.

    Restart r draws its start from ``default_rng(seed + r)``. All restarts
    then descend together in one :func:`minimize` call, for at most
    ``maxiter`` iterations each, with the constants in ``_TRUST_REGION``:
    exact Hessians, Steihaug's truncated conjugate gradients for the
    steps. Second-order steps matter here: with more outcomes than d^2 the
    landscape is flat along the splitting of an outcome, where first-order
    descent crawls. An outcome that shrinks below ``_DROP_WEIGHT`` of its
    restart's largest weight is dropped, set to exactly 0: an outcome of
    weight 0 imposes no condition, so the search need not drive it there,
    and the condition term's 1/t_k^2 never blows up. A dropped outcome is
    reported with weight 0.0 and a zero state.

    Deterministic for a fixed seed: the best (lowest residual, then lowest
    restart index) configuration is returned, with how every restart ended
    in ``records``. A small best residual is a feasibility certificate up
    to that tolerance; a stubbornly large one is evidence against
    feasibility, nothing stronger.
    """
    n = rep.d ** 2
    k = int(outcomes)
    if k < n:
        raise ValueError(f"need at least d^2 = {n} outcomes for completeness")
    if restarts < 1:
        raise ValueError("need at least one restart")
    pairs = _pair_products(rep, spectrum)
    start = time.perf_counter()
    scale = np.sqrt(n / (2.0 * k * n))
    y0 = np.empty((restarts, k, n), dtype=complex)
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        y0[r] = scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    res = minimize(_pack(y0), pairs, spectrum.lambdas, k, rep.d, maxiter)
    records = tuple(RestartRecord(float(f), int(i), int(e), int(s), float(g)) for f, i, e, s, g
                    in zip(res.fun, res.nits, res.nfevs, res.statuses, res.grad_norm))
    # ties keep the earliest restart, and a NaN residual is never the best
    best = int(np.argmin(np.where(np.isnan(res.fun), np.inf, res.fun)))
    ys = _unpack(res.x[best:best + 1], k, n)[0]
    norms = np.linalg.norm(ys, axis=1)
    phis = np.divide(ys, norms[:, None], out=np.zeros_like(ys), where=norms[:, None] > 0)
    return FeasibilityResult(
        lambdas=tuple(float(x) for x in spectrum.lambdas), outcomes=k,
        restarts=int(restarts), seed=int(seed), best_residual=float(res.fun[best]),
        best_restart=best, phis=tuple(phis),
        weights=tuple(float(x) for x in norms ** 2), wall_time_s=time.perf_counter() - start,
        records=records)


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
