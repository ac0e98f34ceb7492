"""Matrix correspondence and the one-way orthogonality probe."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import locce

from locce.tensor import StateVector, generalized_bell_vectors, maximally_entangled
from locce.families import Ensemble, PartyLayout, bell_basis, lattice_basis, parametric_basis
from locce.oneway import (
    MatrixRep,
    ResourceSpectrum,
    feasibility_search,
    orthogonality_residual,
    rk_structure_check,
    teleportation_certificate,
    to_matrix_rep,
)
from locce.oneway import _objective, _pack, _pair_products, _steihaug, minimize

S2 = 1 / math.sqrt(2)


def generalized_bell_rep(d: int) -> MatrixRep:
    """M_i = sqrt(d) V_i^T for the generalized Bell vectors V_i."""
    return MatrixRep(d, tuple(np.sqrt(d) * v.reshape(d, d).T for v in generalized_bell_vectors(d)))


def computational_ensemble():
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    states = [StateVector((2, 2), np.eye(4)[i]) for i in range(4)]
    return Ensemble(layout, tuple((0.25, s) for s in states))


# -- matrix correspondence ----------------------------------------------------

def test_matrix_rep_examples():
    rep = to_matrix_rep(bell_basis())
    assert np.allclose(rep.matrices[0], np.eye(2))  # canonical MES -> identity
    comp = to_matrix_rep(computational_ensemble())
    assert np.allclose(comp.matrices[0], math.sqrt(2) * np.diag([1.0, 0.0]))
    par = to_matrix_rep(parametric_basis(0.9, 0.8))
    beta = math.sqrt(1 - 0.81)
    assert np.allclose(par.matrices[0], math.sqrt(2) * np.diag([0.9, beta]))


def test_matrix_rep_round_trip():
    phi = maximally_entangled(2)
    for ens in (bell_basis(), parametric_basis(0.85, 0.9), computational_ensemble()):
        rep = to_matrix_rep(ens)
        for m, st in zip(rep.matrices, ens.states):
            recon = np.kron(np.eye(2), m) @ phi
            assert np.linalg.norm(recon - st.amps) < 1e-9


def test_matrix_rep_takes_each_side_in_layout_order():
    # lattice_basis(2) with A = (2, 0), B = (3, 1): M_i rebuilds member i with
    # its subsystems in the order (2, 0, 3, 1)
    ens = Ensemble(PartyLayout((("A", (2, 0)), ("B", (3, 1)))), lattice_basis(2).members)
    rep = to_matrix_rep(ens)
    phi = maximally_entangled(4)
    for m, st in zip(rep.matrices, ens.states, strict=True):
        in_layout_order = st.amps.reshape(st.dims).transpose(2, 0, 3, 1).reshape(-1)
        assert np.linalg.norm(np.kron(np.eye(4), m) @ phi - in_layout_order) < 1e-12


def test_matrix_rep_trace_orthogonality():
    for ens in (bell_basis(), parametric_basis(0.8, 0.95)):
        rep = to_matrix_rep(ens)
        for i, a in enumerate(rep.matrices):
            for j, b in enumerate(rep.matrices):
                want = 2.0 if i == j else 0.0
                assert abs(np.trace(a.conj().T @ b) - want) < 1e-9


def test_cross_terms_linearly_independent_and_traceless():
    # with a full-rank first member, {M_1^dag M_j} spans the traceless space
    for ens in (bell_basis(), parametric_basis(0.9, 0.8)):
        rep = to_matrix_rep(ens)
        m1 = rep.matrices[0]
        cross = [m1.conj().T @ mj for mj in rep.matrices[1:]]
        for c in cross:
            assert abs(np.trace(c)) < 1e-9
        stack = np.stack([c.reshape(-1) for c in cross])
        assert np.linalg.matrix_rank(stack) == 3


def test_matrix_rep_requires_equal_local_dims():
    layout = PartyLayout((("A", (0,)), ("B", (1, 2))))
    st = StateVector((2, 2, 2), np.eye(8)[0])
    ens = Ensemble(layout, ((1.0, st),))
    with pytest.raises(ValueError):
        to_matrix_rep(ens)


# -- residual -----------------------------------------------------------------

def test_certificate_solves_mes_case():
    rep = to_matrix_rep(bell_basis())
    phis, weights = teleportation_certificate(2)
    res = orthogonality_residual(rep, ResourceSpectrum([1.0, 1.0]), phis, weights)
    assert res < 1e-9


def test_certificate_fails_for_skewed_spectrum():
    rep = to_matrix_rep(bell_basis())
    phis, weights = teleportation_certificate(2)
    res = orthogonality_residual(rep, ResourceSpectrum([1.6, 0.4]), phis, weights)
    assert res > 1e-2


def test_computational_products_solve_any_spectrum():
    # rank-one members void the full-rank premise; products satisfy the system
    rep = to_matrix_rep(computational_ensemble())
    eye = np.eye(2)
    phis = [np.kron(eye[a], eye[b]) for a in range(2) for b in range(2)]
    res = orthogonality_residual(rep, ResourceSpectrum([1.6, 0.4]), phis, [1.0] * 4)
    assert res < 1e-12


def test_residual_single_member_is_completeness_only():
    layout = PartyLayout((("A", (0,)), ("B", (1,))))
    ens = Ensemble(layout, ((1.0, bell_basis().states[0]),))
    rep = to_matrix_rep(ens)
    phi = np.zeros(4)
    phi[0] = 1.0
    res = orthogonality_residual(rep, ResourceSpectrum([1.0, 1.0]), [phi], [1.0])
    # || |0><0| - I ||_F^2 = 3
    assert res == pytest.approx(3.0)


def test_residual_weight_validation():
    rep = to_matrix_rep(bell_basis())
    phis, _ = teleportation_certificate(2)
    with pytest.raises(ValueError):
        orthogonality_residual(rep, ResourceSpectrum([1.0, 1.0]), phis, [1.0, -1.0, 1.0, 1.0])


@pytest.mark.parametrize("index, phi, weight, match", [
    (2, np.zeros(4), 1.0, "state norm 2 "),
    (1, np.array([np.nan, 0, 0, 1]), 1.0, "state norm 1 "),
    (3, np.array([np.inf, 0, 0, 1]), 1.0, "state norm 3 "),
    (0, None, np.nan, "weight 0 "),
    (2, None, np.inf, "weight 2 "),
])
def test_residual_rejects_zero_or_nonfinite_states_and_weights(index, phi, weight, match):
    rep = to_matrix_rep(bell_basis())
    phis, weights = (list(x) for x in teleportation_certificate(2))
    if phi is not None:
        phis[index] = phi
    weights[index] = weight
    with pytest.raises(ValueError, match=match):
        orthogonality_residual(rep, ResourceSpectrum([1.0, 1.0]), phis, weights)


def test_residual_skips_an_outcome_of_weight_zero():
    rep = to_matrix_rep(bell_basis())
    spectrum = ResourceSpectrum([1.6, 0.4])
    phis, weights = teleportation_certificate(2)
    base = orthogonality_residual(rep, spectrum, phis, weights)
    extra = [np.zeros(4), np.array([1.0, 2.0, 0.0, 1j])]
    with np.errstate(all="raise"):
        got = orthogonality_residual(rep, spectrum, [*phis, *extra], [*weights, 0.0, 0.0])
    assert got == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError, match="weight 4 "):
        orthogonality_residual(rep, spectrum, [*phis, *extra], [*weights, -0.5, 0.0])


def test_residual_invariant_under_second_factor_rotation():
    rng = np.random.default_rng(59)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(z)
    rep = to_matrix_rep(bell_basis())
    rotated = MatrixRep(2, tuple(m @ u.conj().T for m in rep.matrices))
    spectrum = ResourceSpectrum([1.2, 0.8])
    phis, weights = teleportation_certificate(2)
    base = orthogonality_residual(rep, spectrum, phis, weights)
    moved = [np.kron(np.eye(2), u) @ p for p in phis]
    assert orthogonality_residual(rotated, spectrum, moved, weights) == pytest.approx(
        base, abs=1e-9)


# -- descent ------------------------------------------------------------------

@pytest.mark.parametrize("lambdas", [
    [math.nan, math.nan], [math.inf, -math.inf], [1.5, math.nan],
])
def test_spectrum_rejects_non_finite(lambdas):
    with pytest.raises(ValueError, match="finite"):
        ResourceSpectrum(lambdas)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_matrix_rep_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="member 1 must be finite"):
        MatrixRep(2, (np.eye(2), np.diag([bad, 1])))


def test_objective_gradient_finite_difference():
    rng = np.random.default_rng(61)
    # (rep, spectrum, outcomes, scale of the random point); the smaller scale
    # keeps the quartic residual, and so the difference quotient's rounding, small
    cases = (
        (to_matrix_rep(bell_basis()), [1.3, 0.7], 5, 1.0),
        (generalized_bell_rep(3), [1.5, 0.9, 0.6], 10, 0.5),
        (MatrixRep(2, to_matrix_rep(bell_basis()).matrices[:2]), [1.3, 0.7], 4, 0.5),
    )
    for rep, lambdas, k, scale in cases:
        spectrum = ResourceSpectrum(lambdas)
        args = (_pair_products(rep, spectrum), spectrum.lambdas, k, rep.d)
        theta = scale * rng.standard_normal((1, 2 * k * rep.d ** 2))
        _, grad = _objective(theta, *args)
        eps = 1e-6
        for i in rng.choice(theta.size, size=12, replace=False):
            up = theta.copy()
            up[0, i] += eps
            down = theta.copy()
            down[0, i] -= eps
            num = (_objective(up, *args)[0] - _objective(down, *args)[0])[0] / (2 * eps)
            assert abs(num - grad[0, i]) < 1e-6


def test_search_finds_mes_solution():
    rep = to_matrix_rep(bell_basis())
    result = feasibility_search(rep, ResourceSpectrum([1.0, 1.0]),
                                outcomes=4, restarts=8, seed=2)
    assert result.best_residual < 1e-6
    # the reported configuration reproduces the residual
    check = orthogonality_residual(rep, ResourceSpectrum([1.0, 1.0]),
                                   result.phis, result.weights)
    assert check == pytest.approx(result.best_residual, abs=1e-9)


def test_search_skewed_spectrum_floor():
    rep = to_matrix_rep(bell_basis())
    result = feasibility_search(rep, ResourceSpectrum([1.6, 0.4]),
                                outcomes=4, restarts=10, seed=2)
    assert result.best_residual > 1e-2


def test_search_deterministic_given_seed():
    rep = to_matrix_rep(bell_basis())
    a = feasibility_search(rep, ResourceSpectrum([1.6, 0.4]), outcomes=4,
                           restarts=3, seed=9)
    b = feasibility_search(rep, ResourceSpectrum([1.6, 0.4]), outcomes=4,
                           restarts=3, seed=9)
    assert a.best_residual == b.best_residual
    assert a.best_restart == b.best_restart
    for pa, pb in zip(a.phis, b.phis):
        assert np.array_equal(pa, pb)


def test_search_validates_outcome_count():
    rep = to_matrix_rep(bell_basis())
    with pytest.raises(ValueError):
        feasibility_search(rep, ResourceSpectrum([1.0, 1.0]), outcomes=3,
                           restarts=1, seed=0)


def test_search_report_fields():
    rep = to_matrix_rep(bell_basis())
    result = feasibility_search(rep, ResourceSpectrum([1.0, 1.0]), outcomes=4,
                                restarts=2, seed=5)
    record = result.to_dict()
    assert record["outcomes"] == 4
    assert record["restarts"] == 2
    assert record["seed"] == 5
    assert record["wall_time_s"] > 0
    assert [r["residual"] for r in record["records"]] == [r.residual for r in result.records]
    assert set(record["records"][0]) == {"residual", "nit", "nfev", "status", "grad_norm"}


def test_search_records_every_restart_and_k8_meets_the_k4_floor():
    # criterion 10's skewed configurations: 50 restarts at seed 0, maxiter 1500
    rep = to_matrix_rep(bell_basis())
    k4, k8 = (feasibility_search(rep, ResourceSpectrum([1.6, 0.4]), outcomes=k,
                                 restarts=50, seed=0) for k in (4, 8))
    for result in (k4, k8):
        assert len(result.records) == 50
        best = result.records[result.best_restart]
        assert best.residual == result.best_residual == min(r.residual for r in result.records)
    assert all(r.nit < 1500 for r in k8.records)  # every restart stops before the cap
    assert all(r.status == 0 for r in k8.records)  # on the gradient tolerance
    assert k4.best_residual <= 0.953780669789
    assert k8.best_residual <= 0.953780669789 + 1e-12
    assert abs(k8.best_residual - k4.best_residual) <= 1e-12
    # the four outcomes the K=8 minimizer does not need are dropped, and the
    # reported states and weights give back its residual
    assert sorted(k8.weights)[:4] == [0.0] * 4 and min(sorted(k8.weights)[4:]) > 0.5
    for phi, weight in zip(k8.phis, k8.weights):
        assert np.all(np.isfinite(phi)) and (weight > 0 or not phi.any())
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        check = orthogonality_residual(rep, ResourceSpectrum([1.6, 0.4]), k8.phis, k8.weights)
    assert check == pytest.approx(k8.best_residual, abs=1e-9)


def test_a_vanishing_outcome_is_dropped():
    # one of five outcomes starts at 1e-12 of the largest weight: it is set to
    # exactly 0, where it imposes no condition, so the search reaches the K=4
    # floor with no 0/0, overflow or warning on the way
    rep = to_matrix_rep(bell_basis())
    spectrum = ResourceSpectrum([1.6, 0.4])
    rng = np.random.default_rng(7)
    ys = (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))) / np.sqrt(8)
    weights = np.linalg.norm(ys, axis=1) ** 2
    ys[4] *= np.sqrt(1e-12 * weights[:4].max() / weights[4])
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize(_pack(ys[None]), _pair_products(rep, spectrum), spectrum.lambdas, 5,
                       rep.d, 1500)
    assert np.all(res.x[0].reshape(2, 5, 4)[:, 4] == 0.0)
    assert np.all(res.x[0].reshape(2, 5, 4)[:, :4].any(axis=(0, 2)))
    assert np.all(np.isfinite(res.x)) and np.isfinite(res.grad_norm[0])
    assert res.statuses[0] == 0 and res.nits[0] > 0
    assert res.fun[0] <= 0.953780669789 + 1e-9


def test_steihaug_steps_stay_inside_and_beat_the_cauchy_point():
    # rows 0-2 convex, 3-5 indefinite; radii from tight to loose. Row 6 crosses
    # the boundary at the first step with a zero residual, so once it has
    # finished its next step divides 0 by 0
    rng = np.random.default_rng(11)
    rows, size = 7, 10
    a = rng.standard_normal((rows - 1, size, size))
    hess = a @ a.swapaxes(1, 2) + 0.1 * np.eye(size)
    hess[3:] -= 8.0 * np.eye(size)
    hess = np.concatenate([hess, np.diag(np.eye(size)[0])[None]])
    grad = np.concatenate([rng.standard_normal((rows - 1, size)), np.eye(size)[:1]])
    gnorm = np.linalg.norm(grad, axis=1)
    radius = np.array([100.0, 0.1, 1.0, 100.0, 0.1, 1.0, 0.1])
    with warnings.catch_warnings():
        # finished rows stay in the arrays: they may neither warn nor touch a live row
        warnings.simplefilter("error")
        steps, on_boundary, step_curvature = _steihaug(grad, hess, gnorm, radius)
        # each step's curvature is s.H s as the whole stack gives it, bit for bit
        assert np.array_equal(step_curvature,
                              np.einsum("ij,ij->i", steps, (hess @ steps[:, :, None])[:, :, 0]))
        for i in range(rows):  # each row's subproblem is solved on its own, bit for bit
            one, hit, _ = _steihaug(grad[i:i + 1], hess[i:i + 1], gnorm[i:i + 1],
                                    radius[i:i + 1])
            assert np.array_equal(one[0], steps[i]) and hit[0] == on_boundary[i]
    norms = np.linalg.norm(steps, axis=1)
    assert np.all(norms <= radius * (1 + 1e-12))
    assert np.array_equal(on_boundary, np.isclose(norms, radius, rtol=1e-12))

    def model(p):
        return np.einsum("ij,ij->i", grad, p) + 0.5 * np.einsum("ri,rij,rj->r", p, hess, p)

    curvature = np.einsum("ri,rij,rj->r", grad, hess, grad)
    tau = np.where(curvature > 0, np.minimum(1.0, gnorm ** 3 / (radius * curvature)), 1.0)
    cauchy = -(tau * radius / gnorm)[:, None] * grad
    assert np.all(model(steps) <= model(cauchy) + 1e-12 * np.abs(model(cauchy)))
    # the loose convex row stops inside, on trust-ncg's residual tolerance
    assert not on_boundary[0]
    residual = np.linalg.norm(hess[0] @ steps[0] + grad[0])
    assert residual < min(0.5, np.sqrt(gnorm[0])) * gnorm[0]


def test_minimize_sums_the_batch_into_plain_ints():
    # a tracer reads int(out.nit), int(out.nfev) and int(out.status) off one call
    rep = to_matrix_rep(bell_basis())
    spectrum = ResourceSpectrum([1.6, 0.4])
    rng = np.random.default_rng(4)
    y0 = (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))) / np.sqrt(8)
    res = minimize(_pack(y0), _pair_products(rep, spectrum), spectrum.lambdas, 4, rep.d, 3)
    assert res.x.shape == (3, 32) and res.fun.shape == res.nits.shape == (3,)
    assert res.nit == res.nits.sum() and type(res.nit) is int
    assert res.nfev == res.nfevs.sum() and type(res.nfev) is int
    assert res.status == res.statuses.max() == 1 and type(res.status) is int  # capped at 3


def test_import_and_search_load_no_scipy():
    code = (
        "import sys\n"
        "import locce\n"
        "from locce.families import bell_basis\n"
        "from locce.oneway import ResourceSpectrum, feasibility_search, to_matrix_rep\n"
        "res = feasibility_search(to_matrix_rep(bell_basis()), ResourceSpectrum([1.0, 1.0]), 4, 1, 0)\n"
        "assert res.best_residual < 1e-6, res.best_residual\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(locce.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- R-matrix structure -------------------------------------------------------

def test_rk_structure_certificate_is_identity_multiple():
    rep = to_matrix_rep(bell_basis())
    phis, _ = teleportation_certificate(2)
    for phi in phis:
        report = rk_structure_check(rep, ResourceSpectrum([1.0, 1.0]), phi)
        assert report.distance < 1e-9
        assert report.is_identity_multiple


def test_rk_structure_mes_state_with_skewed_spectrum():
    rep = to_matrix_rep(bell_basis())
    report = rk_structure_check(rep, ResourceSpectrum([1.6, 0.4]),
                                maximally_entangled(2))
    assert report.distance == pytest.approx(
        np.linalg.norm(np.diag([1.6, 0.4]) - np.eye(2)))
    assert not report.is_identity_multiple


def test_rk_structure_random_states_generically_off():
    rng = np.random.default_rng(67)
    rep = to_matrix_rep(bell_basis())
    spectrum = ResourceSpectrum([1.4, 0.6])
    for _ in range(5):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        report = rk_structure_check(rep, spectrum, z / np.linalg.norm(z))
        assert report.distance > 1e-6


def test_rk_structure_needs_full_rank_first_member():
    rep = to_matrix_rep(computational_ensemble())
    with pytest.raises(ValueError, match="singular"):
        rk_structure_check(rep, ResourceSpectrum([1.0, 1.0]), maximally_entangled(2))


def test_resource_spectrum_validation():
    with pytest.raises(ValueError):
        ResourceSpectrum([1.0, 0.5])  # sums to 1.5, not d=2
    with pytest.raises(ValueError):
        ResourceSpectrum([2.5, -0.5])
    with pytest.raises(ValueError, match="nonempty"):
        ResourceSpectrum([])  # sums to d = 0 vacuously
