"""Fidelity functionals, optimal guessing, and the bound arsenal."""

import math

import numpy as np
import pytest

from locce.tensor import TOL, StateVector, maximally_entangled
from locce.families import (
    Ensemble,
    PartyLayout,
    bell_basis,
    coarsen,
    ghz_basis,
    ghz_state,
    lattice_basis,
    parametric_basis,
    single_qubit_layout,
)
from locce.fidelity import (
    GuessStrategy,
    Povm,
    average_fidelity,
    computational_povm,
    entropy_bound_check,
    global_optimum_orthonormal,
    mes_bound,
    mixed_strategy_fidelity,
    optimal_guess,
    separable_bound,
    vidal_conversion_probability,
)

S2 = 1 / math.sqrt(2)


def triple_loop_fidelity(ens, povm, guess):
    """Literal sum over members and outcomes (independent oracle)."""
    total = 0.0
    for (p, st) in ens.members:
        for a, element in enumerate(povm.elements):
            w = np.real(np.vdot(st.amps, element @ st.amps))
            total += p * w * abs(np.vdot(st.amps, guess[a].amps)) ** 2
    return total


def random_povm(dim, outcomes, rng):
    raw = []
    for _ in range(outcomes):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(x @ x.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    return Povm((dim,), tuple(inv_sqrt @ a @ inv_sqrt for a in raw))


def random_guesses(dims, outcomes, rng):
    out = []
    dim = int(np.prod(dims))
    for _ in range(outcomes):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(StateVector.normalized(dims, z))
    return GuessStrategy(tuple(out))


# -- average fidelity ---------------------------------------------------------

def test_average_fidelity_single_member_trivial_povm():
    st = bell_basis().states[0]
    ens = Ensemble(bell_basis().layout, ((1.0, st),))
    povm = Povm((2, 2), (np.eye(4, dtype=complex),))
    assert average_fidelity(ens, povm, GuessStrategy((st,))) == pytest.approx(1.0)


def test_average_fidelity_ghz_computational_best_guess_is_half():
    ens = ghz_basis(3, (1, 1, 1))
    povm = computational_povm(ens.dims)
    # outcome b is consistent with members (|b> +- |bbar>)/sqrt2; guess the + one
    guesses = []
    for b in range(8):
        k = min(b, 7 - b)
        guesses.append(ens.states[2 * k])
    strategy = GuessStrategy(tuple(guesses))
    f = average_fidelity(ens, povm, strategy)
    assert f == pytest.approx(0.5, abs=1e-12)
    assert f == pytest.approx(triple_loop_fidelity(ens, povm, strategy), abs=1e-12)


def test_average_fidelity_two_bell_states_computational():
    bell = bell_basis()
    ens = Ensemble(bell.layout, ((0.5, bell.states[0]), (0.5, bell.states[3])))
    povm = computational_povm((2, 2))
    guesses = GuessStrategy((
        bell.states[0], bell.states[3], bell.states[3], bell.states[0],
    ))
    assert average_fidelity(ens, povm, guesses) == pytest.approx(1.0)


def test_average_fidelity_matches_triple_loop_random():
    rng = np.random.default_rng(31)
    states = [StateVector.normalized((4,), rng.standard_normal(4) + 1j * rng.standard_normal(4))
              for _ in range(3)]
    priors = rng.dirichlet(np.ones(3))
    layout = PartyLayout((("A", (0,)),))
    ens = Ensemble(layout, tuple(zip(priors, states)))
    povm = random_povm(4, 5, rng)
    guesses = random_guesses((4,), 5, rng)
    assert average_fidelity(ens, povm, guesses) == pytest.approx(
        triple_loop_fidelity(ens, povm, guesses), abs=1e-12)


def test_average_fidelity_range_and_projective_identity():
    ens = lattice_basis(1)
    povm = Povm((2, 2), tuple(np.outer(s.amps, s.amps.conj()) for s in ens.states))
    guesses = GuessStrategy(ens.states)
    assert average_fidelity(ens, povm, guesses) == pytest.approx(1.0)


def test_average_fidelity_affine_in_priors():
    bell = bell_basis()
    povm = computational_povm((2, 2))
    guesses = GuessStrategy(tuple(bell.states))
    rng = np.random.default_rng(37)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    t = 0.3
    def with_priors(pr):
        return Ensemble(bell.layout, tuple(zip(pr, bell.states)))
    mixed = average_fidelity(with_priors(t * p + (1 - t) * q), povm, guesses)
    split = (t * average_fidelity(with_priors(p), povm, guesses)
             + (1 - t) * average_fidelity(with_priors(q), povm, guesses))
    assert mixed == pytest.approx(split, abs=1e-12)


def test_average_fidelity_global_unitary_invariance():
    rng = np.random.default_rng(41)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(z)
    bell = bell_basis()
    povm = computational_povm((2, 2))
    guesses = GuessStrategy(tuple(bell.states))
    base = average_fidelity(bell, povm, guesses)
    rotated_ens = Ensemble(bell.layout, tuple(
        (p, StateVector((2, 2), u @ s.amps)) for p, s in bell.members))
    rotated_povm = Povm((2, 2), tuple(u @ e @ u.conj().T for e in povm.elements))
    rotated_guess = GuessStrategy(tuple(
        StateVector((2, 2), u @ g.amps) for g in guesses.guesses))
    assert average_fidelity(rotated_ens, rotated_povm, rotated_guess) == pytest.approx(
        base, abs=1e-12)


def test_average_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        average_fidelity(bell_basis(), computational_povm((2,)), GuessStrategy((bell_basis().states[0],)))


# -- optimal guessing ---------------------------------------------------------

def test_optimal_guess_single_support():
    bell = bell_basis()
    ens = Ensemble(bell.layout, ((1.0, bell.states[2]),))
    povm = Povm((2, 2), (np.eye(4, dtype=complex),))
    strategy, f = optimal_guess(ens, povm)
    assert f == pytest.approx(1.0)
    assert abs(np.vdot(strategy[0].amps, bell.states[2].amps)) == pytest.approx(1.0)


@pytest.mark.parametrize("alpha,gamma", [(1.0, 1.0), (0.9, 0.8), (S2, S2), (0.95, S2)])
def test_optimal_guess_parametric_formula(alpha, gamma):
    ens = parametric_basis(alpha, gamma)
    _, f = optimal_guess(ens, computational_povm((2, 2)))
    assert f == pytest.approx((alpha ** 2 + gamma ** 2) / 2, abs=1e-12)


def test_optimal_guess_degenerate_tie_break_three_bell_states():
    bell = bell_basis()
    ens = Ensemble(bell.layout, tuple((1 / 3, bell.states[i]) for i in range(3)))
    strategy, _ = optimal_guess(ens, computational_povm((2, 2)))
    # outcome |00><00|: rho is an equal mix of |00> and |11|; pick |00>
    assert np.allclose(strategy[0].amps, [1, 0, 0, 0])


def test_optimal_guess_beats_random_strategies():
    rng = np.random.default_rng(43)
    ens = parametric_basis(0.9, 0.8)
    povm = computational_povm((2, 2))
    _, best = optimal_guess(ens, povm)
    for _ in range(100):
        rand = random_guesses((2, 2), povm.n_outcomes, rng)
        assert average_fidelity(ens, povm, rand) <= best + 1e-9


# -- global optimum -----------------------------------------------------------

def test_global_optimum_orthonormal_families():
    assert global_optimum_orthonormal(bell_basis()) == 1.0
    assert global_optimum_orthonormal(ghz_basis(3, (1, 1, 1))) == 1.0
    assert global_optimum_orthonormal(lattice_basis(2)) == 1.0


def test_global_optimum_rejects_overlapping():
    bell = bell_basis()
    tilted = StateVector.normalized((2, 2), [1.0, 0.0, 0.0, 0.3])
    ens = Ensemble(bell.layout, ((0.5, bell.states[0]), (0.5, tilted)))
    with pytest.raises(ValueError):
        global_optimum_orthonormal(ens)


# -- bounds -------------------------------------------------------------------

def test_mes_bound_values():
    assert mes_bound(16, 4) == pytest.approx(0.25)
    assert mes_bound(4, 2) == pytest.approx(0.5)
    assert mes_bound(3, 2) == pytest.approx(2 / 3)


def _across(ens, cut):
    """``ens`` with its layout coarsened to the two sides of ``cut``."""
    side_a, side_b = cut
    grouping = {**dict.fromkeys(side_a, "A"), **dict.fromkeys(side_b, "B")}
    return Ensemble(coarsen(ens.layout, grouping), ens.members)


def test_separable_bound_ghz_is_half_whole_and_per_cut():
    for n in (3, 4):
        ens = ghz_basis(n, (1,) * n)
        assert separable_bound(ens) == pytest.approx(0.5, abs=1e-9)
        for cut in ens.layout.bipartitions():
            assert separable_bound(_across(ens, cut)) == pytest.approx(0.5, abs=1e-9)


def test_separable_bound_parametric_caps_the_computational_guess():
    ens = parametric_basis(0.9, 0.8)
    _, reached = optimal_guess(ens, computational_povm(ens.dims))
    assert reached == pytest.approx(0.725, abs=1e-12)
    # the largest member overlap with a product state is alpha^2 = 0.81
    assert separable_bound(ens) == pytest.approx(0.81, abs=1e-9)
    assert separable_bound(ens) >= reached


def test_separable_bound_refuses_non_orthonormal_members():
    bell = bell_basis()
    tilted = StateVector.normalized((2, 2), [1.0, 0.0, 0.0, 0.3])
    ens = Ensemble(bell.layout, ((0.5, bell.states[0]), (0.5, tilted)))
    with pytest.raises(ValueError, match="orthonormal"):
        separable_bound(ens)


# -- entropy bound ------------------------------------------------------------

def test_entropy_bound_ghz_resource_saturates():
    for n, sizes in ((3, (1, 1, 1)), (4, (2, 2))):
        m = len(sizes)
        report = entropy_bound_check(ghz_state(m), single_qubit_layout(m),
                                     ghz_basis(n, sizes))
        assert report.applicable and report.passed
        for row in report.rows:
            assert row.mean_member_entropy == pytest.approx(1.0, abs=1e-9)
            assert row.resource_entropy == pytest.approx(1.0, abs=1e-9)
        assert report.n_partite_ok


def test_entropy_bound_product_resource_fails():
    product = StateVector((2, 2, 2), np.eye(8)[0])
    report = entropy_bound_check(product, single_qubit_layout(3),
                                 ghz_basis(3, (1, 1, 1)))
    assert report.applicable and not report.passed
    assert not report.n_partite_ok


def test_entropy_bound_incomplete_family_not_binding():
    from locce.zoo import ghz_subset_family
    resource = StateVector((2, 2), maximally_entangled(2))
    layout = PartyLayout((("B", (0,)), ("C", (1,))))
    report = entropy_bound_check(resource, layout, ghz_subset_family())
    assert not report.applicable
    assert report.passed
    # the raw rows do record the violation the completeness premise excuses
    violated = [r for r in report.rows if not r.satisfied]
    assert violated


def test_entropy_bound_layout_mismatch():
    resource = StateVector((2, 2), maximally_entangled(2))
    layout = PartyLayout((("X", (0,)), ("Y", (1,))))
    with pytest.raises(ValueError):
        entropy_bound_check(resource, layout, bell_basis())


# -- mixing and conversion ----------------------------------------------------

def test_mixed_strategy_fidelity():
    assert mixed_strategy_fidelity(1.0, 0.9, 0.1) == pytest.approx(0.9)
    assert mixed_strategy_fidelity(0.4, 1.0, 0.5) == pytest.approx(0.7)
    rng = np.random.default_rng(47)
    for _ in range(20):
        p = rng.uniform(0.01, 1.0)
        fb = rng.uniform(0.0, 0.99)
        assert mixed_strategy_fidelity(p, 1.0, fb) > fb


def test_mixed_strategy_fidelity_validation():
    with pytest.raises(ValueError):
        mixed_strategy_fidelity(1.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        mixed_strategy_fidelity(0.5, 1.2, 0.5)


def test_vidal_probability_bell_target_reached():
    bell = bell_basis().states[0]
    assert vidal_conversion_probability(bell, ((0,), (1,)), 2) == pytest.approx(1.0)


def test_vidal_probability_partial_resource():
    psi = StateVector((2, 2), [math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
    # two-term minimum: min(1 * 1, 2 * 0.2) = 0.4
    assert vidal_conversion_probability(psi, ((0,), (1,)), 2) == pytest.approx(0.4)


def test_vidal_probability_product_is_zero():
    psi = StateVector((2, 2), [1, 0, 0, 0])
    assert vidal_conversion_probability(psi, ((0,), (1,)), 2) == 0.0


def test_vidal_probability_monotone_in_entanglement():
    prev = -1.0
    for lam in np.linspace(0.0, 0.5, 11):
        amps = [math.sqrt(1 - lam), 0, 0, math.sqrt(lam)]
        p = vidal_conversion_probability(StateVector((2, 2), amps), ((0,), (1,)), 2)
        assert p >= prev - 1e-12
        prev = p
    assert prev == pytest.approx(1.0)


def test_vidal_probability_rank_three_target():
    lam = np.array([0.5, 0.3, 0.2])
    amps = np.zeros(9)
    amps[[0, 4, 8]] = np.sqrt(lam)
    psi = StateVector((3, 3), amps)
    want = min(1.0, 3 / 2 * (0.3 + 0.2), 3 * 0.2)
    assert vidal_conversion_probability(psi, ((0,), (1,)), 3) == pytest.approx(want)


# -- POVM validation ----------------------------------------------------------

def test_povm_validation():
    with pytest.raises(ValueError):
        Povm((2,), (np.eye(2, dtype=complex) * 0.5,))  # doesn't sum to identity
    with pytest.raises(ValueError):
        Povm((2,), (np.array([[1, 1], [0, 0]], dtype=complex),
                    np.array([[0, -1], [0, 1]], dtype=complex)))  # not Hermitian
    with pytest.raises(ValueError, match="element 1 is not Hermitian"):
        Povm((2,), (np.diag([1.0, 0.0]), np.array([[0, 1e-6], [0, 1]])))
    with pytest.raises(ValueError, match="do not sum to the identity"):
        Povm((2,), (np.diag([1.0, 0.0]), np.diag([0.0, 1 - 2 * TOL])))


@pytest.mark.parametrize("low, accepted", [(-0.5 * TOL, True), (-2 * TOL, False)])
def test_dense_povm_positivity_is_checked_at_tol(low, accepted):
    elements = (np.diag([low, 0.5]).astype(complex), np.diag([1 - low, 0.5]).astype(complex))
    if accepted:
        povm = Povm((2,), elements)
        assert np.allclose(povm.elements[0], np.diag([0.0, 0.5]), atol=TOL)
    else:
        with pytest.raises(ValueError, match="element 0 is not positive semidefinite"):
            Povm((2,), elements)


def test_dense_povm_completeness_is_checked_on_the_stored_factors():
    # the dense elements sum to I and each passes the -TOL positivity check, but their
    # factors drop the -0.9e-9 eigenvalues, so the stored elements miss I by 1.8e-9
    low = np.diag([-0.9e-9, 0.5])
    with pytest.raises(ValueError, match="do not sum to the identity"):
        Povm((2,), (low, low, np.diag([1 + 1.8e-9, 0.0])))


def test_dense_povm_refuses_a_nan_element():
    with pytest.raises(ValueError, match="element 0 is not Hermitian"):
        Povm((2,), (np.diag([float("nan"), 0.0]), np.diag([0.0, 1.0])))


def test_factored_povm_refuses_a_nan_factor():
    with pytest.raises(ValueError, match="do not sum to the identity"):
        Povm.from_factors((2,), (np.array([[float("nan"), 0.0]]), np.array([[0.0, 1.0]])))


def test_factored_povm_checks_completeness_of_the_factor_rows():
    half = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="do not sum to the identity"):
        Povm.from_factors((2,), (half,))
    with pytest.raises(ValueError, match="factor 1 has shape"):
        Povm.from_factors((2,), (half, np.eye(3)))
    povm = Povm.from_factors((2,), (half, np.zeros((0, 2)), np.array([[0.0, 1.0]])))
    assert povm.n_outcomes == 3
    assert np.array_equal(povm.elements[1], np.zeros((2, 2)))
    assert [len(c) for c in povm.factors] == [1, 0, 1]


def test_povm_stores_factors_and_builds_dense_elements_on_request():
    povm = computational_povm((2, 2))
    assert len(povm.elements) == povm.n_outcomes == 4
    assert povm.elements.rows.shape == (4, 4)  # one factor row per projector
    assert np.array_equal(povm.elements[2], np.diag([0.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(povm.elements[-1], np.diag([0.0, 0.0, 0.0, 1.0]))
    assert np.array_equal(sum(povm.elements), np.eye(4))
