"""Core linear algebra: products, traces, Schmidt data, entropies."""

import itertools
import math

import numpy as np
import pytest

from locce.tensor import (
    BELL_CORRECTIONS,
    Operator,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    StateVector,
    all_bipartitions,
    apply_to_batch,
    bell_vectors,
    entanglement_entropy,
    kron,
    maximally_entangled,
    partial_trace,
    principal_eigenvector,
    schmidt,
    schmidt_measure_bounds,
)
from locce.families import lattice_basis

from dense_reference import embed_operator

S2 = 1 / math.sqrt(2)


def ket(*bits):
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int("".join(map(str, bits)), 2)] = 1.0
    return StateVector((2,) * len(bits), amps)


def random_state(dims, rng):
    n = int(np.prod(dims))
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector.normalized(dims, amps)


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- kron ---------------------------------------------------------------------

def test_kron_computational():
    assert np.allclose(kron(ket(0), ket(0)).amps, [1, 0, 0, 0])
    assert np.allclose(kron(ket(0), ket(1)).amps, [0, 1, 0, 0])


def test_kron_bell_pair_product_is_two_pair_resource():
    phi1 = StateVector((2, 2), bell_vectors()[0])
    resource = kron(phi1, phi1)
    expected = np.kron(bell_vectors()[0], bell_vectors()[0])
    assert resource.dims == (2, 2, 2, 2)
    assert np.allclose(resource.amps, expected)


def test_pauli_products_on_bell_state_reproduce_bell_basis():
    # direct 4x4 multiplication oracle
    phi1 = bell_vectors()[0]
    products = [np.kron(p, PAULI_I) @ phi1
                for p in (PAULI_I, PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z)]
    hits = set()
    for vec in products:
        overlaps = np.abs(bell_vectors().conj() @ vec)
        (idx,) = np.flatnonzero(overlaps > 1 - 1e-12)
        hits.add(int(idx))
    assert hits == {0, 1, 2, 3}


def test_kron_associative():
    rng = np.random.default_rng(1)
    a, b, c = (random_state((2,), rng), random_state((3,), rng), random_state((2,), rng))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert left.dims == right.dims == (2, 3, 2)
    assert np.allclose(left.amps, right.amps)


def test_kron_operators():
    op = kron(Operator((2,), PAULI_X), Operator((2,), PAULI_Z))
    assert np.allclose(op.entries, np.kron(PAULI_X, PAULI_Z))


# -- partial trace ------------------------------------------------------------

def brute_partial_trace(amps, dims, keep):
    n = len(dims)
    keep = sorted(keep)
    drop = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    rho = np.zeros((dk, dk), dtype=complex)
    ranges = [range(d) for d in dims]
    amps = amps.reshape(dims)
    for idx in itertools.product(*ranges):
        for jdx in itertools.product(*ranges):
            if any(idx[t] != jdx[t] for t in drop):
                continue
            row = 0
            col = 0
            for t in keep:
                row = row * dims[t] + idx[t]
                col = col * dims[t] + jdx[t]
            rho[row, col] += amps[idx] * np.conj(amps[jdx])
    return rho


def test_partial_trace_product_state():
    rho = partial_trace(ket(0, 0), (0,))
    assert np.allclose(rho.entries, [[1, 0], [0, 0]])


def test_partial_trace_bell_marginal_is_maximally_mixed():
    phi1 = StateVector((2, 2), bell_vectors()[0])
    rho = partial_trace(phi1, (0,))
    assert np.allclose(rho.entries, np.eye(2) / 2)


def test_partial_trace_ghz_keep_first_two():
    amps = np.zeros(8)
    amps[0] = amps[7] = S2
    ghz = StateVector((2, 2, 2), amps)
    rho = partial_trace(ghz, (0, 1))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.allclose(rho.entries, expected)


def test_partial_trace_against_brute_force():
    rng = np.random.default_rng(5)
    psi = random_state((2, 3, 2), rng)
    for keep in ((0,), (1,), (2,), (0, 2), (1, 2)):
        got = partial_trace(psi, keep).entries
        want = brute_partial_trace(psi.amps.copy(), (2, 3, 2), keep)
        assert np.max(np.abs(got - want)) < 1e-12
        assert abs(np.trace(got) - 1.0) < 1e-9


def test_partial_trace_of_operator_input():
    rng = np.random.default_rng(6)
    psi = random_state((2, 2, 2), rng)
    rho_full = psi.density()
    direct = partial_trace(psi, (0, 2)).entries
    via_op = partial_trace(rho_full, (0, 2)).entries
    assert np.max(np.abs(direct - via_op)) < 1e-12


def test_partial_trace_complementary_spectra_match():
    rng = np.random.default_rng(7)
    psi = random_state((2, 2, 3), rng)
    a = np.sort(np.linalg.eigvalsh(partial_trace(psi, (0,)).entries))[::-1]
    b = np.sort(np.linalg.eigvalsh(partial_trace(psi, (1, 2)).entries))[::-1]
    assert np.max(np.abs(a - b[: a.size])) < 1e-9
    assert np.max(np.abs(b[a.size:])) < 1e-9


def test_partial_trace_index_errors():
    with pytest.raises(ValueError):
        partial_trace(ket(0, 0), (2,))
    with pytest.raises(ValueError):
        partial_trace(ket(0, 0), ())


# -- schmidt ------------------------------------------------------------------

def test_schmidt_product_state():
    data = schmidt(ket(0, 1), ((0,), (1,)))
    assert data.rank == 1
    assert np.allclose(data.coefficients, [1.0])


def test_schmidt_bell_state():
    phi1 = StateVector((2, 2), bell_vectors()[0])
    data = schmidt(phi1, ((0,), (1,)))
    assert data.rank == 2
    assert np.allclose(data.coefficients, [S2, S2])
    assert data.coefficients[0] ** 2 == pytest.approx(0.5)


def test_schmidt_partially_entangled():
    psi = StateVector((2, 2), [math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
    data = schmidt(psi, ((0,), (1,)))
    assert np.allclose(data.coefficients, [math.sqrt(0.8), math.sqrt(0.2)])


def test_schmidt_reconstruction_every_bipartition():
    rng = np.random.default_rng(11)
    psi = random_state((2, 2, 3, 2), rng)
    for part_a, part_b in all_bipartitions(4):
        data = schmidt(psi, (part_a, part_b))
        mat = psi.amps.reshape(psi.dims)
        mat = np.moveaxis(mat, part_a + part_b, range(4)).reshape(-1)
        assert np.linalg.norm(data.reconstruct() - mat) < 1e-9


def test_schmidt_rejects_bad_bipartition():
    with pytest.raises(ValueError):
        schmidt(ket(0, 0), ((0, 1), ()))
    with pytest.raises(ValueError):
        schmidt(ket(0, 0), ((0,), (0,)))


def test_schmidt_and_entropy_ignore_the_order_within_a_side():
    # lattice_basis(2) with A = (2, 0), B = (3, 1): each side listed out of order
    for st in lattice_basis(2).states:
        got = schmidt(st, ((2, 0), (3, 1)))
        want = schmidt(st, ((0, 2), (1, 3)))
        assert np.array_equal(got.coefficients, want.coefficients)
        for a, b in zip(got.left_vectors + got.right_vectors,
                        want.left_vectors + want.right_vectors, strict=True):
            assert a.dims == b.dims and np.array_equal(a.amps, b.amps)
        assert entanglement_entropy(st, ((2, 0), (3, 1))) == pytest.approx(
            entanglement_entropy(st, ((0, 2), (1, 3))), abs=1e-12)


# -- entropy ------------------------------------------------------------------

def test_entropy_product_and_bell():
    assert entanglement_entropy(ket(0, 1), ((0,), (1,))) == pytest.approx(0.0, abs=1e-12)
    phi1 = StateVector((2, 2), bell_vectors()[0])
    assert entanglement_entropy(phi1, ((0,), (1,))) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_entropy_maximally_entangled_log_d(d):
    psi = StateVector((d, d), maximally_entangled(d))
    assert entanglement_entropy(psi, ((0,), (1,))) == pytest.approx(math.log2(d))


def test_entropy_sides_agree():
    rng = np.random.default_rng(13)
    psi = random_state((2, 3, 2), rng)
    a = entanglement_entropy(psi, ((0,), (1, 2)))
    b = entanglement_entropy(psi, ((1, 2), (0,)))
    assert a == pytest.approx(b, abs=1e-9)


def test_entropy_local_unitary_invariance():
    rng = np.random.default_rng(17)
    psi = random_state((2, 2, 2), rng)
    base = entanglement_entropy(psi, ((0,), (1, 2)))
    for _ in range(5):
        u_a = haar_unitary(2, rng)
        u_b = haar_unitary(4, rng)
        rotated = apply_to_batch(u_a, (0,), psi.amps, psi.dims)
        rotated = apply_to_batch(u_b, (1, 2), rotated, psi.dims)
        rotated = StateVector(psi.dims, rotated)
        assert entanglement_entropy(rotated, ((0,), (1, 2))) == pytest.approx(base, abs=1e-9)


def test_entropy_from_reduced_spectrum_oracle():
    rng = np.random.default_rng(19)
    psi = random_state((2, 2, 2), rng)
    lam = np.linalg.eigvalsh(partial_trace(psi, (0,)).entries)
    lam = lam[lam > 1e-15]
    want = float(-np.sum(lam * np.log2(lam)))
    assert entanglement_entropy(psi, ((0,), (1, 2))) == pytest.approx(want, abs=1e-9)


# -- product-term entanglement brackets --------------------------------------

def test_schmidt_measure_bounds_product():
    assert schmidt_measure_bounds(ket(0, 1, 0), 1) == (0.0, 0.0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_schmidt_measure_bounds_ghz_is_one(m):
    amps = np.zeros(2 ** m)
    amps[0] = amps[-1] = S2
    ghz = StateVector((2,) * m, amps)
    lower, upper = schmidt_measure_bounds(ghz, 2)
    assert lower == pytest.approx(1.0)
    assert upper == pytest.approx(1.0)


def test_schmidt_measure_bounds_two_bell_pairs():
    phi1 = StateVector((2, 2), bell_vectors()[0])
    lower, upper = schmidt_measure_bounds(kron(phi1, phi1), 4)
    assert (lower, upper) == (2.0, 2.0)


# -- deterministic eigenvectors ----------------------------------------------

def test_principal_eigenvector_degenerate_tie_break():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 1 / 6
    val, vec = principal_eigenvector(rho)
    assert val == pytest.approx(1 / 6)
    assert np.allclose(vec, [1, 0, 0, 0])


def test_principal_eigenvector_zero_matrix():
    val, vec = principal_eigenvector(np.zeros((3, 3)))
    assert val == 0.0
    assert np.allclose(vec, [1, 0, 0])


# -- embedding ----------------------------------------------------------------

def test_apply_matches_embed():
    rng = np.random.default_rng(23)
    dims = (2, 3, 2)
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    full = embed_operator(mat, (2, 1), dims)
    assert np.allclose(full @ psi, apply_to_batch(mat, (2, 1), psi, dims))


def test_apply_respects_target_order():
    # CNOT with control=subsystem 1, target=subsystem 0
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    out = apply_to_batch(cnot, (1, 0), ket(0, 1).amps, (2, 2))
    assert np.allclose(out, ket(1, 1).amps)


def test_apply_stack_matches_one_operator_at_a_time():
    rng = np.random.default_rng(29)
    dims = (2, 3, 2)
    batch = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    stack = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    out = apply_to_batch(stack, (2, 1), batch, dims)
    assert out.shape == (3, 5, 12)
    for mat, got in zip(stack, out):
        assert np.allclose(got, apply_to_batch(mat, (2, 1), batch, dims), atol=1e-13)
    assert np.allclose(apply_to_batch(stack, (2, 1), batch[0], dims), out[:, 0])


def test_apply_stacks_to_runs_of_rows_matches_each_run_alone():
    rng = np.random.default_rng(31)
    dims = (2, 3, 2)
    batch = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
    stacks = rng.standard_normal((3, 2, 6, 6)) + 1j * rng.standard_normal((3, 2, 6, 6))
    out = apply_to_batch(stacks, (2, 1), batch, dims)
    assert out.shape == (3, 2, 2, 12)
    for b, stack in enumerate(stacks):
        alone = apply_to_batch(stack, (2, 1), batch[2 * b:2 * b + 2], dims)
        assert out[b].tobytes() == alone.tobytes()  # the same products, bit for bit
    with pytest.raises(ValueError, match="equal runs"):
        apply_to_batch(stacks, (2, 1), batch[:5], dims)


def test_apply_to_an_empty_batch():
    mat = np.eye(2, dtype=complex)
    empty = np.zeros((0, 8), dtype=complex)
    assert apply_to_batch(mat, (1,), empty, (2, 2, 2)).shape == (0, 8)
    assert apply_to_batch(np.stack([mat, mat]), (1,), empty, (2, 2, 2)).shape == (2, 0, 8)


def test_bell_corrections_are_unitary():
    for u in BELL_CORRECTIONS:
        assert np.allclose(u.conj().T @ u, np.eye(2))


# -- type validation ----------------------------------------------------------

def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector((2,), [1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        StateVector((2, 2), [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        StateVector.normalized((2,), [0.0, 0.0])


def test_state_vector_refuses_nan():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector((2,), [float("nan"), float("nan")])


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator((2,), np.zeros((3, 3)))
