"""Dense complex linear algebra on multipartite Hilbert spaces.

States and operators carry an explicit list of subsystem dimensions.
Subsystem 0 is the most significant tensor index, i.e. amplitudes follow
the standard Kronecker (row-major) ordering, so ``amps.reshape(dims)``
exposes one axis per subsystem.

Everything here is a pure function of its inputs; the wrapper types are
frozen dataclasses around read-only numpy arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

TOL = 1e-9

__all__ = [
    "TOL",
    "StateVector",
    "Operator",
    "SchmidtData",
    "kron",
    "partial_trace",
    "schmidt",
    "entanglement_entropy",
    "schmidt_measure_bounds",
    "all_bipartitions",
    "principal_eigenvector",
    "apply_to_batch",
    "maximally_entangled",
    "generalized_bell_vectors",
    "bell_vectors",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "BELL_CORRECTIONS",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Correction applied after a Bell-basis outcome, indexed in the order
# (phi+, phi-, psi+, psi-): the state picked up by the distant half is
# undone by I, Z, X, XZ respectively.
BELL_CORRECTIONS = (PAULI_I, PAULI_Z, PAULI_X, PAULI_X @ PAULI_Z)


def _as_int(value, key: str) -> int:
    """``value`` as an int; a bool or a non-integral number is refused, naming ``key``."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{key}: {value!r} is not an integer")


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(_as_int(d, "dims") for d in dims)
    if not out or any(d < 2 for d in out):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {out}")
    return out


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a tensor product of subsystems."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} != product of dims {dims}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= TOL:  # written so that NaN fails
            raise ValueError(f"state vector not normalized: |amps| = {norm!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, dims: Iterable[int], amps) -> "StateVector":
        """Build a state from possibly unnormalized amplitudes."""
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if norm < TOL:
            raise ValueError("cannot normalize a (near) zero vector")
        return cls(tuple(dims), amps / norm)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amps, other.amps))

    def conj(self) -> "StateVector":
        return StateVector(self.dims, self.amps.conj())

    def density(self) -> "Operator":
        return Operator(self.dims, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True)
class Operator:
    """Square matrix acting on a tensor product of subsystems."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        entries = np.asarray(self.entries, dtype=complex)
        side = math.prod(dims)
        if entries.shape != (side, side):
            raise ValueError(
                f"matrix shape {entries.shape} != ({side}, {side}) from dims {dims}"
            )
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition across a bipartition.

    coefficients are the singular values of the reshaped amplitude
    matrix, sorted descending; rank counts those above tolerance.
    """

    coefficients: np.ndarray
    left_vectors: tuple[StateVector, ...]
    right_vectors: tuple[StateVector, ...]
    rank: int = field(default=0)

    def reconstruct(self) -> np.ndarray:
        """Amplitude matrix sum_k c_k |u_k><v_k*| flattened back to a vector."""
        da = self.left_vectors[0].dim
        db = self.right_vectors[0].dim
        mat = np.zeros((da, db), dtype=complex)
        for c, u, v in zip(self.coefficients, self.left_vectors, self.right_vectors):
            mat += c * np.outer(u.amps, v.amps)
        return mat.reshape(-1)


def kron(a, b):
    """Tensor product of two states or two operators; dims concatenate."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(a.dims + b.dims, np.kron(a.entries, b.entries))
    raise TypeError("kron requires two StateVectors or two Operators")


def _check_indices(indices: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    idx = tuple(sorted(_as_int(i, what) for i in indices))
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} contains duplicates: {indices}")
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"{what} out of range for {n} subsystems: {indices}")
    return idx


def partial_trace(obj, keep: Iterable[int]) -> Operator:
    """Reduced density operator on the kept subsystems (ascending order)."""
    dims = obj.dims
    n = len(dims)
    keep_idx = _check_indices(tuple(keep), n, "keep")
    if not keep_idx:
        raise ValueError("keep must be nonempty")
    drop_idx = tuple(i for i in range(n) if i not in keep_idx)
    keep_dims = tuple(dims[i] for i in keep_idx)
    dk = math.prod(keep_dims)
    if isinstance(obj, StateVector):
        tensor = obj.amps.reshape(dims)
        tensor = np.moveaxis(tensor, keep_idx, range(len(keep_idx)))
        mat = tensor.reshape(dk, -1)
        rho = mat @ mat.conj().T
    elif isinstance(obj, Operator):
        tensor = obj.entries.reshape(dims + dims)
        for off, i in enumerate(sorted(drop_idx, reverse=True)):
            tensor = np.trace(tensor, axis1=i, axis2=i + n - off)
        # remaining axes are (keep row..., keep col...) in ascending order
        rho = tensor.reshape(dk, dk)
    else:
        raise TypeError("partial_trace requires a StateVector or Operator")
    return Operator(keep_dims, rho)


def _bipartition_matrix(dims: Sequence[int], amps: np.ndarray, part_a, part_b) -> np.ndarray:
    """Amplitudes over ``dims`` as a (dim A, dim B) matrix, each side's
    subsystems taken in the order given. A stack of states, shape
    (k, prod(dims)), gives a stack of matrices, shape (k, dim A, dim B)."""
    a, b = (tuple(_as_int(i, "bipartition") for i in side) for side in (part_a, part_b))
    n = len(dims)
    if not a or not b:
        raise ValueError("bipartition sides must be nonempty")
    if sorted(a + b) != list(range(n)):
        raise ValueError(f"bipartition {part_a} | {part_b} does not partition 0..{n - 1}")
    lead = amps.shape[:-1]
    axes = [len(lead) + i for i in a + b]
    tensor = np.moveaxis(amps.reshape(lead + tuple(dims)), axes, sorted(axes))
    return tensor.reshape(lead + (math.prod(dims[i] for i in a), -1))


def _schmidt_values(psi: StateVector, bipartition) -> np.ndarray:
    """Singular values of the bipartite amplitude matrix, descending."""
    return np.linalg.svd(_bipartition_matrix(psi.dims, psi.amps, *bipartition),
                         compute_uv=False)


def schmidt(psi: StateVector, bipartition) -> SchmidtData:
    """Schmidt decomposition of ``psi`` across (A indices, B indices).

    Each side's subsystems are taken in ascending order. Vector phases
    are fixed so the first significant entry of each left vector is real
    positive, which makes sum_k c_k |u_k>|v_k> reproduce the input
    exactly (no residual global phase).
    """
    a, b = (tuple(sorted(_as_int(i, "bipartition") for i in side)) for side in bipartition)
    u, s, vh = np.linalg.svd(_bipartition_matrix(psi.dims, psi.amps, a, b),
                             full_matrices=False)
    for k in range(s.size):
        col = u[:, k]
        nz = np.flatnonzero(np.abs(col) > TOL)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            u[:, k] = col / phase
            vh[k, :] = vh[k, :] * phase
    rank = int(np.count_nonzero(s > TOL))
    dims_a = tuple(psi.dims[i] for i in a)
    dims_b = tuple(psi.dims[i] for i in b)
    left = tuple(
        StateVector.normalized(dims_a, u[:, k]) for k in range(s.size) if s[k] > TOL
    )
    right = tuple(
        StateVector.normalized(dims_b, vh[k, :]) for k in range(s.size) if s[k] > TOL
    )
    return SchmidtData(np.asarray(s[:len(left)]), left, right, rank)


def entanglement_entropy(psi: StateVector, bipartition) -> float:
    """Base-2 von Neumann entropy of either side of the bipartition (ebits)."""
    s = _schmidt_values(psi, bipartition)
    lam = s * s
    lam = lam[lam > 1e-18]
    return float(-np.sum(lam * np.log2(lam)))


def all_bipartitions(n: int):
    """Nonempty splits of range(n), deduplicated by pinning 0 to side A."""
    out = []
    for mask in range(2 ** (n - 1), 2 ** n):
        a = tuple(i for i in range(n) if mask >> (n - 1 - i) & 1)
        b = tuple(i for i in range(n) if not mask >> (n - 1 - i) & 1)
        if a and b:
            out.append((a, b))
    return out


def schmidt_measure_bounds(psi: StateVector, decomposition_terms: int):
    """Bracket the log2-minimal-product-terms entanglement of ``psi``.

    Lower bound: max over all subsystem bipartitions of log2(Schmidt rank).
    Upper bound: log2 of the size of a known product-term expansion.
    Equal bounds pin the exact value.
    """
    if decomposition_terms < 1:
        raise ValueError("decomposition_terms must be >= 1")
    n = psi.n_subsystems
    lower = 0.0
    if n >= 2:
        for a, b in all_bipartitions(n):
            rank = int(np.count_nonzero(_schmidt_values(psi, (a, b)) > TOL))
            lower = max(lower, math.log2(rank))
    upper = math.log2(decomposition_terms)
    return lower, upper


def principal_eigenvector(matrix: np.ndarray):
    """Deterministic top eigenpair of a Hermitian (PSD) matrix.

    Within a degenerate top eigenspace the returned vector is the
    normalized projection of the lowest-index computational basis state
    with support there, so ties always resolve the same way.
    """
    w, v = np.linalg.eigh(matrix)
    top = w[-1]
    if top < 1e-12:
        e0 = np.zeros(matrix.shape[0], dtype=complex)
        e0[0] = 1.0
        return 0.0, e0
    group = v[:, np.abs(w - top) <= TOL * max(1.0, abs(top))]
    proj = group @ group.conj().T
    diag = np.real(np.diag(proj))
    j = int(np.argmax(diag > TOL))
    vec = proj[:, j]
    vec = vec / np.linalg.norm(vec)
    nz = np.flatnonzero(np.abs(vec) > TOL)
    vec = vec * (abs(vec[nz[0]]) / vec[nz[0]])
    return float(top), vec


def apply_to_batch(mat: np.ndarray, targets: Sequence[int], batch: np.ndarray,
                   dims: Sequence[int]) -> np.ndarray:
    """Apply an operator on the ordered ``targets`` subsystems to each row.

    ``mat`` acts on the product space of ``targets`` taken in the given
    order; ``batch`` has shape (n, prod(dims)). Rows are not normalized.
    A stack of k operators, shape (k, dloc, dloc), is applied in one
    contraction and gives one batch per operator, shape (k, n, prod(dims)).
    B stacks, shape (B, k, dloc, dloc), apply stack b to the b-th of B
    equal runs of consecutive rows, all in the same contraction, and give
    shape (B, k, n / B, prod(dims)). Every row meets each operator in its
    own (dloc, dloc) @ (dloc, rest) product. To let one product cover c
    rows, pass them as one row over dims (c,) + dims, targets shifted by
    one: the branch walk does so with as many member rows as fit in one
    joint row.
    """
    dims = tuple(dims)
    batch = np.asarray(batch, dtype=complex)
    squeeze = batch.ndim == 1
    if squeeze:
        batch = batch[None, :]
    n = batch.shape[0]
    targets = tuple(int(t) for t in targets)
    dloc = math.prod(dims[t] for t in targets)
    if mat.shape[-2:] != (dloc, dloc) or mat.ndim not in (2, 3, 4):
        raise ValueError(f"operator shape {mat.shape} != target space ({dloc}, {dloc})")
    runs = len(mat) if mat.ndim == 4 else 1
    if not runs or n % runs:
        raise ValueError(f"{n} rows do not split into {runs} equal runs")
    ops = mat.reshape((runs, -1, dloc, dloc))
    k = ops.shape[1]
    arr = batch.reshape((n,) + dims)
    src = [t + 1 for t in targets]
    dst = list(range(1, len(targets) + 1))
    arr = np.moveaxis(arr, src, dst)
    moved_shape = arr.shape
    arr = arr.reshape(runs, 1, n // runs, dloc, math.prod(dims) // dloc)
    arr = np.matmul(ops[:, :, None], arr).reshape((runs, k, n // runs) + moved_shape[1:])
    arr = np.moveaxis(arr, [d + 2 for d in dst], [s + 2 for s in src])
    out = arr.reshape(runs, k, n // runs, math.prod(dims))
    if mat.ndim < 4:
        out = out[0, 0] if mat.ndim == 2 else out[0]
    return out[..., 0, :] if squeeze else out


def maximally_entangled(d: int) -> np.ndarray:
    """Amplitudes of (1/sqrt d) sum_i |ii> on C^d x C^d."""
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / math.sqrt(d)
    return phi


def _weyl(d: int) -> np.ndarray:
    """Weyl operators W_k = X^m Z^n, index k = m*d + n, stacked (d*d, d, d).

    X|j> = |j+1 mod d>, Z|j> = w^j |j> with w = exp(2 pi i / d). I x W_k
    maps |Phi_d> to generalized Bell member k, and W_k on the receiver's
    half undoes outcome k of a (resource half, unknown) Bell measurement.
    """
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return np.stack([np.linalg.matrix_power(shift, m) @ np.linalg.matrix_power(clock, n)
                     for m in range(d) for n in range(d)])


def generalized_bell_vectors(d: int) -> np.ndarray:
    """Rows are (I x X^m Z^n)|Phi_d>, index k = m*d + n.

    For d = 2 this is the Bell basis in the order phi+, phi-, psi+, psi-.
    """
    phi = maximally_entangled(d).reshape(d, d)
    return np.stack([(phi @ w.T).reshape(-1) for w in _weyl(d)])


def bell_vectors() -> np.ndarray:
    """The four Bell states as rows, in the order phi+, phi-, psi+, psi-."""
    return generalized_bell_vectors(2).real.astype(complex)
