"""Dense reference operators for the tests, built without ``apply_to_batch``."""

import math

import numpy as np
from scipy import sparse

from locce.protocols import Leaf


def embed_operator(mat, targets, dims) -> np.ndarray:
    """Identity-pad ``mat`` (acting on ordered ``targets``) to the full space.

    ``mat`` (x) I is laid out over the subsystems in the order (targets, the
    rest), and its axes are then moved back to subsystem order.
    """
    dims = tuple(dims)
    order = list(targets) + [k for k in range(len(dims)) if k not in targets]
    rest = math.prod(dims[k] for k in order[len(targets):])
    full = np.kron(np.asarray(mat, dtype=complex), np.eye(rest))
    full = full.reshape([dims[k] for k in order] * 2)
    back = list(np.argsort(order))
    full = full.transpose(back + [len(dims) + k for k in back])
    return full.reshape(math.prod(dims), math.prod(dims))


def branch_kraus(tree, dims):
    """The dense Kraus product K_b of every branch of ``tree``, in leaf order.

    Each instrument is embedded once, as a sparse matrix, however many
    nodes share it.
    """
    embedded = {}

    def walk(node, kmat):
        if isinstance(node, Leaf):
            yield kmat
            return
        inst = node.instrument
        if id(inst) not in embedded:
            embedded[id(inst)] = [sparse.csr_array(embed_operator(k, inst.targets, dims))
                                  for k in inst.kraus]
        for kraus, child in zip(embedded[id(inst)], node.children):
            yield from walk(child, kraus @ kmat)

    yield from walk(tree, np.eye(math.prod(dims), dtype=complex))


def leaf_paths(node, path=()):
    """Outcome paths of the leaves of ``node``, depth first."""
    if isinstance(node, Leaf):
        return [path]
    return [p for k, child in enumerate(node.children) for p in leaf_paths(child, path + (k,))]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
