"""Dense reference operators for the tests, built without ``apply_to_batch``."""

import math

import numpy as np


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
