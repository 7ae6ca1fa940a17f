"""Hot inner loops of the repeated-interaction oracle, in plain numpy.

``element_chain`` multiplies the run powers of the slot matrices instead of
one factor per slot; ``slot_apply`` turns each slot step into one BLAS matrix
product on a contiguous copy of the lattice state.  Neither uses a matrix
exponential.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the compute path, recorded as benchmark provenance."""
    return "numpy"


def element_chain(mats: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Ordered product mats[0]^counts[0] @ mats[1]^counts[1] @ ... (I if empty).

    Each run power is taken by repeated squaring, so a schedule of N slots in
    R runs costs O(R log N) products.
    """
    acc = np.eye(mats.shape[1], dtype=np.complex128)
    for mat, count in zip(mats, counts, strict=True):
        acc = acc @ np.linalg.matrix_power(mat, int(count))
    return acc


def slot_apply(state: np.ndarray, g4: np.ndarray, dh: int, m: int, n: int) -> np.ndarray:
    """Apply the step contraction to (h, slot j) for j = n down to 1.

    ``state`` is the flattened h (x) slot_1 (x) ... (x) slot_n vector with h
    slowest and slot n fastest; ``g4`` is the step matrix reshaped to
    (dh, m, dh, m).  Before step j the state is held in the axis order
    (h, slots j+1..n, slots 1..j); moving slot j next to h gives a contiguous
    (dh*m, rest) matrix for one matmul, whose output is already in the order
    step j-1 expects.  After step 1 the order is the original one again.
    """
    g2 = np.asarray(g4, dtype=np.complex128).reshape(dh * m, dh * m)
    cur = np.array(state, dtype=np.complex128).reshape(-1)
    buf = np.empty_like(cur)
    for j in range(n, 0, -1):
        pre = m ** (j - 1)
        post = m ** (n - j)
        np.copyto(
            buf.reshape(dh, m, post, pre),
            cur.reshape(dh, post, pre, m).transpose(0, 3, 1, 2),
        )
        np.matmul(g2, buf.reshape(dh * m, post * pre), out=cur.reshape(dh * m, post * pre))
    return cur
