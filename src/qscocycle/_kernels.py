"""Hot inner loops of the repeated-interaction oracle, in plain numpy.

``element_chain`` multiplies the run powers of the slot matrices instead of
one factor per slot; ``slot_apply`` carries the h-marginal of the lattice
state through the same runs, raising a long run's Kraus superoperator with
``element_chain``.  Neither uses a matrix exponential.
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


def slot_apply(rho: np.ndarray, g4: np.ndarray, etas: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Carry the h density matrix ``rho`` through runs of slots, last slot first.

    ``g4`` is the step matrix reshaped to (m, dh, m, dh), slot index slow;
    ``etas[r]`` is the product vector every slot of run r holds when the step
    meets it, and ``counts[r]`` is the run length.  A slot acts once and is
    then traced out, rho <- sum_a A_a rho A_a* with A_a = sum_b etas[r, b] g4[a, :, b, :].
    On vec(rho) a run is the power of S_r = sum_a A_a (x) conj(A_a); squaring that
    dh^2 x dh^2 matrix beats 2 m dh^3 flops a slot only for long runs at small dh
    (from 10-18 slots at dh = 2, 7-12 x 10^4 at dh = 24), so short runs step slot by slot.
    """
    m, dh = g4.shape[:2]
    for ops, count in zip(np.einsum("rb,apbq->rapq", etas, g4)[::-1], counts[::-1], strict=True):
        if dh * (m + 2 * dh**2 * np.log2(count)) < 2 * m * count:  # flops of S_r, squared
            superop = np.einsum("apq,ast->psqt", ops, ops.conj()).reshape(dh * dh, -1)
            rho = (element_chain(superop[None], [count]) @ rho.reshape(-1)).reshape(dh, dh)
        else:
            adjoint = ops.conj().swapaxes(-1, -2)
            for _ in range(count):
                rho = (ops @ rho @ adjoint).sum(axis=0)
    return rho
