"""Hot inner loops of the repeated-interaction oracle, in plain numpy.

``element_chain`` multiplies the run powers of the slot matrices instead of
one factor per slot; ``slot_apply`` carries the h-marginal of the lattice
state through the slots, two batched products per slot.  Neither uses a
matrix exponential.
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


def slot_apply(rho: np.ndarray, g4: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Carry the h density matrix ``rho`` through slots n down to 1.

    ``g4`` is the step matrix reshaped to (m, dh, m, dh), slot index slow;
    ``etas[j - 1]`` is the product vector slot j holds when the step meets it.
    Slot j acts once and is then traced out, so with
    A_a = sum_b etas[j - 1, b] g4[a, :, b, :] the step is
    rho <- sum_a A_a rho A_a*.
    """
    kraus = np.einsum("jb,apbq->japq", etas, g4)
    adjoint = kraus.conj().swapaxes(-1, -2)
    rho = np.asarray(rho, dtype=np.complex128)
    for j in range(len(etas) - 1, -1, -1):
        rho = (kraus[j] @ rho @ adjoint[j]).sum(axis=0)
    return rho
