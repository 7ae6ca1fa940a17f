"""Hot inner loops of the repeated-interaction oracle, in plain numpy.

``element_chain`` multiplies the run powers of the slot matrices instead of
one factor per slot, raising all runs together by one binary powering of
their stack; ``slot_apply`` carries the h-marginal of the lattice state
through the same runs, by Kraus slots, by steps of a run's superoperator, or
by that superoperator's power from the same binary powering, whichever
costs the fewest flops.  Neither uses a matrix exponential.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


def backend_name() -> str:
    """Name of the compute path, recorded as benchmark provenance."""
    return "numpy"


def element_chain(mats: np.ndarray, counts) -> np.ndarray:
    """Ordered product mats[0]^counts[0] @ mats[1]^counts[1] @ ... (I if empty).

    The run powers come from one binary powering of the whole stack, so a
    schedule of N slots in R runs costs O(log N) stacked products plus
    R - 1 chain products.
    """
    powers = [power for power in _run_powers(mats, counts) if power is not None]
    if not powers:
        return np.eye(mats.shape[1], dtype=np.complex128)
    acc = powers[0]
    for power in powers[1:]:
        acc = acc @ power
    return acc


def _run_powers(mats: np.ndarray, counts) -> list:
    """mats[r]^counts[r] for each run r, None for a count of 0.

    The stack of runs is squared once per bit level, and only the runs whose
    counts still have a higher bit set are squared, so a finished run never
    overflows.  Each power builds up as ``np.linalg.matrix_power``'s does, bit
    for bit: the lowest set bit takes that level's square z, and each later
    set bit power @ z.  Only count 3 differs, which numpy takes as (a @ a) @ a.
    Levels that no count has set are squared past without a look at the runs.
    """
    counts = list(map(int, counts))
    if len(counts) != len(mats):
        raise ValueError(f"{len(mats)} run matrices for {len(counts)} counts")
    levels = reduce(int.__or__, counts, 0)
    # Longest runs first, so the runs still squared are always a prefix of the stack.
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)
    stack = mats if order == list(range(len(mats))) else mats[order]
    powers, live, bit = [None] * len(counts), len(order), 1
    while live:
        for k, r in enumerate(order[:live] if levels & bit else ()):
            if counts[r] & bit:
                powers[r] = stack[k] if powers[r] is None else powers[r] @ stack[k]
        bit <<= 1
        while live and counts[order[live - 1]] < bit:
            live -= 1
        if live:
            stack = stack @ stack if live == len(stack) else stack[:live] @ stack[:live]
    return powers


def _superoperator(ops: np.ndarray) -> np.ndarray:
    """S = sum_a A_a (x) conj(A_a), rho -> sum_a A_a rho A_a* on row-major vec(rho), per leading index."""
    dh = ops.shape[-1]
    return np.einsum("...apq,...ast->...psqt", ops, ops.conj()).reshape(*ops.shape[:-3], dh * dh, -1)


def slot_apply(rho: np.ndarray, g4: np.ndarray, etas: np.ndarray, counts) -> np.ndarray:
    """Carry the h density matrix ``rho`` through runs of slots, last slot first.

    ``g4`` is the step matrix reshaped to (m, dh, m, dh), slot index slow;
    ``etas[r]`` is the product vector every slot of run r holds when the step
    meets it, and ``counts[r]`` is the run length.  A slot acts once and is
    then traced out, rho <- sum_a A_a rho A_a* with A_a = sum_b etas[r, b] g4[a, :, b, :],
    at 2 m dh^3 flops a slot.  On vec(rho) a run of c slots is the power of the
    dh^2 x dh^2 superoperator S_r, which costs m dh^4 flops to form.  S_r is
    squared by ``_run_powers`` where that beats the Kraus slots, from 10-18
    slots at dh = 2 and 7-12 x 10^4 at dh = 24; otherwise vec(rho) steps by
    S_r where forming it and c products of dh^4 flops beat the slots,
    dh (m + c) < 2 m c, which needs dh < 2 m; every other run steps through
    its Kraus slots.  The R stepped runs' small maps come from one stacked
    call, R dh^4 entries, under 4 m times the Kraus stack; squared runs form one each.
    """
    m, dh = g4.shape[:2]
    kraus, counts = np.einsum("rb,apbq->rapq", etas, g4)[::-1], list(map(int, counts))[::-1]
    squared = [dh * (m + 2 * dh**2 * math.log2(count)) < 2 * m * count for count in counts]
    stepped = [not square and dh * (m + count) < 2 * m * count for square, count in zip(squared, counts)]
    superops = iter(_superoperator(kraus[stepped]) if any(stepped) else ())
    for ops, count, square, step in zip(kraus, counts, squared, stepped, strict=True):
        if square or step:
            vec = rho.reshape(-1)
            if square:
                vec = _run_powers(_superoperator(ops)[None], [count])[0] @ vec
            else:
                superop = next(superops)
                for _ in range(count):
                    vec = superop @ vec
            rho = vec.reshape(dh, dh)
        else:
            adjoint = ops.conj().swapaxes(-1, -2)
            for _ in range(count):
                rho = (ops @ rho @ adjoint).sum(axis=0)
    return rho
