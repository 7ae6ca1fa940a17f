"""Independent oracles and instance generators shared by the test suite.

Everything here deliberately avoids the package's own code paths where the
point is cross-validation: the matrix exponential reference is scipy, the
Schur product reference is an explicit loop, and the classical birth-death
generator is assembled directly from the jump rates.
"""

import numpy as np
import scipy.linalg

from qscocycle import StepFunction


def scipy_expm(a):
    return scipy.linalg.expm(np.asarray(a, dtype=np.complex128))


def schur_loop(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i, j] = a[i, j] * b[i, j]
    return out


def classical_rate_matrix(birth, death):
    """Generator of the truncated birth-death chain acting on functions.

    No birth out of the top state and no death out of the bottom state,
    matching a hard truncation; interior rows sum to zero.
    """
    birth = np.asarray(birth, dtype=float)
    death = np.asarray(death, dtype=float)
    dim = birth.size
    a = np.zeros((dim, dim))
    for n in range(dim):
        if n < dim - 1:
            a[n, n + 1] = birth[n]
            a[n, n] -= birth[n]
        if n > 0:
            a[n, n - 1] = death[n]
            a[n, n] -= death[n]
    return a


def diagonal_flow_generator(F):
    """Vacuum-flow generator restricted to the diagonal algebra of h.

    Computed straight from the blocks: d/dt x_n picks up 2 Re K_nn from the
    drift and sum_a |L_a[p, n]|^2 x_p from each noise channel.  Valid for the
    gauge-free models used in the tests (C = I), where the flow generator is
    K* X + X K + L* (X (x) I) L.
    """
    dh = F.dim_h
    a = np.diag(2.0 * np.diag(F.K).real).astype(float)
    for ch in range(F.dim_k):
        block = F.L[ch * dh : (ch + 1) * dh]
        a += (np.abs(block) ** 2).T
    return a


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_unit(rng, n):
    v = random_complex(rng, n)
    return v / np.linalg.norm(v)


def random_step(rng, dim_k, max_jumps, horizon, scale=0.7):
    """Random step function with up to max_jumps interior jumps."""
    jumps = int(rng.integers(0, max_jumps + 1))
    interior = np.sort(rng.uniform(0.0, horizon, size=jumps))
    if interior.size:
        interior = interior[np.concatenate(([True], np.diff(interior) > 1e-9))]
    bps = np.concatenate(([0.0], interior))
    vals = random_complex(rng, (bps.size, dim_k), scale / np.sqrt(max(dim_k, 1)))
    end = horizon * float(rng.uniform(0.7, 1.2))
    end = max(end, bps[-1])
    return StepFunction(bps, vals, end)


def aligned_step(rng, dim_k, t, jumps, base=256, scale=0.7):
    """Step function whose jumps sit on the N = base lattice of [0, t].

    Keeps discontinuities resolved exactly by every lattice with N a multiple
    of base, isolating the smooth first-order Euler error in convergence
    studies.
    """
    ks = np.sort(rng.choice(np.arange(1, base), size=jumps, replace=False))
    bps = np.concatenate(([0.0], ks * (t / base)))
    vals = random_complex(rng, (bps.size, dim_k), scale / np.sqrt(max(dim_k, 1)))
    end = t + float(rng.uniform(0.1, 0.6))
    return StepFunction(bps, vals, end)


def sequential_chain(mats, piece_idx):
    """Ordered product I @ mats[piece_idx[0]] @ mats[piece_idx[1]] ..., one
    factor per slot."""
    mats = np.asarray(mats, dtype=np.complex128)
    acc = np.eye(mats.shape[1], dtype=np.complex128)
    for i in piece_idx:
        acc = acc @ mats[i]
    return acc


def reduced_state_norm(F, v, g, t, N):
    """Norm of the discrete state V^(N)_t (v (x) eps_N(g)) from its h-marginal.

    Each slot meets the Euler step G exactly once, while still in its product
    vector eta_j = (1, sqrt(tau) g(s_j)), and is never touched again.  So the
    reduced density matrix follows rho <- Tr_slot[G (rho (x) |eta_j><eta_j|) G*]
    for j = N down to 1, and the squared norm is Tr rho.  G is assembled here
    from the generator blocks, in the block layout (slot index slow, h fast).
    """
    dh, m = F.dim_h, 1 + F.dim_k
    tau = t / N
    root = np.sqrt(tau)
    step = np.block([[np.eye(dh) + tau * F.K, root * F.M], [root * F.L, F.C]])
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    rho = np.outer(v, v.conj())
    for j in range(N, 0, -1):
        eta = np.concatenate(([1.0], root * g((j - 1) * tau)))
        big = step @ np.kron(np.outer(eta, eta.conj()), rho) @ step.conj().T
        rho = np.einsum("aiaj->ij", big.reshape(m, dh, m, dh))
    return float(np.sqrt(np.trace(rho).real))
