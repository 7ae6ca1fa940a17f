"""Repeated-interaction (toy Fock) oracle for cross-validating the engine.

The continuous noise is replaced by N interaction slots, each a copy of
C + k.  One slot carries the first-order Euler step

    G_tau = [ I + tau K   sqrt(tau) M ]
            [ sqrt(tau) L   C        ]

(quantum Ito scaling: time block tau, creation/annihilation sqrt(tau), gauge
untouched).  Deliberately no matrix exponential anywhere in this module: the
oracle must not share numerical kernels with the semigroup engine it checks.

Discrete exponential vectors use the unnormalized slot components
(1, sqrt(tau) f(s_j)) sampled at left endpoints s_j, matching the
right-continuity of ``StepFunction``.  New slots multiply the accumulated
h-operator on the right, which realizes the left functional equation
V_{r+t} = V_r sigma_r(V_t) on the lattice exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cocycle import StepFunction, exp_inner
from .generator import BlockGenerator


@dataclass(frozen=True)
class ToyLattice:
    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    def left_endpoints(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps)


def step_matrix(F: BlockGenerator, tau: float) -> np.ndarray:
    """One-slot interaction matrix G_tau on h (x) (C + k)."""
    if not 0 < tau < np.inf:
        raise ValueError(f"step size tau must be finite and positive, got tau={tau}")
    dh = F.dim_h
    n = F.total_dim
    g = np.zeros((n, n), dtype=np.complex128)
    g[:dh, :dh] = np.eye(dh) + tau * F.K
    g[:dh, dh:] = np.sqrt(tau) * F.M
    g[dh:, :dh] = np.sqrt(tau) * F.L
    g[dh:, dh:] = F.C
    return g


def _finite(value, t: float):
    """``value``, or an ``OverflowError`` naming ``t`` when it is not finite."""
    if not np.isfinite(value):
        raise OverflowError(f"oracle overflowed at t={t:.6g}: the lattice result is not finite")
    return value


@np.errstate(over="ignore", invalid="ignore")
def oracle_matrix_element(
    F: BlockGenerator,
    u,
    f: StepFunction,
    v,
    g: StepFunction,
    t: float,
    N: int,
) -> complex:
    """Euler-product approximation of <u eps(f), V_t v eps(g)>.

    Maintains A_0 = I and A_j = E^{xi_j}((A_{j-1} (x) I) G_tau) E_{eta_j}
    with xi_j = (1, sqrt(tau) f(s_j)), eta_j = (1, sqrt(tau) g(s_j)); the
    result converges to the engine value with O(1/N) error.  Consecutive slots
    with equal (f, g) values share one slot matrix, raised to the run length.
    """
    lattice = ToyLattice(n_steps=N, horizon=t)
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if u.size != F.dim_h or v.size != F.dim_h:
        raise ValueError(
            f"state vectors have dimensions {u.size}, {v.size}; expected {F.dim_h}"
        )
    if f.dim_k != F.dim_k or g.dim_k != F.dim_k:
        raise ValueError(
            f"step functions have dim_k {f.dim_k}, {g.dim_k}; generator has {F.dim_k}"
        )
    tau = lattice.tau
    times = lattice.left_endpoints()
    fs, gs = f.at(times), g.at(times)
    # A run of equal slot matrices starts wherever the (f, g) row changes.
    # Comparing whole columns avoids a slow numpy reduction along short rows.
    changed = np.logical_or.reduce([col[1:] != col[:-1] for col in (*fs.T, *gs.T)])
    starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
    one, root = np.ones((starts.size, 1)), np.sqrt(tau)
    xi, eta = np.hstack([one, root * fs[starts]]), np.hstack([one, root * gs[starts]])
    m, dh = 1 + F.dim_k, F.dim_h
    mats = np.einsum(
        "ra,rb,apbq->rpq", xi.conj(), eta, step_matrix(F, tau).reshape(m, dh, m, dh)
    )
    acc = _kernels.element_chain(mats, np.diff(starts, append=N))
    return _finite(complex(np.vdot(u, acc @ v) * exp_inner(f, g, t, None)), t)


@np.errstate(over="ignore", invalid="ignore")
def oracle_state_norm(F: BlockGenerator, v, g: StepFunction, t: float, N: int) -> float:
    """Norm of the fully resolved discrete state V^(N)_t (v (x) eps_N(g)).

    Each slot meets the one-slot step once, while it still holds its product
    vector eta_j = (1, sqrt(tau) g(s_j)), so the squared norm is the trace of
    the h-marginal carried from rho = |v><v| through slots N down to 1 by
    rho <- Tr_slot[G (rho (x) |eta_j><eta_j|) G*]; memory is linear in N.
    For equality-case generators (unitary C) the value converges to
    |v| * |eps(g)| from the isometric limit.
    """
    lattice = ToyLattice(n_steps=N, horizon=t)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != F.dim_h:
        raise ValueError(f"state vector has dimension {v.size}, expected {F.dim_h}")
    if g.dim_k != F.dim_k:
        raise ValueError(f"step function has dim_k {g.dim_k}, generator has {F.dim_k}")
    m, dh = 1 + F.dim_k, F.dim_h
    tau = lattice.tau
    etas = np.hstack([np.ones((N, 1)), np.sqrt(tau) * g.at(lattice.left_endpoints())])
    g4 = step_matrix(F, tau).reshape(m, dh, m, dh)
    rho = _kernels.slot_apply(np.outer(v, v.conj()), g4, etas)
    return _finite(float(np.sqrt(abs(np.trace(rho).real))), t)
