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

DEFAULT_STATE_BUDGET = 2**22


class MemoryBudgetError(RuntimeError):
    """Raised when the discrete state vector would exceed the budget."""

    def __init__(self, required: int, allowed: int):
        super().__init__(
            f"discrete state dimension {required} exceeds the budget {allowed}"
        )
        self.required = required
        self.allowed = allowed


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
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    dh, dk = F.dim_h, F.dim_k
    n = F.total_dim
    g = np.zeros((n, n), dtype=np.complex128)
    g[:dh, :dh] = np.eye(dh) + tau * F.K
    g[:dh, dh:] = np.sqrt(tau) * F.M
    g[dh:, :dh] = np.sqrt(tau) * F.L
    g[dh:, dh:] = F.C
    return g


def _slot_lift(eta: np.ndarray, dh: int) -> np.ndarray:
    """E_eta : h -> h (x) (C + k) in the block layout (scalar slot first)."""
    dk = eta.size - 1
    out = np.zeros(((1 + dk) * dh, dh), dtype=np.complex128)
    out[:dh] = eta[0] * np.eye(dh)
    for a in range(dk):
        out[(1 + a) * dh : (2 + a) * dh] = eta[1 + a] * np.eye(dh)
    return out


def _piece_schedule(
    f: StepFunction, g: StepFunction, lattice: ToyLattice
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (f, g) values over the lattice and the per-slot piece index.

    Vectorized: the slot count can reach thousands while the number of
    distinct pieces stays tiny, so values are resolved through searchsorted
    indices with a sentinel row for the zero value past the support.
    """
    times = lattice.left_endpoints()
    f_rows = np.vstack([f.values, np.zeros((1, f.dim_k), dtype=np.complex128)])
    g_rows = np.vstack([g.values, np.zeros((1, g.dim_k), dtype=np.complex128)])
    fi = np.searchsorted(f.breakpoints, times, side="right") - 1
    fi[times >= f.support_end] = f.values.shape[0]
    gi = np.searchsorted(g.breakpoints, times, side="right") - 1
    gi[times >= g.support_end] = g.values.shape[0]
    keys = fi * (g.values.shape[0] + 1) + gi
    uniq, piece_idx = np.unique(keys, return_inverse=True)
    uniq_f = f_rows[uniq // (g.values.shape[0] + 1)]
    uniq_g = g_rows[uniq % (g.values.shape[0] + 1)]
    return uniq_f, uniq_g, piece_idx.astype(np.int64)


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
    result converges to the engine value with O(1/N) error.
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
    step = step_matrix(F, tau)
    uniq_f, uniq_g, piece_idx = _piece_schedule(f, g, lattice)
    root = np.sqrt(tau)
    mats = np.empty((len(uniq_f), F.dim_h, F.dim_h), dtype=np.complex128)
    for i in range(len(uniq_f)):
        xi = np.concatenate(([1.0 + 0.0j], root * uniq_f[i]))
        eta = np.concatenate(([1.0 + 0.0j], root * uniq_g[i]))
        mats[i] = np.conj(_slot_lift(xi, F.dim_h)).T @ step @ _slot_lift(eta, F.dim_h)
    acc = _kernels.element_chain(mats, piece_idx)
    return _finite(complex(np.vdot(u, acc @ v) * exp_inner(f, g, t, None)), t)


@np.errstate(over="ignore", invalid="ignore")
def oracle_state_norm(
    F: BlockGenerator,
    v,
    g: StepFunction,
    t: float,
    N: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Norm of the fully resolved discrete state V^(N)_t (v (x) eps_N(g)).

    Builds the complete lattice state vector (dimension dim_h * (1+dim_k)^N,
    checked against ``budget``) and applies the one-slot contraction slot by
    slot.  For equality-case generators (unitary C) the value converges to
    |v| * |eps(g)| from the isometric limit.
    """
    lattice = ToyLattice(n_steps=N, horizon=t)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != F.dim_h:
        raise ValueError(f"state vector has dimension {v.size}, expected {F.dim_h}")
    if g.dim_k != F.dim_k:
        raise ValueError(f"step function has dim_k {g.dim_k}, generator has {F.dim_k}")
    m = 1 + F.dim_k
    required = F.dim_h * m**N
    if required > budget:
        raise MemoryBudgetError(required=required, allowed=budget)
    tau = lattice.tau
    root = np.sqrt(tau)
    state = v.copy()
    for s in lattice.left_endpoints():
        eta = np.concatenate(([1.0 + 0.0j], root * g(s)))
        state = np.kron(state, eta)
    # In the block layout the slot index is slow and the h index fast, so the
    # (dh, m, dh, m) kernel tensor comes from a (m, dh, m, dh) reshape.
    g4 = np.ascontiguousarray(
        step_matrix(F, tau).reshape(m, F.dim_h, m, F.dim_h).transpose(1, 0, 3, 2)
    )
    state = _kernels.slot_apply(state, g4, F.dim_h, m, N)
    return _finite(float(np.linalg.norm(state)), t)
