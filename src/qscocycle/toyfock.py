"""Repeated-interaction (toy Fock) oracle for cross-validating the engine.

The continuous noise is replaced by N interaction slots, each a copy of
C + k.  One slot carries the first-order Euler step

    G_tau = [ I + tau K   sqrt(tau) M ]
            [ sqrt(tau) L   C        ]

(quantum Ito scaling: time block tau, creation/annihilation sqrt(tau), gauge
untouched).  Deliberately no matrix exponential anywhere in this module: the
oracle must not share numerical kernels with the semigroup engine it checks,
and takes only the argument checks from ``opcore``.

Discrete exponential vectors use the unnormalized slot components
(1, sqrt(tau) f(s_j)) sampled at left endpoints s_j, matching the
right-continuity of ``StepFunction``.  New slots multiply the accumulated
h-operator on the right, which realizes the left functional equation
V_{r+t} = V_r sigma_r(V_t) on the lattice exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cocycle import StepFunction, exp_inner
from .generator import BlockGenerator
from .opcore import check_count, check_times


@dataclass(frozen=True)
class ToyLattice:
    n_steps: int
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "n_steps", check_count(self.n_steps, "n_steps"))
        if not self.n_steps >= 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_steps > 2**53:
            # Past 2**53 the slot times tau * j are no longer distinct doubles.
            raise ValueError(f"n_steps={self.n_steps} is above 2**53, where slot times stop being distinct")
        check_times(self.horizon, "horizon", positive=True)

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    def runs(self, *fns: StepFunction) -> tuple[np.ndarray, list[np.ndarray]]:
        """Run lengths, and each fn's slot components (1, sqrt(tau) fn(s_j)) per run.

        A run of slots starts wherever the row of values of ``fns`` changes.
        A value can change only at the first slot j with tau * j >= b for a
        breakpoint or support end b, so each fn is evaluated once, at those
        slots: O(pieces) work, and no array of all n_steps slot times.
        """
        jumps = {0.0}.union(*(fn.breakpoints.tolist() + [fn.support_end] for fn in fns))
        slots = np.array(sorted({j for j in map(self._first_slot, jumps) if j < self.n_steps}))
        values = [fn.at(self.tau * slots) for fn in fns]
        # Equal neighbouring pieces stay one run: splitting it would change the power's rounding.
        changed = np.logical_or.reduce([(v[1:] != v[:-1]).any(axis=1) for v in values])
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
        one, root = np.ones((starts.size, 1)), np.sqrt(self.tau)
        counts = np.diff(slots[starts], append=self.n_steps)
        return counts, [np.hstack([one, root * v[starts]]) for v in values]

    def _first_slot(self, t: float) -> int:
        """First slot j with tau * j >= t >= 0, or n_steps if there is none.

        ceil(t / tau) can miss it by a slot either way in float arithmetic;
        stepping until tau * (j - 1) < t <= tau * j holds, or j meets 0 or
        n_steps, makes it exact.  tau underflows to 0 only for a tiny horizon.
        """
        tau, n = self.tau, self.n_steps
        j = math.ceil(min(t / tau, n)) if tau else n * (t > 0)
        while j > 0 and tau * (j - 1) >= t:
            j -= 1
        while j < n and tau * j < t:
            j += 1
        return j


def step_matrix(F: BlockGenerator, tau: float) -> np.ndarray:
    """One-slot interaction matrix G_tau on h (x) (C + k)."""
    check_times(tau, "tau", positive=True)
    root, dh = np.sqrt(tau), F.dim_h
    out = np.empty((F.total_dim, F.total_dim), dtype=np.complex128)
    out[:dh, :dh] = np.eye(dh) + tau * F.K
    out[:dh, dh:] = root * F.M
    out[dh:, :dh] = root * F.L
    out[dh:, dh:] = F.C
    return out


def _lattice(F: BlockGenerator, t: float, N: int, *fns: StepFunction):
    """The oracles' shared preamble: ``t`` and ``N`` checked by name, then the
    run counts and slot components of ``fns`` on the N-slot lattice of [0, t),
    and the step matrix as a (m, dh, m, dh) tensor with m = 1 + dim_k."""
    check_times(t, "t", positive=True)
    lattice = ToyLattice(n_steps=check_count(N, "N"), horizon=t)
    if any(fn.dim_k != F.dim_k for fn in fns):
        dims = ", ".join(str(fn.dim_k) for fn in fns)
        raise ValueError(f"step functions have dim_k {dims}; generator has {F.dim_k}")
    counts, slots = lattice.runs(*fns)
    m, dh = 1 + F.dim_k, F.dim_h
    return counts, slots, step_matrix(F, lattice.tau).reshape(m, dh, m, dh)


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
    counts, (xi, eta), g4 = _lattice(F, t, N, f, g)
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if u.size != F.dim_h or v.size != F.dim_h:
        raise ValueError(f"state vectors have dimensions {u.size}, {v.size}; expected {F.dim_h}")
    acc = _kernels.element_chain(np.einsum("ra,rb,apbq->rpq", xi.conj(), eta, g4), counts)
    return _finite(complex(np.vdot(u, acc @ v) * exp_inner(f, g, t, None)), t)


@np.errstate(over="ignore", invalid="ignore")
def oracle_state_norm(F: BlockGenerator, v, g: StepFunction, t: float, N: int) -> float:
    """Norm of the fully resolved discrete state V^(N)_t (v (x) eps_N(g)).

    Each slot meets the one-slot step once, while it still holds its product
    vector eta_j = (1, sqrt(tau) g(s_j)), so the squared norm is the trace of
    the h-marginal carried from rho = |v><v| through slots N down to 1 by
    rho <- Tr_slot[G (rho (x) |eta_j><eta_j|) G*].  A run of equal g is one map's
    power, taken by squaring where that costs fewer flops than the run's slots.
    For equality-case generators (unitary C) the value converges to
    |v| * |eps(g)| from the isometric limit.
    """
    counts, (etas,), g4 = _lattice(F, t, N, g)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != F.dim_h:
        raise ValueError(f"state vector has dimension {v.size}, expected {F.dim_h}")
    rho = _kernels.slot_apply(np.outer(v, v.conj()), g4, etas, counts)
    return _finite(float(np.sqrt(abs(np.trace(rho).real))), t)
