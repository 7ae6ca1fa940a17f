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
from bisect import bisect_right

import numpy as np

from . import _kernels
from .cocycle import StepFunction, exp_inner
from .generator import BlockGenerator
from .opcore import check_count, check_times, check_vector


def _runs(tau: float, n: int, *fns: StepFunction) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run lengths on n slots of width tau, and each fn's (1, sqrt(tau) fn(s_j)) per run.

    A run of slots starts wherever the row of values of ``fns`` changes.
    A value can change only at the first slot j with tau * j >= b for a
    breakpoint or support end b, so each fn is read once, at those slots, by
    bisecting Python lists: O(pieces) work, and no array of all n slot times.
    Numpy holds only the components.
    """
    tables = [(fn.breakpoints.tolist(), fn.values.tolist(), fn.support_end) for fn in fns]
    jumps = {0.0}.union(*(bps + [end] for bps, _, end in tables))
    slots = sorted({j for j in (_first_slot(b, tau, n) for b in jumps) if j < n})
    rows = [[vals[bisect_right(bps, tau * j) - 1] if tau * j < end else [0j] * len(vals[0]) for j in slots]
            for bps, vals, end in tables]
    # Equal neighbouring pieces stay one run: splitting it would change the power's rounding.
    starts = [i for i in range(len(slots)) if not i or any(r[i] != r[i - 1] for r in rows)]
    bounds = [slots[i] for i in starts] + [n]
    counts = np.array([end - start for start, end in zip(bounds, bounds[1:])])
    out = []
    for r in rows:
        comps = np.array([[1.0, *r[i]] for i in starts], dtype=np.complex128)
        comps[:, 1:] *= math.sqrt(tau)
        out.append(comps)
    return counts, out


def _first_slot(t: float, tau: float, n: int) -> int:
    """First slot j with tau * j >= t >= 0, or n if there is none.

    ceil(t / tau) can miss it by a slot either way in float arithmetic;
    stepping until tau * (j - 1) < t <= tau * j holds, or j meets 0 or
    n, makes it exact.  tau underflows to 0 only for a tiny horizon.
    """
    j = math.ceil(min(t / tau, n)) if tau else n * (t > 0)
    while j > 0 and tau * (j - 1) >= t:
        j -= 1
    while j < n and tau * j < t:
        j += 1
    return j


def step_matrix(F: BlockGenerator, tau: float) -> np.ndarray:
    """One-slot interaction matrix G_tau on h (x) (C + k)."""
    check_times(tau, "tau", positive=True)
    root, dh = math.sqrt(tau), F.dim_h
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
    if getattr(check_times(t, "t", positive=True), "ndim", 0):
        raise ValueError(f"t must be a single time, got an array of shape {np.shape(t)}")
    N = check_count(N, "N")
    if not N >= 1:
        raise ValueError("N must be >= 1")
    if N > 2**53:
        # Past 2**53 the slot times tau * j are no longer distinct doubles.
        raise ValueError(f"N={N} is above 2**53, where slot times stop being distinct")
    if any(fn.dim_k != F.dim_k for fn in fns):
        dims = ", ".join(str(fn.dim_k) for fn in fns)
        raise ValueError(f"step functions have dim_k {dims}; generator has {F.dim_k}")
    if not (tau := float(t) / N):
        raise ValueError(f"t={float(t)} over N={N} slots underflows the slot width t / N to 0")
    counts, slots = _runs(tau, N, *fns)
    m, dh = 1 + F.dim_k, F.dim_h
    return counts, slots, step_matrix(F, tau).reshape(m, dh, m, dh)


def _finite(value, t: float):
    """``value``, or an ``OverflowError`` naming ``t`` when it is not finite."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
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
    u, v = check_vector(u, F.dim_h, "u"), check_vector(v, F.dim_h, "v")
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
    v = check_vector(v, F.dim_h, "v")
    rho = _kernels.slot_apply(np.outer(v, v.conj()), g4, etas, counts)
    return _finite(math.sqrt(abs(rho.trace().real)), t)
