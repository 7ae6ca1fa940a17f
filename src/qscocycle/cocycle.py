"""Step functions, exponential-vector inner products, and exact cocycle
matrix elements through the semigroup product decomposition.

Working convention: UNNORMALIZED exponential vectors.  The matrix element
between u eps(f) and V_t v eps(g) is

    <u, P^{f(s_0),g(s_0)}_{dt_0} ... P^{f(s_m),g(s_m)}_{dt_m} v>
        * exp( int_t^inf <f(s), g(s)> ds )

with the product ordered left-to-right in increasing time over a joint
refinement of the jump times (left cocycle order), and right-continuous
evaluation at the breakpoints.  Zero-length refinement intervals contribute
identity factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import BlockGenerator
from .opcore import op_norm
from .semigroups import SemigroupFamily


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant k-valued function, compact support.

    Value ``values[i]`` holds on [breakpoints[i], breakpoints[i+1]) and the
    last value on [breakpoints[-1], support_end); zero from support_end on.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    support_end: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64).reshape(-1)
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1) if vals.size else vals.reshape(0, 0)
        if bp.size == 0:
            raise ValueError("a step function needs at least one breakpoint")
        if bp[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0, got {bp[0]}")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if vals.shape[0] != bp.size:
            raise ValueError(
                f"{vals.shape[0]} values for {bp.size} breakpoints"
            )
        end = float(self.support_end)
        if not np.isfinite(end) or end < bp[-1]:
            raise ValueError(
                f"support_end {end} must be finite and >= last breakpoint {bp[-1]}"
            )
        bp.flags.writeable = False
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support_end", end)

    @property
    def dim_k(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zero(cls, dim_k: int) -> "StepFunction":
        return cls(np.zeros(1), np.zeros((1, dim_k)), 0.0)

    @classmethod
    def constant(cls, value, end: float) -> "StepFunction":
        value = np.asarray(value, dtype=np.complex128).reshape(1, -1)
        return cls(np.zeros(1), value, end)

    def __call__(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError(f"step functions live on t >= 0, got {t}")
        if t >= self.support_end:
            return np.zeros(self.dim_k, dtype=np.complex128)
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return self.values[idx]

    def shifted(self, r: float) -> "StepFunction":
        """The time-shifted restriction s -> f(r + s)."""
        if r < 0:
            raise ValueError(f"shift must be nonnegative, got {r}")
        end = max(self.support_end - r, 0.0)
        if end == 0.0:
            return StepFunction.zero(self.dim_k)
        bps = [0.0]
        vals = [self(r)]
        for b in self.breakpoints:
            s = b - r
            if 0.0 < s < end:
                bps.append(s)
                vals.append(self(b))
        return StepFunction(np.array(bps), np.array(vals), end)

    def reversed_on(self, t: float) -> "StepFunction":
        """Time reversal on [0, t): s -> f(t - s) there, unchanged afterwards.

        This is the step-data action of the reversal operator entering the
        dual cocycle; values at the isolated reflection points follow the
        right-continuous convention.
        """
        if t < 0:
            raise ValueError(f"reversal horizon must be nonnegative, got {t}")
        if t == 0:
            return self
        cuts = {0.0, t}
        cuts.update(b for b in self.breakpoints if 0.0 < b < t)
        if 0.0 < self.support_end < t:
            cuts.add(float(self.support_end))
        cuts = sorted(cuts)
        bps, vals = [], []
        for upper, lower in zip(reversed(cuts[1:]), reversed(cuts[:-1])):
            bps.append(t - upper)
            vals.append(self(lower))
        if self.support_end > t:
            bps.append(t)
            vals.append(self(t))
            for b in self.breakpoints:
                if b > t:
                    bps.append(float(b))
                    vals.append(self(b))
        end = max(self.support_end, t)
        return StepFunction(np.array(bps), np.array(vals), end)


@dataclass(frozen=True)
class SlicedOperator:
    """E^{eps(f|[0,t))} V_t E_{eps(g|[0,t))} as an h-operator."""

    matrix: np.ndarray
    f: StepFunction
    g: StepFunction
    t: float


def _cut_points(f: StepFunction, g: StepFunction, a: float, b: float) -> np.ndarray:
    pts = {a, b}
    for fn in (f, g):
        pts.update(x for x in fn.breakpoints if a < x < b)
        if a < fn.support_end < b:
            pts.add(float(fn.support_end))
    return np.array(sorted(pts))


def exp_inner(f: StepFunction, g: StepFunction, a: float, b: float | None = None) -> complex:
    """exp of int_a^b <f(s), g(s)> ds, computed exactly piecewise.

    ``b = None`` means +infinity; the integrand vanishes past both supports.
    """
    if f.dim_k != g.dim_k:
        raise ValueError(f"dimension mismatch: {f.dim_k} vs {g.dim_k}")
    if b is None:
        b = max(f.support_end, g.support_end, a)
    if a > b:
        raise ValueError(f"interval endpoints out of order: {a} > {b}")
    b = min(b, max(f.support_end, g.support_end))
    if b <= a:
        return 1.0 + 0.0j
    cuts = _cut_points(f, g, a, b)
    total = 0.0 + 0.0j
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += np.vdot(f(lo), g(lo)) * (hi - lo)
    return complex(np.exp(total))


def _family(source) -> SemigroupFamily:
    if isinstance(source, SemigroupFamily):
        return source
    if isinstance(source, BlockGenerator):
        return SemigroupFamily(source)
    raise TypeError(f"expected a BlockGenerator or SemigroupFamily, got {type(source)}")


def sliced_element(source, f: StepFunction, g: StepFunction, t: float) -> SlicedOperator:
    """Ordered product of P-semigroup factors over the joint refinement of [0, t)."""
    fam = _family(source)
    F = fam.source
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if f.dim_k != F.dim_k or g.dim_k != F.dim_k:
        raise ValueError(
            f"step functions have dim_k {f.dim_k}, {g.dim_k}; generator has {F.dim_k}"
        )
    out = np.eye(F.dim_h, dtype=np.complex128)
    if t > 0:
        cuts = _cut_points(f, g, 0.0, t)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                out = out @ fam.p(f(lo), g(lo), hi - lo)
    return SlicedOperator(matrix=out, f=f, g=g, t=float(t))


def full_matrix_element(source, u, f: StepFunction, v, g: StepFunction, t: float) -> complex:
    """<u eps(f), V_t v eps(g)> = <u, (P-product) v> * tail integral factor.

    Raises ``OverflowError`` when the unnormalized exponential-vector factors
    overflow, instead of returning inf or nan.
    """
    fam = _family(source)
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if u.size != fam.source.dim_h or v.size != fam.source.dim_h:
        raise ValueError(
            f"state vectors have dimensions {u.size}, {v.size}; expected {fam.source.dim_h}"
        )
    sliced = sliced_element(fam, f, g, t)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.vdot(u, sliced.matrix @ v) * exp_inner(f, g, t, None))
    if not np.isfinite(value):
        raise OverflowError(
            f"exponential-vector factors overflowed at t={t:.6g}: the matrix "
            "element is not finite in double precision"
        )
    return value


def cocycle_defect(source, f: StepFunction, g: StepFunction, r: float, t: float) -> float:
    """Operator-norm defect of V_{r+t} = V_r sigma_r(V_t) on the (f, g) slice.

    The split side evaluates sigma_r on step data (shift and restrict), so
    both sides are products of the same P-factors up to refinement; the
    defect measures floating-point error only.  The common tail factor over
    [r+t, inf) is included so the value is on the matrix-element scale.
    """
    if r < 0 or t < 0:
        raise ValueError(f"times must be nonnegative, got r={r}, t={t}")
    fam = _family(source)
    whole = sliced_element(fam, f, g, r + t).matrix
    first = sliced_element(fam, f, g, r).matrix
    second = sliced_element(fam, f.shifted(r), g.shifted(r), t).matrix
    tail = abs(exp_inner(f, g, r + t, None))
    return float(op_norm(whole - first @ second) * tail)


def _basis(dim_k: int) -> list[np.ndarray]:
    out = []
    for i in range(dim_k):
        e = np.zeros(dim_k, dtype=np.complex128)
        e[i] = 1.0
        out.append(e)
    return out


def t_operator_fd(source, d, t: float) -> np.ndarray:
    """Finite-difference recovery of T_d = L + C E_d from P-semigroup slopes.

    Channel block a is (P^{e_a,d}_t - P^{0,d}_t) / t; converges with O(t)
    error as t -> 0 in this bounded setting.  The same limits could be read
    off a one-particle-sector construction; only the semigroup-difference
    route is implemented here.
    """
    if t <= 0:
        raise ValueError(f"finite-difference step must be positive, got {t}")
    fam = _family(source)
    F = fam.source
    d = np.asarray(d, dtype=np.complex128).reshape(-1)
    zero = np.zeros(F.dim_k, dtype=np.complex128)
    base = fam.p(zero, d, t)
    out = np.zeros((F.dim_h * F.dim_k, F.dim_h), dtype=np.complex128)
    for a, e in enumerate(_basis(F.dim_k)):
        out[a * F.dim_h : (a + 1) * F.dim_h] = (fam.p(e, d, t) - base) / t
    return out


def c_operator_fd(source, t: float) -> np.ndarray:
    """Finite-difference recovery of C from second differences of P-semigroups.

    Block (a, b) is (P^{e_a,e_b}_t - P^{e_a,0}_t - P^{0,e_b}_t + P^{0,0}_t)/t.
    """
    if t <= 0:
        raise ValueError(f"finite-difference step must be positive, got {t}")
    fam = _family(source)
    F = fam.source
    dh = F.dim_h
    zero = np.zeros(F.dim_k, dtype=np.complex128)
    basis = _basis(F.dim_k)
    p00 = fam.p(zero, zero, t)
    out = np.zeros((dh * F.dim_k, dh * F.dim_k), dtype=np.complex128)
    for a, ea in enumerate(basis):
        pa0 = fam.p(ea, zero, t)
        for b, eb in enumerate(basis):
            p0b = fam.p(zero, eb, t)
            pab = fam.p(ea, eb, t)
            out[a * dh : (a + 1) * dh, b * dh : (b + 1) * dh] = (
                pab - pa0 - p0b + p00
            ) / t
    return out
