"""Step functions, exponential-vector inner products, and exact cocycle
matrix elements through the semigroup product decomposition.

Slices are normalized: ``sliced_element`` multiplies the associated
contraction semigroups,

    Q^{f(s_0),g(s_0)}_{dt_0} ... Q^{f(s_m),g(s_m)}_{dt_m},

ordered left-to-right in increasing time over a joint refinement of the jump
times (left cocycle order), with right-continuous evaluation at the
breakpoints; zero-length refinement intervals contribute identity factors.
This is the slice of V_t between NORMALIZED exponential vectors, so it is a
contraction for a contractive generator.  The matrix element between the
unnormalized vectors u eps(f) and v eps(g) is the Q-product element times
the exponential of one log scalar,

    <u, Q-product v> * exp( S(t) + int_t^inf <f(s), g(s)> ds ),
    S(t) = 1/2 int_0^t (|f(s)|^2 + |g(s)|^2) ds,

with log <u, Q-product v> + S(t) exponentiated once, so an element whose
Q-product underflows is an exact 0 rather than 0 * inf.

On a grid of times the cocycle law V_t = V_s sigma_s(V_{t-s}) extends the
product up to one time s to the next time t by the factors of [s, t) alone,
so ``full_matrix_element`` evaluates a whole grid of times in one
left-to-right sweep, and a single time as a grid of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import BlockGenerator
from .opcore import check_count, check_times, check_vector, op_norm
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
        if vals.ndim != 2:
            raise ValueError(f"step function values must be one row per breakpoint, got shape {vals.shape}")
        if bp.size == 0:
            raise ValueError("a step function needs at least one breakpoint")
        if bp[0] != 0.0:
            raise ValueError(f"first breakpoint must be 0, got {bp[0]}")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape[0] != bp.size:
            raise ValueError(
                f"{vals.shape[0]} values for {bp.size} breakpoints"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("step function values must be finite")
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
        return cls(np.zeros(1), np.zeros((1, check_count(dim_k, "dim_k"))), 0.0)

    @classmethod
    def constant(cls, value, end: float) -> "StepFunction":
        value = np.asarray(value, dtype=np.complex128).reshape(1, -1)
        return cls(np.zeros(1), value, end)

    def __call__(self, t: float) -> np.ndarray:
        return self.at(np.array([t]))[0]

    def at(self, times: np.ndarray) -> np.ndarray:
        """Values at an array of times >= 0, one row of length dim_k per time."""
        return self._values(check_times(times, "t"))

    def _values(self, times: np.ndarray) -> np.ndarray:
        """``at`` for a float array of times already known finite and >= 0."""
        out = self.values[np.searchsorted(self.breakpoints, times, side="right") - 1]
        out[times >= self.support_end] = 0.0
        return out

    def shifted(self, r: float) -> "StepFunction":
        """The time-shifted restriction s -> f(r + s)."""
        check_times(r, "r")
        if r >= self.support_end:
            return StepFunction.zero(self.dim_k)
        cuts, vals, _ = _refinement(self, self, r, self.support_end)
        return StepFunction(cuts[:-1] - r, vals, self.support_end - r)

    def reversed_on(self, t: float) -> "StepFunction":
        """Time reversal on [0, t): s -> f(t - s) there, unchanged afterwards.

        This is the step-data action of the reversal operator entering the
        dual cocycle; values at the isolated reflection points follow the
        right-continuous convention.
        """
        check_times(t, "t")
        if t == 0:
            return self
        cuts, vals, _ = _refinement(self, self, 0.0, t)
        bps, vals = t - cuts[:0:-1], vals[::-1]
        if self.support_end > t:
            tail, tail_vals, _ = _refinement(self, self, t, self.support_end)
            bps = np.concatenate((bps, tail[:-1]))
            vals = np.concatenate((vals, tail_vals))
        return StepFunction(bps, vals, max(self.support_end, t))


def _refinement(f: StepFunction, g: StepFunction, a: float, b: float, extra=()):
    """Joint refinement of [a, b] by the jumps of f and g and the ``extra`` cuts.

    Returns the cut points (a, b and every breakpoint or support end of f or g,
    or extra cut, strictly between them, sorted and distinct) and the
    (pieces, dim_k) values of f and of g on each piece [cuts[i], cuts[i+1]).
    """
    jumps = np.concatenate((f.breakpoints, g.breakpoints, (f.support_end, g.support_end), extra))
    cuts = np.sort(np.concatenate(((a, b), jumps[(jumps > a) & (jumps < b)])))
    # Deduplicated by hand: np.unique imports numpy.ma (about 1 MB resident).
    cuts = cuts[np.append(True, np.diff(cuts) > 0)]
    return cuts, f._values(cuts[:-1]), g._values(cuts[:-1])


def exp_inner(
    f: StepFunction, g: StepFunction, a: float | np.ndarray, b: float | None = None
) -> complex | np.ndarray:
    """exp of int_a^b <f(s), g(s)> ds, computed exactly piecewise.

    ``b = None`` means +infinity; the integrand vanishes past both supports.
    A nondecreasing array of starts ``a`` gives the array of factors over
    [a_i, b]: one refinement of [a_0, b] holds every start as a cut, and one
    reversed cumulative sum of its piece integrals gives every exponent.
    """
    if f.dim_k != g.dim_k:
        raise ValueError(f"dimension mismatch: {f.dim_k} vs {g.dim_k}")
    starts = np.reshape(check_times(a, "a"), -1)
    if (starts[1:] < starts[:-1]).any():
        raise ValueError("times must be nondecreasing")
    end = max(f.support_end, g.support_end)
    if b is None:
        b = end
    elif np.isnan(b) or (starts.size and starts[-1] > b):
        raise ValueError(f"interval endpoints out of order: a={a}, b={b}")
    b = min(b, end)
    if not (starts.size and starts[0] < b):
        return np.ones(starts.size, dtype=np.complex128) if np.ndim(a) else 1.0 + 0.0j
    # Past both supports the integrand vanishes, so a start there is b itself.
    starts = np.minimum(starts, b)
    cuts, fv, gv = _refinement(f, g, starts[0], b, starts)
    pieces = np.einsum("pk,pk,p->p", fv.conj(), gv, np.diff(cuts))
    tails = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
    out = np.exp(tails[np.searchsorted(cuts, starts)])
    return out if np.ndim(a) else complex(out[0])


def sliced_element(
    F: BlockGenerator, f: StepFunction, g: StepFunction, t: float | np.ndarray, u=None
) -> np.ndarray:
    """Ordered product of Q-semigroup factors over the joint refinement of [0, t).

    This h-operator is E^{eps(f|[0,t))} V_t E_{eps(g|[0,t))} divided by
    |eps(f|[0,t))| |eps(g|[0,t))|: the normalized slice of V_t between
    exponential vectors, a contraction for a contractive generator.  A
    nondecreasing array of times gives the (len(t), dim_h, dim_h) stack of
    these products: one sweep over one refinement of [0, t[-1]] that holds
    every time as a cut, read off at each time by the cocycle law.  The slice
    of sigma_r(V_t) is that of V_t on the shifted step data ``f.shifted(r)``.

    Given a state vector ``u``, the sweep carries the row u* (Q-product)
    instead of the product itself, dim_h^2 flops per piece in place of
    dim_h^3, and returns one such row per time: (len(t), dim_h), or (dim_h,)
    for a single time.

    The call's one ``SemigroupFamily`` caches Q for this sweep alone; the
    generators of the refinement's distinct slices come from one stacked
    ``slice_generators`` call before the sweep.
    """
    fam = SemigroupFamily(F)
    times = np.reshape(check_times(t, "t"), -1)
    if not np.all(np.diff(times) >= 0):
        raise ValueError("times must be nondecreasing")
    if f.dim_k != F.dim_k or g.dim_k != F.dim_k:
        raise ValueError(
            f"step functions have dim_k {f.dim_k}, {g.dim_k}; generator has {F.dim_k}"
        )
    if u is None:
        prefix = np.eye(F.dim_h, dtype=np.complex128)
    else:
        prefix = check_vector(u, F.dim_h, "u").conj()
    cuts, fv, gv = _refinement(f, g, 0.0, times[-1] if times.size else 0.0, times)
    fam.slice_generators(fv, gv)
    # Rows rows[j]:rows[j+1] of the output are the times at cuts[j]; each gets
    # the product of the factors of the pieces before that cut.
    rows = np.searchsorted(np.searchsorted(cuts, times), np.arange(cuts.size + 1))
    out = np.empty((times.size, *prefix.shape), dtype=np.complex128)
    out[rows[0] : rows[1]] = prefix
    for j, (c, d, h) in enumerate(zip(fv, gv, np.diff(cuts)), start=1):
        prefix = prefix @ fam.q(c, d, h)
        out[rows[j] : rows[j + 1]] = prefix
    return out if np.ndim(t) else out[0]


def _log_norms(f: StepFunction, g: StepFunction, times: np.ndarray) -> np.ndarray:
    """S(t) = log |eps(f|[0,t))| + log |eps(g|[0,t))| at each of the sorted times."""
    cuts, fv, gv = _refinement(f, g, 0.0, times[-1] if times.size else 0.0, times)
    pieces = 0.5 * (np.abs(fv) ** 2 + np.abs(gv) ** 2).sum(axis=1) * np.diff(cuts)
    return np.append(0.0, np.cumsum(pieces))[np.searchsorted(cuts, times)]


def full_matrix_element(
    F: BlockGenerator, u, f: StepFunction, v, g: StepFunction, t
) -> complex | np.ndarray:
    """<u eps(f), V_t v eps(g)> = <u, Q-product v> * exp(S(t)) * tail factor.

    A single time t gives a complex number and a nondecreasing sequence of
    times gives an array, from one sweep: by the cocycle law the Q-product up
    to each time is the product up to the previous time times the factors in
    between, so one ``sliced_element`` sweep and one ``exp_inner`` array serve
    the whole grid.  The sweep carries only the row u* (Q-product), one
    vector-matrix product per piece, and <u, Q-product v> is that row times
    v.  The norms of the exponential vectors enter as one log scalar,
    exp(log <u, Q-product v> + S(t)), so an underflowed Q-product gives an
    exact 0.  Raises ``OverflowError``, naming the first such time,
    when an element is not finite because the unnormalized exponential-vector
    factors overflow.
    """
    u, v = check_vector(u, F.dim_h, "u"), check_vector(v, F.dim_h, "v")
    times = np.asarray(t, dtype=np.float64).reshape(-1)
    rows = sliced_element(F, f, g, times, u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logs = np.log(rows @ v) + _log_norms(f, g, times)
        out = np.exp(logs) * exp_inner(f, g, times, None)
    finite = np.isfinite(out)
    if not finite.all():
        raise OverflowError(
            f"exponential-vector factors overflowed at t={times[np.argmin(finite)]:.6g}: the "
            "matrix element is not finite in double precision"
        )
    return out if np.ndim(t) else complex(out[0])


def cocycle_defect(
    F: BlockGenerator, f: StepFunction, g: StepFunction, r: float, t: float
) -> float:
    """Operator-norm defect of V_{r+t} = V_r sigma_r(V_t) on the (f, g) slice.

    The split side evaluates sigma_r on step data (shift and restrict), so
    both sides are products of the same Q-factors up to refinement; the
    defect measures floating-point error only.  It is taken on the scale of
    the normalized slices, where the exponential-vector norms of [0, r) and
    [r, r+t) multiply to those of [0, r+t).
    """
    check_times(r, "r")
    check_times(t, "t")
    first, whole = sliced_element(F, f, g, [r, r + t])
    second = sliced_element(F, f.shifted(r), g.shifted(r), t)
    return float(op_norm(whole - first @ second))
