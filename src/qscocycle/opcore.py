"""Dense complex linear-algebra primitives shared by the whole package.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``; a
"CMatrix" in the rest of the package is exactly that.  Every routine here
validates finiteness on entry and guarantees finite output, so callers can
chain operations without re-checking.

The package checks each kind of argument here and nowhere else, and names
the argument in every ``ValueError``: times (``check_times``), one time
(``check_time``), a nondecreasing grid of times (``check_grid``), a count
with its lower bound (``check_count``), a state vector (``check_vector``)
and a matrix or a stack of them (``as_cmatrix``).  Bools are neither times
nor counts.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator

import numpy as np

# Scaling-and-squaring refuses inputs beyond this norm rather than returning
# a silently inaccurate (or overflowed) result.
EXP_NORM_LIMIT = 1.0e4

# psd_inv_sqrt's relative Hermiticity tolerance and its smallest eigenvalue.
PSD_TOL = 1e-12

# Pade approximant data for the matrix exponential (diagonal [m/m] forms,
# theta_m = max norm for which the backward error stays below unit roundoff).
_PADE_THETA = (
    (3, 1.495585217958292e-002),
    (5, 2.539398330063230e-001),
    (7, 9.504178996162932e-001),
    (9, 2.097847961257068e000),
    (13, 5.371920351148152e000),
)
# Pade coefficients c_j = (2m - j)! / (j! (m - j)!), so c_m = 1; each quotient
# is exact in integers before it becomes a float.
_PADE_COEFFS = {
    m: tuple(
        float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
        for j in range(m + 1)
    )
    for m, _ in _PADE_THETA
}


# The scalar types ``check_times`` reads without numpy; any other input,
# a bool or an int or float subclass among them, is read as an array.
_SCALAR_TIMES = frozenset((int, float, np.float64))


def check_times(t, name: str, positive: bool = False):
    """``t`` as a float, or a float array for array input, if every time is
    finite and >= 0 (> 0 if ``positive``); a ValueError names the argument and
    its first bad value, a bool among them.  A Python or numpy float makes no
    numpy call, since ``check_time`` reads one time so for each step function
    value, each oracle call and each ``make_probe``.
    """
    scalar = type(t) in _SCALAR_TIMES
    if not scalar and (flag := _first_bool(t)) is not None:
        raise ValueError(f"{name}={flag} must be a time, not a bool")
    x = float(t) if scalar else np.asarray(t, dtype=np.float64)
    ok = ((x > 0.0) if positive else (x >= 0.0)) & (x < math.inf)
    if ok if scalar else ok.all():
        return x
    bad = x if scalar else x[~ok][0]
    raise ValueError(
        f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {name}={bad}"
    )


def _first_bool(t):
    """The first of the times ``t`` that is a bool or a bool array: ``t``
    itself, or an entry of a list or tuple; else None."""
    return next((x for x in (t if isinstance(t, (list, tuple)) else [t])
                 if isinstance(x, bool) or getattr(x, "dtype", None) == np.bool_), None)


def check_time(t, name: str, positive: bool = False) -> float:
    """One time, by ``check_times``, as a float; an array is refused by name."""
    x = check_times(t, name, positive)
    if isinstance(x, float):
        return x
    if x.ndim:
        raise ValueError(f"{name} must be a single time, got an array of shape {x.shape}")
    return float(x)


def check_grid(t, name: str) -> np.ndarray:
    """A grid of times, by ``check_times``, as a flat float array, if nondecreasing;
    a ValueError names the argument and its first decrease."""
    times = np.reshape(check_times(t, name), -1)
    if (down := times[1:] < times[:-1]).any():
        i = int(down.argmax()) + 1
        raise ValueError(
            f"{name} must be nondecreasing, got {name}[{i}]={times[i]} after {name}[{i - 1}]={times[i - 1]}"
        )
    return times


def check_count(value, name: str, low: int = 0) -> int:
    """``operator.index(value)``, if it is at least ``low``; bools are refused,
    and a ValueError names the argument."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name}={value!r} must be an integer")
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_vector(v, size: int, name: str) -> np.ndarray:
    """``v`` flattened to complex128, if it has ``size`` entries, all finite;
    a ValueError names the argument."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != size:
        raise ValueError(f"{name} has dimension {v.size}, expected {size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def as_cmatrix(a, name: str = "matrix", stack: bool = False, square: bool = False) -> np.ndarray:
    """``a`` as a finite complex128 matrix, or a stack of them (ndim >= 2) if
    ``stack``, square if ``square``; a ValueError names the argument."""
    out = np.asarray(a, dtype=np.complex128)
    if not (out.ndim >= 2 if stack else out.ndim == 2):
        raise ValueError(f"{name} must be {'at least ' if stack else ''}2-dimensional, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    if square and out.shape[-2] != out.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(a.mT)


def _exp_norm_measure(a: np.ndarray) -> np.ndarray:
    # max(|a|_1, |a|_inf), per matrix of a stack.  Symmetric in a <-> a*, so
    # mat_exp(a*) picks the same degree and scaling as mat_exp(a) and the
    # adjoint identity holds to roundoff.  One abs pass, then the column and
    # row sums that numpy's norm forms for ord 1 and ord inf: the same
    # add.reduce, so the same bits, and one max over both.  A sum that
    # overflows is inf, also where ``-W error`` raises numpy's overflow warning.
    try:
        x = np.abs(a)
        return np.maximum(x.sum(axis=-2), x.sum(axis=-1)).max(axis=-1)
    except RuntimeWarning:
        return np.full(a.shape[:-2], np.inf)


def _scaling(mu: float) -> int:
    """Squarings s that bring mu under theta_13."""
    return max(0, int(math.ceil(math.log2(mu / _PADE_THETA[-1][1]))))


def _scaling_edge(s: int) -> float:
    """The largest norm that ``_scaling`` sends to s (it sends theta_13 2^s there)."""
    mu = _PADE_THETA[-1][1] * 2.0**s
    while _scaling(math.nextafter(mu, math.inf)) == s:
        mu = math.nextafter(mu, math.inf)
    return mu


# A matrix of norm mu gets the Pade degree m and the squarings s of
# _EXP_KEYS[k] for the first edge _EXP_EDGES[k] >= mu: m = 0 (the [0/0]
# approximant 1) at mu = 0, the first m whose theta_m bounds mu, else m = 13
# with s = _scaling(mu); a norm past the last edge is over the limit.
_S_MAX = _scaling(EXP_NORM_LIMIT)
_EXP_EDGES = (0.0, *(theta for _, theta in _PADE_THETA), *map(_scaling_edge, range(1, _S_MAX)), EXP_NORM_LIMIT)
_EXP_KEYS = ((0, 0), *((m, 0) for m, _ in _PADE_THETA), *((13, s) for s in range(1, _S_MAX + 1)))


@functools.lru_cache(maxsize=32)
def _identity_terms(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(c_1 I, c_0 I)`` of the [m/m] approximant at size n, read-only.

    Full matrices ``c * np.eye(n)``, off-diagonal +0 included, so adding one
    gives the bits that a fresh identity term would; a diagonal-only add
    would not where the sum holds a -0.
    """
    c = _PADE_COEFFS[m]
    eye = np.eye(n, dtype=np.complex128)
    terms = (c[1] * eye, c[0] * eye)
    for term in terms:
        term.flags.writeable = False
    return terms


def _pade_approx(a: np.ndarray, m: int) -> np.ndarray:
    """[m/m] Pade approximant of exp at a matrix or at each matrix of a stack."""
    c = _PADE_COEFFS[m]
    eye_u, eye_v = _identity_terms(a.shape[-1], m)
    a2 = a @ a
    if m < 13:
        # U = A * (odd coefficient polynomial in A^2), V = even polynomial;
        # powers[k] is A^(2k), and the k = 0 terms come from _identity_terms.
        powers = [None, a2]
        for _ in range(2, m // 2 + 1):
            powers.append(powers[-1] @ a2)
        # Each sum starts from its highest term and adds the others in the
        # order that a sum started from zero would, the identity term last.
        u = c[m] * powers[-1]
        for j in range(m - 2, 1, -2):
            u += c[j] * powers[(j - 1) // 2]
        u += eye_u
        u = a @ u
        v = c[m - 1] * powers[-1]
        for j in range(m - 3, 0, -2):
            v += c[j] * powers[j // 2]
        v += eye_v
    else:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (
            a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
            + c[7] * a6
            + c[5] * a4
            + c[3] * a2
            + eye_u
        )
        v = (
            a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
            + c[6] * a6
            + c[4] * a4
            + c[2] * a2
            + eye_v
        )
    return np.linalg.solve(v - u, v + u)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential: ``mat_exp_stack`` of a stack with no leading axes.

    Accurate to ~1e-13 relative error for norms up to ~10; inputs with norm
    beyond ``EXP_NORM_LIMIT`` are rejected outright.
    """
    if np.ndim(a) != 2:
        as_cmatrix(a, "mat_exp input", square=True)  # raises: wrong shape
    return mat_exp_stack(a)


def mat_exp_stack(a) -> np.ndarray:
    """exp of each matrix of an (..., n, n) stack: the package's one matrix
    exponential, by Pade approximation with scaling and squaring.

    Each matrix gets its Pade degree m and squarings s from ``_PADE_THETA``
    and ``_scaling`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31
    (2009)); the matrices of one (m, s) are approximated and squared
    together, and when all share one the input is used as given.  The norm
    is the finiteness check: only a non-finite norm has the entries read, to
    name the fault.  Squarings that overflow raise ``OverflowError``.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        as_cmatrix(a, "mat_exp input", stack=True, square=True)  # raises: wrong shape
    if a.size == 0:
        return a.copy()
    mu = _exp_norm_measure(a).ravel()
    norms = mu.tolist()
    top = max(norms)
    if not top <= EXP_NORM_LIMIT or math.isnan(sum(norms)):  # max skips a NaN
        as_cmatrix(a, "mat_exp input", stack=True)  # raises if an entry is not finite
        raise OverflowError(f"mat_exp input norm {top:.4g} exceeds the supported limit {EXP_NORM_LIMIT:.0e}")
    # (m, s) grows with the norm, so the smallest and largest norms share
    # their slot only when every norm does.
    slot = bisect.bisect_left(_EXP_EDGES, top)
    if slot == bisect.bisect_left(_EXP_EDGES, min(norms)):
        groups = [(slot, None)]
    else:
        slots = np.searchsorted(_EXP_EDGES, mu)
        groups = [(k, np.flatnonzero(slots == k)) for k in np.flatnonzero(np.bincount(slots)).tolist()]
        flat = a.reshape(-1, *a.shape[-2:])
        out = np.empty_like(flat)
    for slot, pick in groups:
        m, s = _EXP_KEYS[slot]
        x = a if pick is None else flat[pick]
        if m == 0:
            f = np.zeros_like(x) + np.eye(a.shape[-1], dtype=np.complex128)
        else:
            f = _pade_approx(x / 2.0**s if s else x, m)
        if s:
            with np.errstate(over="ignore", invalid="ignore"):  # only squarings overflow
                for _ in range(s):
                    f = f @ f
            if not np.isfinite(f).all():
                raise OverflowError(f"mat_exp squarings overflowed: exp at input norm {top:.4g} is not finite")
        if pick is None:
            return f
        out[pick] = f
    return out.reshape(a.shape)


def op_norm(a) -> float:
    """Operator (largest singular value) norm; works for rectangular input."""
    return float(_largest_sv(as_cmatrix(a, "op_norm input")))


def op_norm_stack(a) -> np.ndarray:
    """``op_norm`` of each matrix of an (..., m, n) stack, as one ``svd`` call."""
    return _largest_sv(as_cmatrix(a, "op_norm input", stack=True))


def _largest_sv(a: np.ndarray) -> np.ndarray:
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def max_herm_eig(a) -> float:
    """Largest eigenvalue of the Hermitian part (a + a*)/2."""
    a = as_cmatrix(a, "max_herm_eig input", square=True)
    if a.shape[0] == 0:
        return 0.0
    herm = 0.5 * (a + adjoint(a))
    return float(np.linalg.eigvalsh(herm)[-1])


def _psd_parts(a: np.ndarray):
    """Roots, Hermiticity defects and verdicts, and smallest eigenvalues of a stack.

    One ``eigh`` of the Hermitian parts serves both tests: the largest
    |eigenvalue| is the scale, and the defect |a - a*| is taken in the
    Frobenius norm, which bounds the operator norm from above.  A matrix that
    fails either test gets a zero root.
    """
    a_star = adjoint(a)
    w, u = np.linalg.eigh(0.5 * (a + a_star))
    if a.shape[-1]:
        low = w[..., 0]
        scale = np.maximum(1.0, np.maximum(-low, w[..., -1]))
    else:
        low = np.full(a.shape[:-2], np.inf)
        scale = np.ones(a.shape[:-2])
    d = a - a_star  # np.linalg.norm's Frobenius formula, without its call
    herm_defect = np.sqrt(np.add.reduce((d.conj() * d).real, axis=(-2, -1)))
    herm_ok = herm_defect <= PSD_TOL * scale
    ok = herm_ok & (low > PSD_TOL)
    all_ok = ok.all()
    w_root = w if all_ok else np.where(ok[..., None], w, 1.0)
    x = (u * (w_root**-0.5)[..., None, :]) @ adjoint(u)
    x = 0.5 * (x + adjoint(x))
    if not all_ok:
        x[~ok] = 0.0
    return x, ok, herm_ok, herm_defect, low


def psd_inv_sqrt(a) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite matrix.

    Returns Hermitian ``x`` with ``x @ a @ x = I``.  Raises if ``a`` is not
    Hermitian within ``PSD_TOL`` (relative) or has an eigenvalue <= ``PSD_TOL``;
    the Schur screen reports a probe whose weights fail here as skipped.
    """
    x, ok, herm_ok, herm_defect, low = _psd_parts(as_cmatrix(a, "psd_inv_sqrt input", square=True))
    if not herm_ok:
        raise ValueError(
            f"psd_inv_sqrt input is not Hermitian (defect {herm_defect:.3g})"
        )
    if not ok:
        raise ValueError(
            f"psd_inv_sqrt input has eigenvalue {low:.3g} <= tol {PSD_TOL:.3g}"
        )
    return x


def psd_inv_sqrt_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """``psd_inv_sqrt`` of each matrix of an (..., n, n) stack, without raising.

    Returns ``(roots, ok)``: ``ok`` is False exactly where ``psd_inv_sqrt``
    would raise, and the root there is zero.
    """
    x, ok, _, _, _ = _psd_parts(as_cmatrix(a, "psd_inv_sqrt input", stack=True, square=True))
    return x, ok
