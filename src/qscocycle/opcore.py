"""Dense complex linear-algebra primitives shared by the whole package.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``; a
"CMatrix" in the rest of the package is exactly that.  Every routine here
validates finiteness on entry and guarantees finite output, so callers can
chain operations without re-checking.  ``check_times``, ``check_count`` and
``check_vector`` are the package's one check of a time, of a count and of a
state vector.
"""

from __future__ import annotations

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


def check_times(t, name: str, positive: bool = False):
    """``t`` as a float, or a float array for array input, if every time is
    finite and >= 0 (> 0 if ``positive``); a ValueError names the argument and
    its first bad value.  A Python or numpy float makes no numpy call, since
    ``SemigroupFamily`` checks the time of every lookup.
    """
    scalar = isinstance(t, (int, float))
    x = float(t) if scalar else np.asarray(t, dtype=np.float64)
    ok = ((x > 0.0) if positive else (x >= 0.0)) & (x < math.inf)
    if ok if scalar else ok.all():
        return x
    bad = x if scalar else x[~ok][0]
    raise ValueError(
        f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {name}={bad}"
    )


def check_count(value, name: str) -> int:
    """``operator.index(value)``, bools refused; a ValueError names the argument."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name}={value!r} must be an integer")
    return operator.index(value)


def check_vector(v, size: int, name: str) -> np.ndarray:
    """``v`` flattened to complex128, if it has ``size`` entries, all finite;
    a ValueError names the argument."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != size:
        raise ValueError(f"{name} has dimension {v.size}, expected {size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, raising on anything else."""
    out = np.asarray(a, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _as_cstack(a, name: str) -> np.ndarray:
    """Coerce to a finite complex128 array of ndim >= 2: a stack of matrices."""
    out = np.asarray(a, dtype=np.complex128)
    if not out.ndim >= 2:
        raise ValueError(f"{name} must be at least 2-dimensional, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _as_square(a, name: str, stack: bool = False) -> np.ndarray:
    out = _as_cstack(a, name) if stack else as_cmatrix(a, name)
    if out.shape[-2] != out.shape[-1]:
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
    # add.reduce, so the same bits.  A sum that overflows is inf, also where
    # ``-W error`` raises numpy's overflow warning.
    try:
        x = np.abs(a)
        return np.maximum(x.sum(axis=-2).max(axis=-1), x.sum(axis=-1).max(axis=-1))
    except RuntimeWarning:
        return np.full(a.shape[:-2], np.inf)


def _norm_overflow(mu: float) -> OverflowError:
    return OverflowError(
        f"mat_exp input norm {mu:.4g} exceeds the supported limit {EXP_NORM_LIMIT:.0e}"
    )


def _scaling(mu: float) -> int:
    """Squarings s that bring mu under theta_13."""
    return max(0, int(math.ceil(math.log2(mu / _PADE_THETA[-1][1]))))


def _scalings(mu: np.ndarray) -> np.ndarray:
    """``_scaling`` of each norm of a stack, in one numpy pass.  Where log2
    lands within 1e-12 of an integer, numpy's and math's log2 may round to
    either side of it, so ``_scaling`` decides there."""
    e = np.log2(mu / _PADE_THETA[-1][1])
    s = np.maximum(np.ceil(e), 0.0).astype(int)
    for k in np.flatnonzero(np.abs(e - np.rint(e)) < 1e-12):
        s[k] = _scaling(mu[k])
    return s


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
    """Matrix exponential by Pade approximation with scaling and squaring.

    Accurate to ~1e-13 relative error for norms up to ~10; inputs with norm
    beyond ``EXP_NORM_LIMIT`` are rejected outright.  The norm is the
    finiteness check: a NaN or infinite entry makes it non-finite, and only
    then are the entries looked at, to name the fault.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        _as_square(a, "mat_exp input")  # raises: wrong shape
    n = a.shape[0]
    if n == 0:
        return a.copy()
    mu = _exp_norm_measure(a)
    if not mu <= EXP_NORM_LIMIT:
        as_cmatrix(a, "mat_exp input")  # raises if an entry is not finite
        raise _norm_overflow(mu)
    if mu == 0.0:
        return np.eye(n, dtype=np.complex128)
    for m, theta in _PADE_THETA:
        if mu <= theta:
            return _pade_approx(a, m)
    s = _scaling(mu)
    f = _pade_approx(a / (2.0**s), 13)
    for _ in range(s):
        f = f @ f
    return f


def mat_exp_stack(a) -> np.ndarray:
    """``mat_exp`` of each matrix of an (..., n, n) stack, one numpy call per step.

    Each matrix gets its own Pade degree m and scaling exponent s from
    ``_PADE_THETA``, as in ``mat_exp`` (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31 (2009)): the matrices of one degree are approximated together,
    and squaring step k squares only the matrices with s > k.  The same
    finiteness check and ``EXP_NORM_LIMIT`` apply to every matrix.
    """
    a = _as_square(a, "mat_exp input", stack=True)
    flat = a.reshape(-1, *a.shape[-2:])
    if flat.size == 0:
        return a.copy()
    mu = _exp_norm_measure(flat)
    if mu.max() > EXP_NORM_LIMIT:
        raise _norm_overflow(mu.max())
    thetas = [theta for _, theta in _PADE_THETA]
    # The first degree whose theta bounds mu; len(thetas) means scaled m = 13.
    slot = np.searchsorted(thetas, mu)
    s = np.zeros(len(flat), dtype=int)
    scaled = np.flatnonzero(slot == len(thetas))
    s[scaled] = _scalings(mu[scaled])
    slot[scaled] = len(thetas) - 1
    out = np.empty_like(flat)
    out[mu == 0.0] = np.eye(a.shape[-1])
    for k, (m, _) in enumerate(_PADE_THETA):
        pick = np.flatnonzero((slot == k) & (mu > 0.0))
        if pick.size:
            out[pick] = _pade_approx(flat[pick] / (2.0 ** s[pick])[:, None, None], m)
    for k in range(s.max()):
        pick = np.flatnonzero(s > k)
        out[pick] = out[pick] @ out[pick]
    return out.reshape(a.shape)


def op_norm(a) -> float:
    """Operator (largest singular value) norm; works for rectangular input."""
    return float(_largest_sv(as_cmatrix(a, "op_norm input")))


def op_norm_stack(a) -> np.ndarray:
    """``op_norm`` of each matrix of an (..., m, n) stack, as one ``svd`` call."""
    return _largest_sv(_as_cstack(a, "op_norm input"))


def _largest_sv(a: np.ndarray) -> np.ndarray:
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def max_herm_eig(a) -> float:
    """Largest eigenvalue of the Hermitian part (a + a*)/2."""
    a = _as_square(a, "max_herm_eig input")
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
    x, ok, herm_ok, herm_defect, low = _psd_parts(_as_square(a, "psd_inv_sqrt input"))
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
    x, ok, _, _, _ = _psd_parts(_as_square(a, "psd_inv_sqrt input", stack=True))
    return x, ok
