"""Dense complex linear-algebra primitives shared by the whole package.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``; a
"CMatrix" in the rest of the package is exactly that.  Every routine here
validates finiteness on entry and guarantees finite output, so callers can
chain operations without re-checking.
"""

from __future__ import annotations

import math

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


def as_cmatrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, raising on anything else."""
    out = np.asarray(a, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _as_square(a, name: str) -> np.ndarray:
    out = as_cmatrix(a, name)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def _exp_norm_measure(a: np.ndarray) -> float:
    # Symmetric in a <-> a*, so mat_exp(a*) picks the same degree and scaling
    # as mat_exp(a) and the adjoint identity holds to roundoff.
    if a.size == 0:
        return 0.0
    n1 = float(np.linalg.norm(a, 1))
    ninf = float(np.linalg.norm(a, np.inf))
    return max(n1, ninf)


def _pade_approx(a: np.ndarray, m: int) -> np.ndarray:
    n = a.shape[0]
    c = _PADE_COEFFS[m]
    eye = np.eye(n, dtype=np.complex128)
    if m < 13:
        # U = A * (odd coefficient polynomial in A^2), V = even polynomial.
        a2 = a @ a
        powers = [eye, a2]
        for _ in range(2, m // 2 + 1):
            powers.append(powers[-1] @ a2)
        u = np.zeros_like(a)
        v = np.zeros_like(a)
        for j in range(m, 0, -2):
            u += c[j] * powers[(j - 1) // 2]
        u = a @ u
        for j in range(m - 1, -1, -2):
            v += c[j] * powers[j // 2]
    else:
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (
            a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
            + c[7] * a6
            + c[5] * a4
            + c[3] * a2
            + c[1] * eye
        )
        v = (
            a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
            + c[6] * a6
            + c[4] * a4
            + c[2] * a2
            + c[0] * eye
        )
    return np.linalg.solve(v - u, v + u)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by Pade approximation with scaling and squaring.

    Accurate to ~1e-13 relative error for norms up to ~10; inputs with norm
    beyond ``EXP_NORM_LIMIT`` are rejected outright.
    """
    a = _as_square(a, "mat_exp input")
    if a.shape[0] == 0:
        return a.copy()
    mu = _exp_norm_measure(a)
    if mu > EXP_NORM_LIMIT:
        raise OverflowError(
            f"mat_exp input norm {mu:.4g} exceeds the supported limit {EXP_NORM_LIMIT:.0e}"
        )
    if mu == 0.0:
        return np.eye(a.shape[0], dtype=np.complex128)
    for m, theta in _PADE_THETA:
        if mu <= theta:
            return _pade_approx(a, m)
    theta13 = _PADE_THETA[-1][1]
    s = max(0, int(math.ceil(math.log2(mu / theta13))))
    f = _pade_approx(a / (2.0**s), 13)
    for _ in range(s):
        f = f @ f
    return f


def op_norm(a) -> float:
    """Operator (largest singular value) norm; works for rectangular input."""
    a = as_cmatrix(a, "op_norm input")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def max_herm_eig(a) -> float:
    """Largest eigenvalue of the Hermitian part (a + a*)/2."""
    a = _as_square(a, "max_herm_eig input")
    if a.shape[0] == 0:
        return 0.0
    herm = 0.5 * (a + adjoint(a))
    return float(np.linalg.eigvalsh(herm)[-1])


def psd_inv_sqrt(a) -> np.ndarray:
    """Inverse square root of a Hermitian positive-definite matrix.

    Returns Hermitian ``x`` with ``x @ a @ x = I``.  Raises if ``a`` is not
    Hermitian within ``PSD_TOL`` (relative) or has an eigenvalue <= ``PSD_TOL``;
    the Schur screen reports a probe whose weights fail here as skipped.

    One ``eigh`` of the Hermitian part serves both checks: its largest
    |eigenvalue| is the scale, and the defect |a - a*| is taken in the
    Frobenius norm, which bounds the operator norm from above.
    """
    a = _as_square(a, "psd_inv_sqrt input")
    w, u = np.linalg.eigh(0.5 * (a + adjoint(a)))
    scale = max(1.0, -w[0], w[-1]) if w.size else 1.0
    herm_defect = float(np.linalg.norm(a - adjoint(a)))
    if herm_defect > PSD_TOL * scale:
        raise ValueError(
            f"psd_inv_sqrt input is not Hermitian (defect {herm_defect:.3g})"
        )
    if w.size and w[0] <= PSD_TOL:
        raise ValueError(
            f"psd_inv_sqrt input has eigenvalue {w[0]:.3g} <= tol {PSD_TOL:.3g}"
        )
    x = (u * (w**-0.5)) @ adjoint(u)
    return 0.5 * (x + adjoint(x))


def schur_product(a, b) -> np.ndarray:
    """Entrywise (Schur) product of two matrices of the same shape."""
    a = as_cmatrix(a, "schur_product left factor")
    b = as_cmatrix(b, "schur_product right factor")
    if a.shape != b.shape:
        raise ValueError(
            f"schur_product shapes {a.shape} and {b.shape} are not compatible"
        )
    return a * b
