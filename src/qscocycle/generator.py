"""Block generators on h + (h (x) k) and their contractivity diagnostics.

A generator is stored as four blocks

    F = [ K  M ]      K : h -> h            M : h(x)k -> h
        [ L  C-I ]    L : h -> h(x)k        C : h(x)k -> h(x)k

and the assembled square matrix is produced on demand, with the scalar slot
of k-hat = C + k ordered first.  Vectors in h (x) k are flattened
channel-major: entry ``a * dim_h + p`` is the coefficient of e_p (x) delta_a,
so the channel blocks of L are the contiguous row slabs
``L[a*dim_h:(a+1)*dim_h]``.  The noise dimension may be zero, in which case
everything degrades to the drift K alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .opcore import adjoint, as_cmatrix, check_count, check_time, check_vector, max_herm_eig, op_norm

DEFECT_TOL = 1e-10
# from_hlc's relative Hermiticity tolerance for H, and yosida_approx's
# relative tolerance for growth of K.
HERMITIAN_TOL = 1e-10
DISSIPATIVE_TOL = 1e-8


def _slice_vectors(v) -> np.ndarray:
    """A slice vector (any input of ndim <= 1) or a stack of them (..., dim_k)."""
    v = np.asarray(v, dtype=np.complex128)
    return v.reshape(-1) if v.ndim <= 1 else v


def chi(c, d):
    """chi(c, d) = (|c|^2 + |d|^2)/2 - <c, d>, conjugate-linear in c.

    A complex number for two vectors; an array for stacks (..., dim_k),
    which broadcast against each other.
    """
    c, d = _slice_vectors(c), _slice_vectors(d)
    if c.shape[-1] != d.shape[-1]:
        raise ValueError(f"chi arguments have dimensions {c.shape[-1]} and {d.shape[-1]}")
    out = 0.5 * (np.vecdot(c, c).real + np.vecdot(d, d).real) - np.vecdot(c, d)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BlockGenerator:
    dim_h: int
    dim_k: int
    K: np.ndarray
    L: np.ndarray
    M: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name, low in (("dim_h", 1), ("dim_k", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        dh, dk = self.dim_h, self.dim_k
        shapes = {
            "K": (dh, dh),
            "L": (dh * dk, dh),
            "M": (dh, dh * dk),
            "C": (dh * dk, dh * dk),
        }
        for name, want in shapes.items():
            block = as_cmatrix(getattr(self, name), f"block {name}")
            if block.shape != want:
                raise ValueError(
                    f"block {name} has shape {block.shape}, expected {want} "
                    f"for dim_h={dh}, dim_k={dk}"
                )
            block = block.copy()
            block.flags.writeable = False
            object.__setattr__(self, name, block)

    @property
    def total_dim(self) -> int:
        return self.dim_h * (1 + self.dim_k)

    def full_matrix(self) -> np.ndarray:
        """Assembled square matrix [K M; L C-I] on h + (h (x) k)."""
        dh, dk = self.dim_h, self.dim_k
        n = self.total_dim
        full = np.zeros((n, n), dtype=np.complex128)
        full[:dh, :dh] = self.K
        full[:dh, dh:] = self.M
        full[dh:, :dh] = self.L
        full[dh:, dh:] = self.C - np.eye(dh * dk, dtype=np.complex128)
        return full

    @cached_property
    def slice_basis(self) -> np.ndarray:
        """Rows K, L_a, M_b, C_ab, each flattened to length dim_h**2.

        Every slice E^c-hat F E_d-hat is the combination of these rows with
        the coefficients (1, conj(c), d, conj(c) (x) d), minus <c, d> I.
        """
        dh, dk = self.dim_h, self.dim_k
        blocks_c = self.C.reshape(dk, dh, dk, dh).transpose(0, 2, 1, 3)
        basis = np.concatenate((
            self.K.reshape(1, dh * dh),
            self.L.reshape(dk, dh * dh),
            self.M.reshape(dh, dk, dh).transpose(1, 0, 2).reshape(dk, dh * dh),
            blocks_c.reshape(dk * dk, dh * dh),
        ))
        basis.flags.writeable = False
        return basis


@np.errstate(over="ignore", invalid="ignore")
def from_hlc(H, L, C) -> BlockGenerator:
    """Build the generator [iH - L*L/2, -L*C; L, C-I] from (H, L, C).

    With C unitary the result satisfies the contractivity inequality with
    equality (drift identity |Lu|^2 + 2 Re<u, Ku> = 0 and M = -L*C exact).
    """
    H = as_cmatrix(H, "H", square=True)
    dh = H.shape[0]
    herm_defect = op_norm(H - adjoint(H))
    if herm_defect > HERMITIAN_TOL * max(1.0, op_norm(H)):
        raise ValueError(f"H is not Hermitian (defect {herm_defect:.3g})")
    L = as_cmatrix(L, "L")
    C = as_cmatrix(C, "C")
    if L.shape[1] != dh or L.shape[0] % dh != 0:
        raise ValueError(f"L shape {L.shape} incompatible with dim_h={dh}")
    dk = L.shape[0] // dh
    if C.shape != (dh * dk,) * 2:
        raise ValueError(
            f"C shape {C.shape} incompatible with dim_h={dh}, dim_k={dk}; expected {(dh * dk,) * 2}"
        )
    K = 1j * H - 0.5 * (adjoint(L) @ L)
    M = -(adjoint(L) @ C)
    return BlockGenerator(dim_h=dh, dim_k=dk, K=K, L=L, M=M, C=C)


def component(F: BlockGenerator, c, d) -> np.ndarray:
    """The h-operator slice E^c-hat F E_d-hat.

    Equals K + E^c L + M E_d + E^c C E_d - <c,d> I; conjugate-affine in c
    and affine in d.  Stacks of slice vectors (..., dim_k) broadcast against
    each other and give a stack of slices from one product with
    ``slice_basis``.
    """
    c, d = _slice_vectors(c), _slice_vectors(d)
    if c.shape[-1] != F.dim_k or d.shape[-1] != F.dim_k:
        raise ValueError(
            f"slice vectors have dimensions {c.shape[-1]}, {d.shape[-1]}; expected {F.dim_k}"
        )
    if c.shape != d.shape:
        try:
            c, d = np.broadcast_arrays(c, d)
        except ValueError:
            raise ValueError(f"cannot broadcast slice vectors c and d of shapes {c.shape} and {d.shape}") from None
    dh, dk, lead = F.dim_h, F.dim_k, c.shape[:-1]
    cc = c.conj()
    coef = np.concatenate((
        np.ones((*lead, 1), dtype=np.complex128), cc, d,
        (cc[..., :, None] * d[..., None, :]).reshape(*lead, dk * dk),
    ), axis=-1)
    # One row vector per slice, so each slice is the same vector-matrix
    # product whether it comes alone or in a stack.
    flat = coef[..., None, :] @ F.slice_basis
    flat[..., 0, :: dh + 1] -= np.vecdot(c, d)[..., None]
    return flat.reshape(*lead, dh, dh)


@np.errstate(over="ignore", invalid="ignore")
def contractivity_defect(F: BlockGenerator) -> float:
    """Largest Hermitian eigenvalue of F + F* + F* Delta F.

    Nonpositive (within tolerance) exactly when F generates a contraction
    cocycle in this bounded setting.
    """
    full = F.full_matrix()
    delta_f = full.copy()
    delta_f[: F.dim_h, :] = 0.0
    return max_herm_eig(full + adjoint(full) + adjoint(full) @ delta_f)


def form_defect(F: BlockGenerator, xi) -> float:
    """2 Re<xi, F xi> + |Delta F xi|^2 for xi in h + (h (x) k)."""
    xi = check_vector(xi, F.total_dim, "xi")
    fxi = F.full_matrix() @ xi
    return float(2.0 * np.vdot(xi, fxi).real + np.vdot(fxi[F.dim_h :], fxi[F.dim_h :]).real)


def yosida_approx(F: BlockGenerator, n: int) -> BlockGenerator:
    """Bounded regularization through the resolvent contraction J = (I - K/n)^-1.

    Blocks become J*KJ, LJ, J*M with C unchanged; contractivity is preserved
    (the defect matrix transforms by congruence) and the result converges to
    F entrywise at rate O(1/n).  K must be dissipative: the largest eigenvalue
    of its Hermitian part may exceed 0 by at most DISSIPATIVE_TOL * max(1, |K|),
    which also keeps I - K/n invertible.
    """
    n = check_count(n, "n", 1)
    dh = F.dim_h
    growth = max_herm_eig(F.K)
    if growth > DISSIPATIVE_TOL * max(1.0, op_norm(F.K)):
        raise ValueError(
            f"K is not dissipative: its Hermitian part has eigenvalue {growth:.3g} > 0"
        )
    eye = np.eye(dh, dtype=np.complex128)
    j = np.linalg.solve(eye - F.K / n, eye)
    return BlockGenerator(
        dim_h=dh,
        dim_k=F.dim_k,
        K=adjoint(j) @ F.K @ j,
        L=F.L @ j,
        M=adjoint(j) @ F.M,
        C=F.C,
    )


@dataclass(frozen=True)
class Classification:
    contractivity_defect: float
    is_contractive: bool
    c_norm: float
    c_contractive: bool
    c_isometric: bool
    c_coisometric: bool
    drift_equality_defect: float
    gauge_equality_defect: float
    equality_case: bool

    def summary(self) -> str:
        parts = [
            "contractive" if self.is_contractive else "NOT contractive",
            f"defect={self.contractivity_defect:.3e}",
            f"|C|={self.c_norm:.6f}",
        ]
        if self.c_isometric:
            parts.append("C isometric")
        if self.c_coisometric:
            parts.append("C coisometric")
        if self.equality_case:
            parts.append("equality case (isometric candidate)")
        return ", ".join(parts)


@np.errstate(over="ignore", invalid="ignore")
def classify(F: BlockGenerator, tol: float = DEFECT_TOL) -> Classification:
    """Contractivity report: C contraction/isometry flags, inequality defect,
    and the equality-case diagnostics max|  |Lu|^2 + 2Re<u,Ku>  | and |M + L*C|."""
    tol = check_time(tol, "tol")
    dk_dim = F.dim_h * F.dim_k
    eye_k = np.eye(dk_dim, dtype=np.complex128)
    c_norm = op_norm(F.C) if F.dim_k else 0.0
    iso = op_norm(adjoint(F.C) @ F.C - eye_k) if F.dim_k else 0.0
    coiso = op_norm(F.C @ adjoint(F.C) - eye_k) if F.dim_k else 0.0
    drift = adjoint(F.L) @ F.L + F.K + adjoint(F.K)
    drift_defect = op_norm(drift)
    gauge_defect = op_norm(F.M + adjoint(F.L) @ F.C) if F.dim_k else 0.0
    defect = contractivity_defect(F)
    equality = iso <= tol and drift_defect <= tol and gauge_defect <= tol
    return Classification(
        contractivity_defect=defect,
        is_contractive=defect <= tol,
        c_norm=c_norm,
        c_contractive=c_norm <= 1.0 + tol,
        c_isometric=F.dim_k > 0 and iso <= tol,
        c_coisometric=F.dim_k > 0 and coiso <= tol,
        drift_equality_defect=drift_defect,
        gauge_equality_defect=gauge_defect,
        equality_case=equality,
    )
