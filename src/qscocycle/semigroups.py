"""Associated semigroups of a block generator, their dual, and coordinates.

For slice vectors (c, d) the two generators on h are

    G_{c,d} = E^c-hat F E_d-hat - chi(c, d)       (contraction semigroup)
    H_{c,d} = E^c-hat F E_d-hat + <c, d>          (unnormalized variant)

so H - G = (|c|^2 + |d|^2)/2 exactly.  ``SemigroupFamily`` memoizes the
exponentials exp(t G) and exp(t H) keyed on the exact bit patterns of
(c, d, t); reproducibility is preferred over cache hit rate, so no rounding
is applied to keys.

At finite dimension every semigroup here is norm-continuous, so the usual
strong/weak continuity distinctions are vacuous and carry no representation
in this module.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .generator import BlockGenerator, adjoint, chi, component
from .opcore import mat_exp


@dataclass(frozen=True)
class GeneratorSlice:
    c: np.ndarray
    d: np.ndarray
    G: np.ndarray
    H: np.ndarray


def g_generator(F: BlockGenerator, c, d) -> GeneratorSlice:
    """Both generator routes for the slice (c, d)."""
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    d = np.asarray(d, dtype=np.complex128).reshape(-1)
    comp = component(F, c, d)
    eye = np.eye(F.dim_h, dtype=np.complex128)
    g = comp - chi(c, d) * eye
    h = comp + np.vdot(c, d) * eye
    return GeneratorSlice(c=c, d=d, G=g, H=h)


def _key(c: np.ndarray, d: np.ndarray, t: float, tag: str):
    return (tag, c.tobytes(), d.tobytes(), np.float64(t).tobytes())


class SemigroupFamily:
    """Lazily cached map (c, d, t) -> exp(t G_{c,d}) for one generator.

    Reads are lock-free; insertion holds a lock so at most one value per key
    is retained.  Racing computations would insert identical matrices, so
    sharing a family across threads is safe.
    """

    def __init__(self, source: BlockGenerator):
        self.source = source
        self._cache: dict = {}
        self._lock = threading.Lock()

    def _vec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128).reshape(-1)
        if v.size != self.source.dim_k:
            raise ValueError(
                f"slice vector has dimension {v.size}, expected {self.source.dim_k}"
            )
        return v

    def slice_generators(self, c, d) -> GeneratorSlice:
        c, d = self._vec(c), self._vec(d)
        key = _key(c, d, 0.0, "slice")
        hit = self._cache.get(key)
        if hit is None:
            hit = g_generator(self.source, c, d)
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    def _exp(self, c, d, t: float, tag: str) -> np.ndarray:
        if t < 0:
            raise ValueError(f"semigroup time must be nonnegative, got {t}")
        c, d = self._vec(c), self._vec(d)
        key = _key(c, d, t, tag)
        hit = self._cache.get(key)
        if hit is None:
            slc = self.slice_generators(c, d)
            gen = slc.G if tag == "q" else slc.H
            hit = mat_exp(t * gen)
            hit.flags.writeable = False
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    def q(self, c, d, t: float) -> np.ndarray:
        """Q^{c,d}_t = exp(t G_{c,d}); a contraction for contractive sources."""
        return self._exp(c, d, t, "q")

    def p(self, c, d, t: float) -> np.ndarray:
        """P^{c,d}_t = exp(t H_{c,d}) = e^{t(|c|^2+|d|^2)/2} Q^{c,d}_t."""
        return self._exp(c, d, t, "p")


def dual_generator(F: BlockGenerator) -> BlockGenerator:
    """Adjoint block generator: blocks K*, M*, L*, C* (assembled matrix F*)."""
    return BlockGenerator(
        dim_h=F.dim_h,
        dim_k=F.dim_k,
        K=adjoint(F.K),
        L=adjoint(F.M),
        M=adjoint(F.L),
        C=adjoint(F.C),
    )


def dual_family(F: BlockGenerator) -> SemigroupFamily:
    """Semigroups of the dual cocycle; satisfies Q~^{c,d}_t = (Q^{d,c}_t)*."""
    return SemigroupFamily(dual_generator(F))


def coords_from_f(F: BlockGenerator) -> np.ndarray:
    """Grid [G^alpha_beta] of slice generators over the standard basis.

    Index 0 is the zero vector, indices 1..dim_k the standard basis of k;
    the result has shape (dim_k+1, dim_k+1, dim_h, dim_h).
    """
    dh, dk = F.dim_h, F.dim_k
    basis = [np.zeros(dk, dtype=np.complex128)]
    for i in range(dk):
        e = np.zeros(dk, dtype=np.complex128)
        e[i] = 1.0
        basis.append(e)
    grid = np.empty((dk + 1, dk + 1, dh, dh), dtype=np.complex128)
    for a, c in enumerate(basis):
        for b, d in enumerate(basis):
            grid[a, b] = g_generator(F, c, d).G
    return grid


def coords_to_f(grid: np.ndarray) -> BlockGenerator:
    """Invert the affine transform from slice generators back to components.

        F^0_0 = G^0_0
        F^i_0 = G^i_0 - G^0_0 + 1/2
        F^0_j = G^0_j - G^0_0 + 1/2
        F^i_j = G^i_j - G^i_0 - G^0_j + G^0_0 - delta^i_j

    and reassembles the block generator (K, L, M, C) in the standard basis.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 4 or grid.shape[0] != grid.shape[1] or grid.shape[2] != grid.shape[3]:
        raise ValueError(f"coordinate grid has inconsistent shape {grid.shape}")
    dk = grid.shape[0] - 1
    dh = grid.shape[2]
    eye = np.eye(dh, dtype=np.complex128)
    g00 = grid[0, 0]
    K = g00.copy()
    L = np.zeros((dh * dk, dh), dtype=np.complex128)
    M = np.zeros((dh, dh * dk), dtype=np.complex128)
    C = np.zeros((dh * dk, dh * dk), dtype=np.complex128)
    for i in range(1, dk + 1):
        L[(i - 1) * dh : i * dh] = grid[i, 0] - g00 + 0.5 * eye
        M[:, (i - 1) * dh : i * dh] = grid[0, i] - g00 + 0.5 * eye
    for i in range(1, dk + 1):
        for j in range(1, dk + 1):
            # F^i_j is the (i, j) block of C - I, so the delta in the affine
            # formula cancels and C itself is the plain second difference.
            C[(i - 1) * dh : i * dh, (j - 1) * dh : j * dh] = (
                grid[i, j] - grid[i, 0] - grid[0, j] + g00
            )
    return BlockGenerator(dim_h=dh, dim_k=dk, K=K, L=L, M=M, C=C)
