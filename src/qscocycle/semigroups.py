"""Associated semigroups of a block generator, their dual, and coordinates.

For slice vectors (c, d) the associated semigroup Q^{c,d}_t = exp(t G_{c,d})
on h has the generator

    G_{c,d} = E^c-hat F E_d-hat - chi(c, d),

and for a contractive F each Q^{c,d}_t is a contraction.  ``SemigroupFamily``
memoizes G_{c,d} per slice and exp(t G_{c,d}) keyed on the exact bit
patterns of (c, d) and the value of t; reproducibility is preferred over cache
hit rate, so no rounding is applied to keys.  ``q_stack`` evaluates whole
stacks of exp(t G_{c,d}) at once, uncached, for probes that share nothing.

The coordinates of F are the slice generators G_{c,d} over the coordinate
cells c, d in {0, e_1, ..., e_dk}; ``coords_to_f`` inverts them exactly, and
``generator_from_semigroups`` reads F back from any semigroup callable by
passing the slopes of Q^{c,d}_t at a small step t to it.

At finite dimension every semigroup here is norm-continuous, so the usual
strong/weak continuity distinctions are vacuous and carry no representation
in this module.
"""

from __future__ import annotations

import numpy as np

from .generator import BlockGenerator, adjoint, chi, component
from .opcore import check_count, check_times, mat_exp, mat_exp_stack


def g_generator(F: BlockGenerator, c, d) -> np.ndarray:
    """The generator G_{c,d} of the contraction semigroup Q^{c,d}.

    Stacks of slice vectors (..., dim_k) give a stack of generators.
    """
    return component(F, c, d) - np.multiply.outer(chi(c, d), np.eye(F.dim_h, dtype=np.complex128))


def q_stack(F: BlockGenerator, c, d, t) -> np.ndarray:
    """Q^{c,d}_t = exp(t G_{c,d}) over stacks, by one stacked exponential.

    The slice vectors c, d (..., dim_k) and the times t (...) broadcast
    against each other; nothing is cached.
    """
    t = np.asarray(check_times(t, "t"))
    return mat_exp_stack(t[..., None, None] * g_generator(F, c, d))


class SemigroupFamily:
    """Lazily cached map (c, d, t) -> exp(t G_{c,d}) for one generator.

    Reads and insertions take no lock: ``dict.setdefault`` is atomic (under
    the GIL, and free-threaded CPython locks each dict), so the first value
    inserted for a key is the one every caller gets back.  Racing
    computations would insert identical matrices, so sharing a family across
    threads is safe.
    """

    def __init__(self, source: BlockGenerator):
        self.source = source
        self._cache: dict = {}

    def slice_generators(self, c, d) -> np.ndarray:
        """The generator G_{c,d} of Q^{c,d}, evaluated once per slice.

        Slice vectors c, d (dim_k,) give the cached, read-only G_{c,d} itself,
        and stacks of rows c, d (n, dim_k) give the (n, dim_h, dim_h) stack of
        generators.  The rows not cached yet get theirs from one
        ``g_generator`` call: ``component`` gives a slice the same bits alone
        or in a stack, so a generator does not depend on how it was cached.
        """
        c, d = np.asarray(c, dtype=np.complex128), np.asarray(d, dtype=np.complex128)
        k = self.source.dim_k
        if c.shape != d.shape or c.shape[-1:] != (k,) or c.ndim > 2:
            raise ValueError(
                f"slice vectors have shapes {c.shape} and {d.shape}, "
                f"expected ({k},) or (n, {k}) each"
            )
        cs, ds = np.atleast_2d(c), np.atleast_2d(d)
        keys = [(ci.tobytes(), di.tobytes(), None) for ci, di in zip(cs, ds)]
        # Rows with equal keys hold equal bytes, so any one of them will do.
        new = {key: i for i, key in enumerate(keys) if key not in self._cache}
        if new:
            rows = list(new.values())
            for key, gen in zip(new, g_generator(self.source, cs[rows], ds[rows])):
                gen.flags.writeable = False
                self._cache.setdefault(key, gen)
        if c.ndim == 1:
            return self._cache[keys[0]]
        dh = self.source.dim_h
        return np.array([self._cache[key] for key in keys], dtype=np.complex128).reshape(-1, dh, dh)

    def _exp(self, c, d, t: float) -> np.ndarray:
        check_times(t, "t")
        c = np.asarray(c, dtype=np.complex128).reshape(-1)
        d = np.asarray(d, dtype=np.complex128).reshape(-1)
        key = (c.tobytes(), d.tobytes(), float(t))
        hit = self._cache.get(key)
        if hit is None:
            gen = self._cache.get((*key[:2], None))
            if gen is None:
                gen = self.slice_generators(c, d)
            hit = mat_exp(t * gen)
            hit.flags.writeable = False
            hit = self._cache.setdefault(key, hit)
        return hit

    def q(self, c, d, t: float) -> np.ndarray:
        """Q^{c,d}_t = exp(t G_{c,d}); a contraction for contractive sources."""
        return self._exp(c, d, t)


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


def coordinate_cells(dim_k: int) -> np.ndarray:
    """The coordinate cells {0, e_1, ..., e_dim_k} as the rows of one array."""
    return np.eye(dim_k + 1, dim_k, k=-1, dtype=np.complex128)


def coords_from_f(F: BlockGenerator) -> np.ndarray:
    """Grid [G^alpha_beta] of slice generators over the coordinate cells.

    Index 0 is the zero vector, indices 1..dim_k the standard basis of k;
    the result has shape (dim_k+1, dim_k+1, dim_h, dim_h).
    """
    cells = coordinate_cells(F.dim_k)
    return g_generator(F, cells[:, None], cells[None, :])


def coords_to_f(grid: np.ndarray) -> BlockGenerator:
    """Invert the affine transform from slice generators back to components.

        F^0_0 = G^0_0
        F^i_0 = G^i_0 - G^0_0 + 1/2
        F^0_j = G^0_j - G^0_0 + 1/2
        F^i_j = G^i_j - G^i_0 - G^0_j + G^0_0 - delta^i_j

    and reassembles the block generator (K, L, M, C) in the standard basis.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 4 or not 0 < grid.shape[0] == grid.shape[1] or grid.shape[2] != grid.shape[3]:
        raise ValueError(f"coordinate grid has inconsistent shape {grid.shape}")
    dk = grid.shape[0] - 1
    dh = grid.shape[2]
    half = 0.5 * np.eye(dh, dtype=np.complex128)
    g00 = grid[0, 0]
    # Channel-major h (x) k layout, as in ``BlockGenerator.slice_basis``: row
    # block i of L and column block j of M are channel i and j.  F^i_j is the
    # (i, j) block of C - I, so the delta in the affine formula cancels and C
    # itself is the plain second difference.
    L = (grid[1:, 0] - g00 + half).reshape(dk * dh, dh)
    M = (grid[0, 1:] - g00 + half).transpose(1, 0, 2).reshape(dh, dk * dh)
    C = (grid[1:, 1:] - grid[1:, :1] - grid[:1, 1:] + g00).transpose(0, 2, 1, 3)
    return BlockGenerator(dim_h=dh, dim_k=dk, K=g00, L=L, M=M, C=C.reshape(dk * dh, dk * dh))


def generator_from_semigroups(q, dim_k: int, t: float) -> BlockGenerator:
    """The block generator read back from its associated semigroups at step t.

    ``q`` is any callable (c, d, t) -> Q^{c,d}_t: ``family.q``, a dual
    family's, or an oracle's.  Each coordinate cell, with n = (|c|^2 + |d|^2)/2,
    is the slope (e^{t n} Q^{c,d}_t - I)/t - n I of G_{c,d}, and
    ``coords_to_f`` inverts the grid; the error is O(t) as t -> 0.
    """
    check_times(t, "t", positive=True)
    cells = coordinate_cells(check_count(dim_k, "dim_k"))
    grid = np.array([[q(c, d, t) for d in cells] for c in cells])
    half = 0.5 * (np.arange(len(cells)) > 0)
    n = (half[:, None] + half[None, :])[:, :, None, None]
    eye = np.eye(grid.shape[-1])
    return coords_to_f((np.exp(t * n) * grid - eye) / t - n * eye)
