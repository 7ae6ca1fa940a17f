"""Associated semigroups of a block generator, their dual, and coordinates.

For slice vectors (c, d) the associated semigroup Q^{c,d}_t = exp(t G_{c,d})
on h has the generator

    G_{c,d} = E^c-hat F E_d-hat - chi(c, d),

and for a contractive F each Q^{c,d}_t is a contraction.  ``q_stack`` is
the package's one map (c, d, t) -> Q^{c,d}_t: it evaluates whole stacks of
exp(t G_{c,d}) at once, uncached.  ``SemigroupFamily`` memoizes G_{c,d} per
slice and exp(t G_{c,d}) keyed on the exact bit patterns of (c, d) and the
value of t, for callers that read the same Q again; reproducibility is
preferred over cache hit rate, so no rounding is applied to keys.  Its
``slice_generators`` cuts every key and fills every generator, and
``factors`` makes one lookup per key.

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
from .opcore import check_count, check_time, check_times, mat_exp, mat_exp_stack


@np.errstate(over="ignore", invalid="ignore")
def g_generator(F: BlockGenerator, c, d) -> np.ndarray:
    """The generator G_{c,d} of the contraction semigroup Q^{c,d}.

    Stacks of slice vectors (..., dim_k) give a stack of generators.  A
    generator that is not finite in double precision raises
    ``OverflowError`` naming the first such slice.
    """
    gen, dh = component(F, c, d), F.dim_h
    # Minus chi(c, d) I, in place on a strided view of each slice's diagonal.
    gen.reshape(*gen.shape[:-2], dh * dh)[..., :: dh + 1] -= np.expand_dims(chi(c, d), -1)
    if not np.isfinite(gen).all():
        bad = ~np.isfinite(gen).all(axis=(-2, -1))
        at = np.unravel_index(np.argmax(bad), bad.shape)
        c, d = (np.broadcast_to(np.asarray(v, dtype=np.complex128), (*bad.shape, F.dim_k))[at] for v in (c, d))
        raise OverflowError(f"slice generator G_{{c,d}} is not finite at c={c.tolist()}, d={d.tolist()}")
    return gen


def q_stack(F: BlockGenerator, c, d, t) -> np.ndarray:
    """Q^{c,d}_t = exp(t G_{c,d}) over stacks, by one stacked exponential.

    The slice vectors c, d (..., dim_k) and the times t (...) broadcast
    against each other, or are refused by name; nothing is cached.
    """
    t, gen = np.asarray(check_times(t, "t")), g_generator(F, c, d)
    # A t G_{c,d} that overflows is inf, which mat_exp_stack refuses by name.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            tgen = t[..., None, None] * gen
        except ValueError:
            got = f"t of shape {t.shape} against c and d of shapes {np.shape(c)} and {np.shape(d)}"
            raise ValueError(f"cannot broadcast {got}") from None
        return mat_exp_stack(tgen)


class SemigroupFamily:
    """Lazily cached Q^{c,d}_t = exp(t G_{c,d}) for one generator, read by ``factors``.

    Reads and insertions take no lock: ``dict.setdefault`` is atomic (under
    the GIL, and free-threaded CPython locks each dict), so the first value
    inserted for a key is the one every caller gets back.  Racing
    computations would insert identical matrices, so sharing a family across
    threads is safe.
    """

    def __init__(self, source: BlockGenerator):
        self.source = source
        self._cache: dict = {}

    def slice_generators(self, c, d) -> list[tuple[bytes, bytes]]:
        """The key (c bytes, d bytes) of each slice, with G_{c,d} cached.

        Slice vectors c, d (dim_k,) give one key and stacks of rows (n, dim_k)
        one per row, cut from one ``tobytes`` of each.  The slices not cached
        yet get their generators from one ``g_generator`` call: ``component``
        gives a slice the same bits alone or in a stack.
        """
        c, d = np.asarray(c, dtype=np.complex128), np.asarray(d, dtype=np.complex128)
        k = self.source.dim_k
        if c.shape != d.shape or c.shape[-1:] != (k,) or c.ndim > 2:
            raise ValueError(
                f"slice vectors have shapes {c.shape} and {d.shape}, "
                f"expected ({k},) or (n, {k}) each"
            )
        cs, ds = (c, d) if c.ndim == 2 else (c[None], d[None])
        width = cs.itemsize * k
        cb, db = cs.tobytes(), ds.tobytes()
        spans = [slice(i * width, (i + 1) * width) for i in range(len(cs))]
        keys = [(cb[span], db[span]) for span in spans]
        # Rows with equal keys hold equal bytes, so any one of them will do.
        new = {key: i for i, key in enumerate(keys) if key not in self._cache}
        if new:
            rows = list(new.values())
            for key, gen in zip(new, g_generator(self.source, cs[rows], ds[rows])):
                gen.flags.writeable = False
                self._cache.setdefault(key, gen)
        return keys

    def factors(self, c, d, t) -> list[np.ndarray]:
        """Q^{c_i,d_i}_{t_i} for the rows of c, d (n, dim_k) and the n times t:
        the pieces of a refinement, one cache lookup each."""
        times = check_times(t, "t")
        keys = self.slice_generators(c, d)
        if np.shape(times) != (len(keys),):
            raise ValueError(f"{len(keys)} slices for times of shape {np.shape(times)}")
        # A t G_{c,d} that overflows is inf, which mat_exp refuses by name.
        with np.errstate(over="ignore", invalid="ignore"):
            return [self._exp((*key, h)) for key, h in zip(keys, times.tolist())]

    def _exp(self, key: tuple) -> np.ndarray:
        """The cached Q for a key (c bytes, d bytes, t) whose slice generator is cached."""
        hit = self._cache.get(key)
        if hit is None:
            hit = mat_exp(key[2] * self._cache[key[:2]])
            hit.flags.writeable = False
            hit = self._cache.setdefault(key, hit)
        return hit


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

    ``q`` is any callable (c, d, t) -> Q^{c,d}_t: ``functools.partial(q_stack, F)``,
    the same for a dual generator, or an oracle's.  Each coordinate cell, with
    n = (|c|^2 + |d|^2)/2, is the slope (e^{t n} Q^{c,d}_t - I)/t - n I of
    G_{c,d}, and ``coords_to_f`` inverts the grid; the error is O(t) as t -> 0.
    """
    t = check_time(t, "t", positive=True)
    cells = coordinate_cells(check_count(dim_k, "dim_k"))
    grid = np.array([[q(c, d, t) for d in cells] for c in cells])
    half = 0.5 * (np.arange(len(cells)) > 0)
    n = (half[:, None] + half[None, :])[:, :, None, None]
    eye = np.eye(grid.shape[-1])
    return coords_to_f((np.exp(t * n) * grid - eye) / t - n * eye)
