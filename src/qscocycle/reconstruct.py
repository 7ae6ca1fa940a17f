"""Schur-product criterion probes and the Yosida approximation pipeline.

A probe fixes an n-tuple of slice vectors c, a time t, positive definite
weights A and B, and a block column Y in B(C^n; h^n) normalized so that
|A^{-1/2} Y B^{-1/2}| <= 1.  The criterion quantity is

    | (A o w)^{-1/2} (Q o Y) (B o w)^{-1/2} |  - 1

with w the Gram matrix [exp(-t chi(c_i, c_j))], o the Schur product (scalar
against scalar, and operator-block against vector-block for Q o Y).  For
families generated by a contractive block generator the defect is <= 0 up to
roundoff; screening is falsification-only since no finite probe set exhausts
the criterion's quantifiers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .generator import BlockGenerator, contractivity_defect, yosida_approx
from .opcore import check_count, check_time, check_times, op_norm, op_norm_stack, psd_inv_sqrt, psd_inv_sqrt_stack
from .semigroups import SemigroupFamily, coordinate_cells, q_stack

PASS_TOL = 1e-9
# The Yosida pipeline's contractivity tolerance, and the factor by which one
# sup error may exceed the previous one in a report still called monotone.
CONTRACTIVITY_TOL = 1e-8
MONOTONE_SLACK = 1.1
# The times of the deterministic core probes, and of the dual relation's check.
CORE_TIMES = (0.1, 0.5, 1.0)


def varpi_matrix(c_tuple, t) -> np.ndarray:
    """Gram matrix [exp(-t chi(c_i, c_j))]; Hermitian PSD with unit diagonal.

    chi(c_i, c_j) = (|c_i|^2 + |c_j|^2)/2 - <c_i, c_j> is read off the one
    Gram matrix [<c_i, c_j>] of the (n, dim_k) c-tuple.  A stack of c-tuples
    (..., n, dim_k) with one t each gives the stack of Gram matrices.
    """
    c = np.asarray(c_tuple, dtype=np.complex128)
    if c.ndim in (0, 1):
        raise ValueError(f"c_tuple of shape {c.shape} must be an (n, dim_k) array or a stack of them")
    t = np.asarray(check_times(t, "t"))
    gram = c.conj() @ c.mT
    sq = gram.diagonal(axis1=-2, axis2=-1).real
    try:
        return np.exp(-t[..., None, None] * (0.5 * (sq[..., :, None] + sq[..., None, :]) - gram))
    except ValueError:
        raise ValueError(f"cannot broadcast t of shape {t.shape} against c_tuple of shape {np.shape(c_tuple)}") from None


def _ampliate(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(s (x) I_h) y for a block column y with n row blocks, as one reshaped
    product; a stack of s against a stack of y alike."""
    n = s.shape[-1]
    return (s @ y.reshape(*y.shape[:-2], n, y.shape[-2] // n * y.shape[-1])).reshape(y.shape)


def _criterion(sa: np.ndarray, q: np.ndarray, y: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """The criterion matrix (A o w)^{-1/2} (Q o Y) (B o w)^{-1/2}, for one probe or a stack.

    ``sa`` and ``sb`` are the inverse roots of the weighted Gram matrices and
    ``q`` holds the blocks Q^{c_i,c_j}_t on axes (i, j, p, q).  The Schur
    product applies each operator block to its column of y, read as
    (n, dim_h, n), in one contraction.
    """
    n = y.shape[-1]
    qy = np.einsum("...ijpq,...iqj->...ipj", q, y.reshape(*y.shape[:-2], n, q.shape[-1], n))
    return _ampliate(sa, qy.reshape(y.shape)) @ sb


@dataclass(frozen=True)
class Probe:
    c_tuple: np.ndarray  # (n, dim_k)
    t: float
    a: np.ndarray
    b: np.ndarray
    y: np.ndarray  # (n * dim_h, n)
    probe_id: int = 0


@dataclass(frozen=True)
class ProbeReport:
    probe_id: int
    n: int
    t: float
    defect: float
    passed: bool
    skipped: bool


def _probe_arrays(c_tuple, a, b, y, dim_h: int, dim_k: int | None = None) -> tuple:
    """A probe's c-tuple, weights and block column as complex128 arrays of
    shapes (n, dim_k) with n > 0, (n, n), (n, n) and (n * dim_h, n), or a
    ``ValueError`` naming the first that does not fit; ``dim_k`` is checked
    when given."""
    c = np.asarray(c_tuple, dtype=np.complex128)
    if c.ndim != 2 or not len(c) or dim_k not in (None, c.shape[1]):
        k = "dim_k" if dim_k is None else dim_k
        raise ValueError(f"c_tuple of shape {c.shape} must be an (n, {k}) array, n > 0")
    n, fitted = len(c), [np.asarray(x, dtype=np.complex128) for x in (a, b, y)]
    for name, x, shape in zip("aby", fitted, ((n, n), (n, n), (n * dim_h, n))):
        if x.shape != shape:
            raise ValueError(f"{name} of shape {x.shape} does not fit the probe: expected {shape}")
    return (c, *fitted)


def make_probe(c_tuple, t, a, b, y, dim_h: int, probe_id: int = 0) -> Probe:
    """Validate shapes and rescale Y so the criterion precondition holds.

    The scalar weight matrices act on C^n blockwise, so A^{-1/2} is ampliated
    by the identity of h before touching Y.
    """
    c, a, b, y = _probe_arrays(c_tuple, a, b, y, check_count(dim_h, "dim_h", 1))
    bound = op_norm(_ampliate(psd_inv_sqrt(a), y) @ psd_inv_sqrt(b))
    if bound > 1.0:
        y = y / bound
    return Probe(c_tuple=c, t=check_time(t, "t"), a=a, b=b, y=y, probe_id=probe_id)


def _check_stacks(ids, c, ts, ab, y, q_blocks, tol: float) -> list[ProbeReport]:
    """Reports of one n's stacks ``(ids, c, ts, ab, y)``; defect is the criterion norm minus one.

    ``q_blocks(c, t)`` gives the blocks Q^{c_i,c_j}_t (probes, n, n, dim_h, dim_h) of the
    live probes only: one with degenerate weighted Gram matrices is reported as skipped.
    """
    t = np.array(ts)
    roots, ok = psd_inv_sqrt_stack(ab * varpi_matrix(c, t)[:, None])
    live = np.flatnonzero(ok.all(axis=1))
    # NaN marks a skipped probe; it compares false with tol, so it never passes.
    defects = np.full(len(ids), np.nan)
    if live.size:
        q = q_blocks(c[live], t[live])
        defects[live] = op_norm_stack(_criterion(roots[live, 0], q, y[live], roots[live, 1])) - 1.0
    return [ProbeReport(probe_id=i, n=c.shape[1], t=s, defect=d, passed=d <= tol, skipped=d != d)
            for i, s, d in zip(ids, ts, defects.tolist())]


def schur_criterion_check(
    family: SemigroupFamily, probe: Probe, tol: float = PASS_TOL
) -> ProbeReport:
    """Evaluate one probe, defect the criterion norm minus one or NaN if skipped,
    as ``_check_stacks`` of a stack of one whose blocks come from one
    ``family.factors`` call over the pairs (c_i, c_j)."""
    tol = check_time(tol, "tol")
    dh = family.source.dim_h
    c, a, b, y = _probe_arrays(probe.c_tuple, probe.a, probe.b, probe.y, dh, family.source.dim_k)
    n = len(c)

    def lookups(c, t):
        (ct,) = c  # the pairs row by row: c_i repeated, the tuple cycled
        q = family.factors(ct.repeat(n, 0), np.concatenate([ct] * n), t.tolist() * (n * n))
        return np.array(q).reshape(1, n, n, dh, dh)

    return _check_stacks([probe.probe_id], c[None], [probe.t], np.array([[a, b]]), y[None], lookups, tol)[0]


def deterministic_core_probes(F: BlockGenerator) -> list[Probe]:
    """n = 1 probes over c in the coordinate cells, Y over the h basis,
    t in ``CORE_TIMES``; catches any Q^{c,c} contraction failure reproducibly.
    A = B = 1, so one ``make_probe`` rescaling per basis vector serves every c and t."""
    cells, one = coordinate_cells(F.dim_k), np.ones((1, 1))
    basis = [make_probe(cells[:1], 0.0, one, one, y, dim_h=F.dim_h)
             for y in np.eye(F.dim_h, dtype=np.complex128)[:, :, None]]
    grid = enumerate(itertools.product(range(len(cells)), basis, CORE_TIMES))
    return [replace(probe, c_tuple=cells[i : i + 1], t=t, probe_id=k) for k, (i, probe, t) in grid]


def _inv_roots(weights: np.ndarray) -> np.ndarray:
    """Inverse roots of a stack of weights drawn positive definite."""
    roots, ok = psd_inv_sqrt_stack(weights)
    if not ok.all():
        psd_inv_sqrt(weights[~ok][0])  # raises the reason
    return roots


def _random_probes(F: BlockGenerator, n_max: int, samples: int, seed: int, first_id: int) -> dict:
    """The seeded random probes of ``screen_family``, as stacks ``(ids, c, ts, ab, y)`` per n.

    Each sample draws n, its slice vectors, t = 0 + 2 u as ``uniform(0.0, 2.0)``
    does, and then the real and imaginary parts of X_A, X_B and Y in one call,
    which consumes the generator exactly as one call per part does.  The
    weights ``ab`` = (A, B) with A = X_A X_A* / n + I/4, and Y rescaled to the
    precondition (as in ``make_probe``), are then formed one group at a time.
    """
    n_max, samples = check_count(n_max, "n_max", 1), check_count(samples, "samples", 1)
    seed = check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    dh, dk = F.dim_h, F.dim_k
    draws: dict[int, list] = {}
    for probe_id in range(first_id, first_id + samples):
        n = int(rng.integers(1, n_max + 1))
        c = rng.standard_normal((2, n - 1, dk)) if n > 1 and dk else None
        t = 0.0 + 2.0 * rng.random()
        draws.setdefault(n, []).append((probe_id, c, t, rng.standard_normal(2 * n * n * (2 + dh))))
    groups = {}
    for n, group in sorted(draws.items()):
        ids, cs, ts, z = zip(*group)
        z = np.array(z)
        x = z[:, : 4 * n * n].reshape(-1, 2, 2, n, n)
        x = x[:, :, 0] + 1j * x[:, :, 1]
        y = z[:, 4 * n * n :].reshape(-1, 2, n * dh, n)
        y = y[:, 0] + 1j * y[:, 1]
        c = np.zeros((len(ids), n, dk), dtype=np.complex128)
        if n > 1 and dk:
            raw = np.array(cs)
            c[:, 1:] = (raw[:, 0] + 1j * raw[:, 1]) / np.sqrt(2.0 * dk)
        ab = x @ np.conj(x.mT) / n + 0.25 * np.eye(n)
        roots = _inv_roots(ab)
        bound = op_norm_stack(_ampliate(roots[:, 0], y) @ roots[:, 1])
        groups[n] = (list(ids), c, list(ts), ab, y / np.maximum(bound, 1.0)[:, None, None])
    return groups


def screen_family(
    F: BlockGenerator,
    n_max: int,
    samples: int,
    seed: int,
    tol: float = PASS_TOL,
) -> list[ProbeReport]:
    """The deterministic core probes and ``samples`` seeded random ones,
    evaluated and sorted worst first.

    The core probes are checked one by one on a ``SemigroupFamily``; the
    random probes one group per n, by stacked exponentials and factorizations.
    """
    tol = check_time(tol, "tol")
    core = deterministic_core_probes(F)
    groups = _random_probes(F, n_max, samples, seed, first_id=len(core))
    family = SemigroupFamily(F)
    reports = [schur_criterion_check(family, p, tol=tol) for p in core]

    def stacked(c, t):
        return q_stack(F, c[:, :, None], c[:, None], t[:, None, None])

    for group in groups.values():
        reports += _check_stacks(*group, stacked, tol)
    reports.sort(key=lambda r: (-(r.defect if math.isfinite(r.defect) else -math.inf), r.probe_id))
    return reports


@dataclass(frozen=True)
class ConvergenceReport:
    """``errors[k, p]`` is the sup error of probe pair p at n = ``n_list[k]``."""

    n_list: tuple
    errors: np.ndarray
    monotone: bool


def trotter_kato_pipeline(
    F: BlockGenerator, n_list, T: float = 1.0, grid_points: int = 11
) -> ConvergenceReport:
    """Sup-grid semigroup errors of the resolvent-regularized generators.

    For each n the regularized generator F_n is built and checked contractive,
    as the congruence J* K J keeps it, and per probe pair (c, d) the error
    sup_{t in grid} |Q^{(n)c,d}_t - Q^{c,d}_t| is recorded; the report flags
    whether errors decrease along ``n_list`` within ``MONOTONE_SLACK``.  The
    probe pairs are (0, 0) and, when dim_k >= 1, (e_1, e_1) and (e_1, 0).
    """
    try:
        n_list = tuple(n_list)
    except TypeError:
        raise ValueError(f"n_list={n_list!r} must be a list of integers") from None
    n_list = tuple(check_count(n, f"n_list[{k}]", 1) for k, n in enumerate(n_list))
    if not n_list or any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ValueError("n_list must be a nonempty, strictly increasing list")
    grid_points = check_count(grid_points, "grid_points", 1)
    T = check_time(T, "T", positive=True)
    defect = contractivity_defect(F)
    if defect > CONTRACTIVITY_TOL:
        raise ValueError(f"pipeline needs a contractive generator; defect {defect:.3g}")
    # The probe pairs over the grid: Q^{c,d}_t on axes (pair, t).
    cells = coordinate_cells(F.dim_k)[:, None]
    pairs = 3 if F.dim_k else 1
    c, d = cells[[0, 1, 1][:pairs]], cells[[0, 1, 0][:pairs]]
    grid = np.linspace(0.0, T, grid_points)
    base = q_stack(F, c, d, grid)
    errors = []
    for n in n_list:
        F_n = yosida_approx(F, n)
        if (defect := contractivity_defect(F_n)) > CONTRACTIVITY_TOL:
            raise ValueError(f"Yosida approximation n={n} is not contractive; defect {defect:.3g}")
        errors.append(op_norm_stack(q_stack(F_n, c, d, grid) - base).max(axis=-1))
    errors = np.array(errors)
    monotone = bool(np.all(errors[1:] <= MONOTONE_SLACK * errors[:-1] + 1e-14))
    errors.flags.writeable = False
    return ConvergenceReport(n_list=n_list, errors=errors, monotone=monotone)
