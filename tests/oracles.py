"""Independent oracles and instance generators shared by the test suite.

Everything here deliberately avoids the package's own code paths where the
point is cross-validation: the matrix exponential reference is scipy,
generator slices (those of the per-time matrix-element reference included),
Schur criterion ampliations
and the oracle's per-slot factors are built from explicit ``np.kron`` lift
maps, and the classical birth-death generator is assembled directly from
the jump rates.  The ``*_loops`` references are instead the loop forms of
stacked package code, one package call per cell, pair or time, so that the
stacked forms can be checked against them bitwise.  ``screen_reference`` is
the Schur screen built one probe at a time: one ``make_probe`` per probe, and
the roots of A and B taken in separate calls; ``slot_apply_per_run`` is the
oracle's state-norm kernel forming one superoperator per run.
"""

import math

import numpy as np
import scipy.linalg

from qscocycle import _kernels
from qscocycle import (
    BlockGenerator,
    SemigroupFamily,
    StepFunction,
    dual_generator,
    from_hlc,
    g_generator,
    make_probe,
    op_norm,
    random_contractive,
    step_matrix,
    varpi_matrix,
    yosida_approx,
)
from qscocycle.opcore import op_norm_stack, psd_inv_sqrt_stack
from qscocycle.reconstruct import CORE_TIMES, PASS_TOL, ProbeReport, _criterion
from qscocycle.semigroups import coordinate_cells, q_stack


def scalar_hp():
    """dim_h = dim_k = 1 generator of (H, L, C) = (0, 1, 1): K = -1/2, M = -1."""
    return from_hlc(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))


def zero_generator(dim_h, dim_k, **blocks):
    """K, L, M = 0 and C = I, so the full matrix is 0; ``blocks`` replace any of
    K, L, M, C."""
    zero = {
        "K": np.zeros((dim_h, dim_h)),
        "L": np.zeros((dim_h * dim_k, dim_h)),
        "M": np.zeros((dim_h, dim_h * dim_k)),
        "C": np.eye(dim_h * dim_k),
    }
    return BlockGenerator(dim_h=dim_h, dim_k=dim_k, **{**zero, **blocks})


def block_gap(A, B):
    """Largest operator-norm difference over the four blocks K, L, M, C."""
    return max(np.linalg.norm(getattr(A, X) - getattr(B, X), 2) for X in "KLMC")


def scipy_expm(a):
    return scipy.linalg.expm(np.asarray(a, dtype=np.complex128))


def pade_expm_fresh_eye(a, m, s):
    """exp(a) by the [m/m] Pade form after s halvings, one term at a time.

    The sums run in ``opcore``'s order, with each identity term formed from a
    fresh ``np.eye`` and added last, so a cached identity must give the same
    bits.
    """
    from qscocycle.opcore import _PADE_COEFFS

    a = np.asarray(a, dtype=np.complex128) / 2.0**s
    c = _PADE_COEFFS[m]
    eye = np.eye(len(a), dtype=np.complex128)
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]
        for _ in range(2, m // 2 + 1):
            powers.append(powers[-1] @ a2)
        u = c[m] * powers[-1]
        for j in range(m - 2, 0, -2):
            u += c[j] * powers[(j - 1) // 2]
        u = a @ u
        v = c[m - 1] * powers[-1]
        for j in range(m - 3, -1, -2):
            v += c[j] * powers[j // 2]
    else:
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2) + c[7] * a6 + c[5] * a4
                 + c[3] * a2 + c[1] * eye)
        v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2) + c[6] * a6 + c[4] * a4
             + c[2] * a2 + c[0] * eye)
    f = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        f = f @ f
    return f


def classical_rate_matrix(birth, death):
    """Generator of the truncated birth-death chain acting on functions.

    No birth out of the top state and no death out of the bottom state,
    matching a hard truncation; interior rows sum to zero.
    """
    birth = np.asarray(birth, dtype=float)
    death = np.asarray(death, dtype=float)
    dim = birth.size
    a = np.zeros((dim, dim))
    for n in range(dim):
        if n < dim - 1:
            a[n, n + 1] = birth[n]
            a[n, n] -= birth[n]
        if n > 0:
            a[n, n - 1] = death[n]
            a[n, n] -= death[n]
    return a


def diagonal_flow_generator(F):
    """Vacuum-flow generator restricted to the diagonal algebra of h.

    Computed straight from the blocks: d/dt x_n picks up 2 Re K_nn from the
    drift and sum_a |L_a[p, n]|^2 x_p from each noise channel.  Valid for the
    gauge-free models used in the tests (C = I), where the flow generator is
    K* X + X K + L* (X (x) I) L.
    """
    dh = F.dim_h
    a = np.diag(2.0 * np.diag(F.K).real).astype(float)
    for ch in range(F.dim_k):
        block = F.L[ch * dh : (ch + 1) * dh]
        a += (np.abs(block) ** 2).T
    return a


def oscillator_loops(spec):
    """Blocks (K, L, M, C) of ``inverse_oscillator``, the shifts filled entry by entry."""
    dim, lam = spec.dim, spec.lam
    K = np.diag(1j * spec.mu - 0.5 * (np.conj(lam) * lam).real[1:]).astype(np.complex128)
    L = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(dim - 1):
        L[n + 1, n] = -lam[n + 1]
    M = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        M[n - 1, n] = np.conj(lam[n])
    return K, L, M, np.eye(dim, dtype=np.complex128)


def birth_death_loops(dim, birth, death):
    """``birth_death`` through ``from_hlc``, its shifts filled entry by entry."""
    up = np.zeros((dim, dim), dtype=np.complex128)
    down = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(dim - 1):
        up[n + 1, n] = np.sqrt(birth[n])
    for n in range(1, dim):
        down[n - 1, n] = np.sqrt(death[n])
    L = np.vstack([up, down])
    return from_hlc(np.zeros((dim, dim), dtype=np.complex128), L, np.eye(2 * dim))


def coords_to_f_loops(grid):
    """Blocks (K, L, M, C) of ``coords_to_f``, assembled slab by slab."""
    grid = np.asarray(grid, dtype=np.complex128)
    dk = grid.shape[0] - 1
    dh = grid.shape[2]
    eye = np.eye(dh, dtype=np.complex128)
    g00 = grid[0, 0]
    L = np.zeros((dh * dk, dh), dtype=np.complex128)
    M = np.zeros((dh, dh * dk), dtype=np.complex128)
    C = np.zeros((dh * dk, dh * dk), dtype=np.complex128)
    for i in range(1, dk + 1):
        L[(i - 1) * dh : i * dh] = grid[i, 0] - g00 + 0.5 * eye
        M[:, (i - 1) * dh : i * dh] = grid[0, i] - g00 + 0.5 * eye
    for i in range(1, dk + 1):
        for j in range(1, dk + 1):
            C[(i - 1) * dh : i * dh, (j - 1) * dh : j * dh] = (
                grid[i, j] - grid[i, 0] - grid[0, j] + g00
            )
    return g00.copy(), L, M, C


def contractive_cases(mode):
    """Contractive generators for dim_h 1-4 and dim_k 0-3 in one C mode.

    dim_k = 0 keeps the drift K of the dim_k = 1 model, which is contractive
    on its own since K + K* <= -L* L.
    """
    for dim_h in range(1, 5):
        for dim_k in range(4):
            F = random_contractive(dim_h, max(dim_k, 1), seed=10 * dim_h + dim_k, mode=mode)
            if not dim_k:
                F = zero_generator(dim_h, 0, K=F.K)
            yield F


def _cells_loop(dim_k):
    """0, e_1, ..., e_dim_k, one vector at a time."""
    cells = [np.zeros(dim_k, dtype=np.complex128)]
    for i in range(dim_k):
        cells.append(np.zeros(dim_k, dtype=np.complex128))
        cells[-1][i] = 1.0
    return cells


def coords_from_f_loops(F):
    """``coords_from_f``, one ``g_generator`` call per coordinate cell."""
    cells = _cells_loop(F.dim_k)
    return np.array([[g_generator(F, c, d) for d in cells] for c in cells])


def family_q(family, c, d, t):
    """Q^{c,d}_t read from a cached family as a refinement of one piece."""
    [q] = family.factors([c], [d], [t])
    return q


def trotter_kato_loops(F, n_list, T, grid_points):
    """``trotter_kato_pipeline``'s error table from two cached families, one
    ``op_norm`` per pair and grid time."""
    cells = _cells_loop(F.dim_k)
    pairs = [(cells[0], cells[0])]
    if F.dim_k:
        pairs += [(cells[1], cells[1]), (cells[1], cells[0])]
    base = SemigroupFamily(F)
    grid = np.linspace(0.0, T, grid_points)
    return np.array([
        [max(op_norm(family_q(fam_n, c, d, t) - family_q(base, c, d, t)) for t in grid) for c, d in pairs]
        for fam_n in (SemigroupFamily(yosida_approx(F, n)) for n in n_list)
    ])


def dual_defect_loops(F):
    """The ``dual`` command's worst defect, one ``op_norm`` per cell pair and time."""
    fam, dual_fam = SemigroupFamily(F), SemigroupFamily(dual_generator(F))
    cells = _cells_loop(F.dim_k)
    return max(
        op_norm(family_q(dual_fam, c, d, t) - np.conj(family_q(fam, d, c, t)).T)
        for c in cells for d in cells for t in (0.1, 0.5, 1.0)
    )


def assert_bitwise(got, want):
    """Same dtype, shape and bytes: signed zeros and NaN payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_unit(rng, n):
    v = random_complex(rng, n)
    return v / np.linalg.norm(v)


def random_step(rng, dim_k, max_jumps, horizon, scale=0.7):
    """Random step function with up to max_jumps interior jumps."""
    jumps = int(rng.integers(0, max_jumps + 1))
    interior = np.sort(rng.uniform(0.0, horizon, size=jumps))
    if interior.size:
        interior = interior[np.concatenate(([True], np.diff(interior) > 1e-9))]
    bps = np.concatenate(([0.0], interior))
    vals = random_complex(rng, (bps.size, dim_k), scale / np.sqrt(max(dim_k, 1)))
    end = horizon * float(rng.uniform(0.7, 1.2))
    end = max(end, bps[-1])
    return StepFunction(bps, vals, end)


def _cut_points(f, g, a, b):
    pts = {a, b}
    for fn in (f, g):
        pts.update(x for x in fn.breakpoints if a < x < b)
        if a < fn.support_end < b:
            pts.add(float(fn.support_end))
    return sorted(pts)


def pointwise_element(F, u, f, v, g, t):
    """<u eps(f), V_t v eps(g)> from a fresh refinement of [0, t).

    The per-time reference for the grid sweep: the ordered product of the
    unnormalized semigroups P^{c,d}_dt = expm(dt (E^c-hat F E_d-hat + <c, d>))
    over the joint cut points of [0, t), each built from the assembled matrix
    with scipy's expm, the cut points found with set loops and scalar
    step-function calls, and exp of int_t^inf <f, g> summed piece by piece;
    nothing is carried over from another time or shared with the package's
    semigroup cache.
    """
    prod = np.eye(F.dim_h, dtype=np.complex128)
    cuts = _cut_points(f, g, 0.0, t)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c, d = f(lo), g(lo)
        gen = kron_component(F, c, d) + np.vdot(c, d) * np.eye(F.dim_h)
        prod = prod @ scipy_expm((hi - lo) * gen)
    tail = 0.0 + 0.0j
    end = max(f.support_end, g.support_end)
    if end > t:
        cuts = _cut_points(f, g, t, end)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            tail += np.vdot(f(lo), g(lo)) * (hi - lo)
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    return complex(np.vdot(u, prod @ v) * np.exp(tail))


def aligned_step(rng, dim_k, t, jumps, base=256, scale=0.7):
    """Step function whose jumps sit on the N = base lattice of [0, t].

    Keeps discontinuities resolved exactly by every lattice with N a multiple
    of base, isolating the smooth first-order Euler error in convergence
    studies.
    """
    ks = np.sort(rng.choice(np.arange(1, base), size=jumps, replace=False))
    bps = np.concatenate(([0.0], ks * (t / base)))
    vals = random_complex(rng, (bps.size, dim_k), scale / np.sqrt(max(dim_k, 1)))
    end = t + float(rng.uniform(0.1, 0.6))
    return StepFunction(bps, vals, end)


def lattice_runs(tau, n, *fns):
    """Reference for ``toyfock._runs``: evaluates every fn at all n slot times.

    A run starts wherever the row of values changes from the previous slot's;
    O(N dim_k) time and memory, so only for moderate N.
    """
    times = tau * np.arange(n)
    values = [fn.at(times) for fn in fns]
    changed = np.logical_or.reduce([col[1:] != col[:-1] for v in values for col in v.T])
    starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
    one, root = np.ones((starts.size, 1)), np.sqrt(tau)
    return np.diff(starts, append=n), [np.hstack([one, root * v[starts]]) for v in values]


def _run_superoperator(ops):
    """S = sum_a A_a (x) conj(A_a) for one run's Kraus operators ``ops``."""
    dh = ops.shape[-1]
    return np.einsum("apq,ast->psqt", ops, ops.conj()).reshape(dh * dh, -1)


def slot_apply_per_run(rho, g4, etas, counts):
    """``_kernels.slot_apply`` with one superoperator formed per run, stepped
    runs included: the loop form of its stacked call, on the same branches."""
    m, dh = g4.shape[:2]
    runs = zip(np.einsum("rb,apbq->rapq", etas, g4)[::-1], list(map(int, counts))[::-1], strict=True)
    for ops, count in runs:
        squared = dh * (m + 2 * dh**2 * math.log2(count)) < 2 * m * count
        if squared or dh * (m + count) < 2 * m * count:
            superop, vec = _run_superoperator(ops), rho.reshape(-1)
            if squared:
                vec = _kernels.element_chain(superop[None], [count]) @ vec
            else:
                for _ in range(count):
                    vec = superop @ vec
            rho = vec.reshape(dh, dh)
        else:
            adjoint = ops.conj().swapaxes(-1, -2)
            for _ in range(count):
                rho = (ops @ rho @ adjoint).sum(axis=0)
    return rho


def sequential_chain(mats, piece_idx):
    """Ordered product I @ mats[piece_idx[0]] @ mats[piece_idx[1]] ..., one
    factor per slot."""
    mats = np.asarray(mats, dtype=np.complex128)
    acc = np.eye(mats.shape[1], dtype=np.complex128)
    for i in piece_idx:
        acc = acc @ mats[i]
    return acc


def per_slot_chain(F, f, g, t, N):
    """h-matrix of the oracle's Euler product with one factor per slot.

    Slot j contributes E^{xi_j} G_tau E_{eta_j}, with xi_j = (1, sqrt(tau) f(s_j))
    and eta_j = (1, sqrt(tau) g(s_j)) at s_j = j tau, built from explicit
    ``np.kron`` lift maps; no slots are grouped into runs.
    """
    tau = t / N
    root = np.sqrt(tau)
    step = step_matrix(F, tau)
    acc = np.eye(F.dim_h, dtype=np.complex128)
    for j in range(N):
        xi, eta = hat_vector(root * f(j * tau)), hat_vector(root * g(j * tau))
        acc = acc @ compress_map(xi, F.dim_h) @ step @ lift_map(eta, F.dim_h)
    return acc


def reduced_state_norm(F, v, g, t, N):
    """Norm of the discrete state V^(N)_t (v (x) eps_N(g)) from its h-marginal.

    Each slot meets the Euler step G exactly once, while still in its product
    vector eta_j = (1, sqrt(tau) g(s_j)), and is never touched again.  So the
    reduced density matrix follows rho <- Tr_slot[G (rho (x) |eta_j><eta_j|) G*]
    for j = N down to 1, and the squared norm is Tr rho.  G is assembled here
    from the generator blocks, in the block layout (slot index slow, h fast).
    """
    dh, m = F.dim_h, 1 + F.dim_k
    tau = t / N
    root = np.sqrt(tau)
    step = np.block([[np.eye(dh) + tau * F.K, root * F.M], [root * F.L, F.C]])
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    rho = np.outer(v, v.conj())
    for j in range(N, 0, -1):
        eta = np.concatenate(([1.0], root * g((j - 1) * tau)))
        big = step @ np.kron(np.outer(eta, eta.conj()), rho) @ step.conj().T
        rho = np.einsum("aiaj->ij", big.reshape(m, dh, m, dh))
    return float(np.sqrt(np.trace(rho).real))


def lattice_state_norm(F, v, g, t, N):
    """Norm of the discrete state V^(N)_t (v (x) eps_N(g)) on the full lattice.

    The small-N reference for the oracle's reduced recurrence: the product
    state v (x) eta_1 (x) ... (x) eta_N, of dimension dim_h (1+dim_k)^N with h
    slowest and slot N fastest, is built with ``np.kron``, and the Euler step
    acts on (h, slot j) for j = N down to 1 as one contraction over the whole
    state.  G is assembled from the generator blocks in the block layout.
    """
    dh, m = F.dim_h, 1 + F.dim_k
    tau = t / N
    root = np.sqrt(tau)
    step = np.block([[np.eye(dh) + tau * F.K, root * F.M], [root * F.L, F.C]])
    step = step.reshape(m, dh, m, dh)
    state = np.asarray(v, dtype=np.complex128).reshape(-1)
    for j in range(N):
        state = np.kron(state, np.concatenate(([1.0], root * g(j * tau))))
    for j in range(N, 0, -1):
        blocks = state.reshape(dh, m ** (j - 1), m, m ** (N - j))
        state = np.einsum("apbq,qxby->pxay", step, blocks).reshape(-1)
    return float(np.linalg.norm(state))


def hat_vector(d):
    """d-hat = (1, d) in C^(1+dim_k)."""
    d = np.asarray(d, dtype=np.complex128).reshape(-1)
    return np.concatenate(([1.0 + 0.0j], d))


def delta_projector(dim_h, dim_k):
    """Orthogonal projection of h + (h (x) k) onto the noise summand."""
    n = dim_h * (1 + dim_k)
    delta = np.zeros((n, n), dtype=np.complex128)
    for i in range(dim_h, n):
        delta[i, i] = 1.0
    return delta


def lift_map(d, dim_h):
    """E_d : h -> h(x)k, u |-> u (x) d, in the channel-major layout."""
    d = np.asarray(d, dtype=np.complex128).reshape(-1, 1)
    return np.kron(d, np.eye(dim_h, dtype=np.complex128))


def compress_map(c, dim_h):
    """E^c = (E_c)* : h(x)k -> h."""
    return np.conj(lift_map(c, dim_h).T)


def kron_component(F, c, d):
    """E^c-hat F E_d-hat from the assembled matrix and explicit lift maps."""
    dh = F.dim_h
    ec = np.hstack([np.eye(dh), compress_map(c, dh)])
    ed = np.vstack([np.eye(dh), lift_map(d, dh)])
    return ec @ F.full_matrix() @ ed


def chi_loop(c, d):
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    d = np.asarray(d, dtype=np.complex128).reshape(-1)
    return 0.5 * (np.vdot(c, c).real + np.vdot(d, d).real) - np.vdot(c, d)


def reference_criterion(F, probe, degenerate_tol=1e-12):
    """Schur-criterion defect of one probe, or None for a degenerate probe.

    Q^{c,d}_t comes from scipy's expm of the kron-form slice generator, the
    weight matrix from an n^2 loop over chi, the ampliations s (x) I_h from
    ``np.kron`` and the norm from ``np.linalg.norm(., 2)``.
    """
    c_tuple, t, dh = probe.c_tuple, probe.t, F.dim_h
    n = c_tuple.shape[0]
    w = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            w[i, j] = np.exp(-t * chi_loop(c_tuple[i], c_tuple[j]))
    roots = []
    for weight in (probe.a * w, probe.b * w):
        vals, vecs = np.linalg.eigh(0.5 * (weight + weight.conj().T))
        if vals[0] <= degenerate_tol:
            return None
        roots.append((vecs * vals**-0.5) @ vecs.conj().T)
    qy = np.empty_like(probe.y)
    for i in range(n):
        for j in range(n):
            gen = kron_component(F, c_tuple[i], c_tuple[j]) - chi_loop(
                c_tuple[i], c_tuple[j]) * np.eye(dh)
            qy[i * dh:(i + 1) * dh, j] = scipy_expm(t * gen) @ probe.y[i * dh:(i + 1) * dh, j]
    crit = np.kron(roots[0], np.eye(dh)) @ qy @ roots[1]
    return np.linalg.norm(crit, 2) - 1.0


def core_probes_per_probe(F):
    """The deterministic core probes, one ``make_probe`` call each."""
    probes = []
    one = np.ones((1, 1))
    for c in coordinate_cells(F.dim_k):
        for y in np.eye(F.dim_h, dtype=np.complex128)[:, :, None]:
            for t in CORE_TIMES:
                probes.append(make_probe([c], t, one, one, y, dim_h=F.dim_h, probe_id=len(probes)))
    return probes


def per_sample_probes(F, n_max, samples, seed):
    """The random probes drawn and rescaled one sample at a time by make_probe."""
    rng = np.random.default_rng(seed)
    dh, dk = F.dim_h, F.dim_k
    first = len(core_probes_per_probe(F))
    probes = []
    for probe_id in range(first, first + samples):
        n = int(rng.integers(1, n_max + 1))
        c_tuple = np.zeros((n, dk), dtype=complex)
        if n > 1 and dk:
            c_tuple[1:] = random_complex(rng, (n - 1, dk)) / np.sqrt(2.0 * dk)
        t = float(rng.uniform(0.0, 2.0))
        xa, xb = random_complex(rng, (n, n)), random_complex(rng, (n, n))
        a = xa @ np.conj(xa.T) / n + 0.25 * np.eye(n)
        b = xb @ np.conj(xb.T) / n + 0.25 * np.eye(n)
        y = random_complex(rng, (n * dh, n))
        probes.append(make_probe(c_tuple, t, a, b, y, dim_h=dh, probe_id=probe_id))
    return probes


def check_group_separate_roots(probes, q_blocks, tol):
    """Schur defects of probes sharing n, with A o w and B o w rooted by two
    stacked calls and the reports built from numpy scalars."""
    c = np.array([p.c_tuple for p in probes])
    t = np.array([p.t for p in probes])
    w = varpi_matrix(c, t)
    sa, ok_a = psd_inv_sqrt_stack(np.array([p.a for p in probes]) * w)
    sb, ok_b = psd_inv_sqrt_stack(np.array([p.b for p in probes]) * w)
    live = np.flatnonzero(ok_a & ok_b)
    defects = np.full(len(probes), np.nan)
    if live.size:
        y = np.array([p.y for p in probes])[live]
        q = q_blocks(c[live], t[live])
        defects[live] = op_norm_stack(_criterion(sa[live], q, y, sb[live])) - 1.0
    return [
        ProbeReport(probe_id=p.probe_id, n=p.c_tuple.shape[0], t=p.t, defect=float(d),
                    passed=bool(d <= tol), skipped=bool(np.isnan(d)))
        for p, d in zip(probes, defects)
    ]


def screen_reference(F, n_max, samples, seed, tol=PASS_TOL):
    """``screen_family`` from per-probe construction: the core probes one at a
    time on one cached lookup per block, the random ones grouped by n on ``q_stack``."""
    family = SemigroupFamily(F)

    def lookups(c, t):
        return np.array([[[family_q(family, ci, cj, s) for cj in ct] for ci in ct] for ct, s in zip(c, t)])

    def stacked(c, t):
        return q_stack(F, c[:, :, None], c[:, None], t[:, None, None])

    reports = [check_group_separate_roots([p], lookups, tol)[0] for p in core_probes_per_probe(F)]
    groups = {}
    for p in per_sample_probes(F, n_max, samples, seed):
        groups.setdefault(p.c_tuple.shape[0], []).append(p)
    for n in sorted(groups):
        reports += check_group_separate_roots(groups[n], stacked, tol)
    reports.sort(key=lambda r: (-(r.defect if np.isfinite(r.defect) else -np.inf), r.probe_id))
    return reports
