"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import functools
import time

import numpy as np

from qscocycle import (
    BlockGenerator,
    OscillatorSpec,
    birth_death,
    cocycle_defect,
    coords_from_f,
    coords_to_f,
    dual_generator,
    exp_inner,
    form_defect,
    full_matrix_element,
    generator_from_semigroups,
    inverse_oscillator,
    mat_exp,
    op_norm,
    oracle_matrix_element,
    oracle_state_norm,
    q_stack,
    random_contractive,
    screen_family,
    sliced_element,
    trotter_kato_pipeline,
    StepFunction,
)
from qscocycle.generator import adjoint, component
from qscocycle.reconstruct import deterministic_core_probes

from oracles import (
    aligned_step,
    block_gap,
    classical_rate_matrix,
    compress_map,
    diagonal_flow_generator,
    lift_map,
    random_complex,
    random_step,
    random_unit,
    scalar_hp,
    zero_generator,
)


def report(index: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_cocycle_functional_equation():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(200):
        dim_h = int(rng.integers(1, 5))
        dim_k = int(rng.integers(1, 3))
        mode = "unitary_C" if case % 2 else "strict_C"
        F = random_contractive(dim_h, dim_k, seed=1000 + case, mode=mode)
        f = random_step(rng, dim_k, 5, 2.0)
        g = random_step(rng, dim_k, 5, 2.0)
        r, t = rng.uniform(0.0, 2.0, size=2)
        defect = cocycle_defect(F, f, g, r, t)
        scale = op_norm(sliced_element(F, f, g, r + t)) * abs(
            exp_inner(f, g, r + t, None)
        )
        worst = max(worst, defect / max(scale, 1e-12))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(1, ok, f"worst relative defect {worst:.3e} over 200 cases in {elapsed:.1f}s")


def test_criterion_2_engine_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_richardson = 0.0
    ratios = []
    richardson_ratios = []
    for case in range(25):
        dim_h = int(rng.integers(1, 4))
        dim_k = int(rng.integers(1, 3))
        F = random_contractive(dim_h, dim_k, seed=2000 + case,
                               mode="unitary_C" if case % 2 else "strict_C")
        t = float(rng.uniform(0.8, 2.0))
        f = aligned_step(rng, dim_k, t, int(rng.integers(1, 5)))
        g = aligned_step(rng, dim_k, t, int(rng.integers(1, 5)))
        u, v = random_unit(rng, dim_h), random_unit(rng, dim_h)
        engine = full_matrix_element(F, u, f, v, g, t)
        values = {
            n: oracle_matrix_element(F, u, f, v, g, t, n)
            for n in (256, 512, 1024, 4096, 8192, 32768, 65536)
        }
        errs = {n: abs(value - engine) for n, value in values.items()}
        for big, small in ((256, 512), (512, 1024)):
            ratios.append(errs[small] / errs[big])
        worst_rel = max(worst_rel, errs[4096] / max(abs(engine), 1e-12))
        # Richardson extrapolation 2 O(2N) - O(N) cancels the first-order
        # Euler error; what is left is second order in 1/N.
        coarse, fine = (
            abs(2.0 * values[2 * n] - values[n] - engine) for n in (4096, 32768)
        )
        worst_richardson = max(worst_richardson, fine / max(abs(engine), 1e-12))
        richardson_ratios.append(fine / coarse)
    ok = (
        all(0.35 <= r <= 0.7 for r in ratios)
        and worst_rel <= 1e-2
        and worst_richardson <= 1e-6
        and all(1.0 / 128 <= r <= 1.0 / 32 for r in richardson_ratios)
    )
    report(
        2,
        ok,
        f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}], "
        f"worst relative error at N=4096 {worst_rel:.2e}, "
        f"worst relative Richardson error at N=65536 {worst_richardson:.2e}, "
        f"Richardson ratio range [{min(richardson_ratios):.4f}, "
        f"{max(richardson_ratios):.4f}]",
    )


def test_criterion_3_schur_criterion_forward_direction():
    violations = 0
    worst = -np.inf
    for case in range(20):
        F = random_contractive(
            2 + case % 2, 1 + case % 2, seed=3000 + case,
            mode="unitary_C" if case % 2 else "strict_C",
        )
        reports = screen_family(F, n_max=3, samples=1000, seed=300 + case, tol=1e-8)
        live = [r for r in reports if not r.skipped]
        violations += sum(1 for r in live if r.defect > 1e-8)
        worst = max(worst, max(r.defect for r in live))
    planted = zero_generator(2, 1, C=1.5 * np.eye(2))
    core_count = len(deterministic_core_probes(planted))
    planted_reports = screen_family(planted, n_max=1, samples=1, seed=0, tol=1e-8)
    planted_flagged = any(
        not r.skipped and not r.passed and r.probe_id < core_count
        for r in planted_reports
    )
    ok = violations == 0 and planted_flagged
    report(
        3,
        ok,
        f"{violations} violations in 20x1000 probes (worst defect {worst:.2e}); "
        f"planted C=1.5I flagged by core set: {planted_flagged}",
    )


def test_criterion_4_stochastic_trotter_kato():
    models = {
        "scalar HP": scalar_hp(),
        "oscillator dim 6": inverse_oscillator(
            OscillatorSpec(dim=6, lam=np.ones(7), mu=np.linspace(0.0, 1.0, 6))
        ),
    }
    ok = True
    details = []
    for name, F in models.items():
        rep = trotter_kato_pipeline(F, [10, 100, 1000], T=1.0)
        pair_count = rep.errors.shape[1]
        for pair in range(pair_count):
            errs = rep.errors[:, pair]
            if errs[0] <= 1e-13:
                continue
            if not (rep.monotone and errs[2] <= errs[0] / 5.0):
                ok = False
        worst_pair = max(rep.errors[0, p] for p in range(pair_count))
        details.append(f"{name}: err(10) max {worst_pair:.2e}, monotone {rep.monotone}")
    report(4, ok, "; ".join(details))


def test_criterion_5_duality():
    rng = np.random.default_rng(505)
    worst = 0.0
    for seed in (50, 51, 52, 53):
        F = random_contractive(
            int(rng.integers(1, 4)), int(rng.integers(1, 3)), seed=seed,
            mode="unitary_C" if seed % 2 else "strict_C",
        )
        dual = dual_generator(F)
        for _ in range(25):
            c = random_complex(rng, F.dim_k)
            d = random_complex(rng, F.dim_k)
            t = float(rng.uniform(0.0, 2.0))
            worst = max(
                worst, op_norm(q_stack(dual, c, d, t) - np.conj(q_stack(F, d, c, t).T))
            )
    ok = worst <= 1e-12
    report(5, ok, f"max dual-relation defect over 100 probes {worst:.2e}")


def test_criterion_6_coordinates_round_trip():
    rng = np.random.default_rng(606)
    worst = 0.0
    for case in range(50):
        dim_k = 1 + case % 3
        dim_h = int(rng.integers(1, 4))
        F = BlockGenerator(
            dim_h=dim_h, dim_k=dim_k,
            K=random_complex(rng, (dim_h, dim_h)),
            L=random_complex(rng, (dim_h * dim_k, dim_h)),
            M=random_complex(rng, (dim_h, dim_h * dim_k)),
            C=random_complex(rng, (dim_h * dim_k, dim_h * dim_k)),
        )
        back = coords_to_f(coords_from_f(F))
        worst = max(
            worst,
            op_norm(back.K - F.K), op_norm(back.L - F.L),
            op_norm(back.M - F.M), op_norm(back.C - F.C),
        )
    ok = worst <= 1e-12
    report(6, ok, f"worst round-trip error over 50 generators {worst:.2e}")


def oracle_semigroup(F, N):
    """Q^{c,d}_t from the repeated-interaction oracle: elements between basis
    vectors and eps(c 1_[0,t)), eps(d 1_[0,t)), over exp(t (|c|^2 + |d|^2)/2);
    the tail factor is 1."""
    basis = np.eye(F.dim_h)

    def q(c, d, t):
        f, g = StepFunction.constant(c, t), StepFunction.constant(d, t)
        els = [[oracle_matrix_element(F, u, f, v, g, t, N) for v in basis] for u in basis]
        return np.array(els) / np.exp(0.5 * t * (np.vdot(c, c).real + np.vdot(d, d).real))

    return q


def test_criterion_7_generator_slice_identities():
    rng = np.random.default_rng(707)
    worst_affine = 0.0
    worst_increment = 0.0
    ratios = []
    for seed in (70, 71, 72):
        F = random_contractive(3, 2, seed=seed)
        eye = np.eye(3)

        def h_slice(c, d):
            return component(F, c, d) + np.vdot(c, d) * eye

        c, b, d, e = (random_complex(rng, 2) for _ in range(4))
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = h_slice(c, (1 - z) * b + z * d)
        rhs = (1 - z) * h_slice(c, b) + z * h_slice(c, d)
        worst_affine = max(worst_affine, op_norm(lhs - rhs))
        inc = h_slice(c + e, d) - h_slice(c, d)
        exact = compress_map(e, 3) @ (F.L + F.C @ lift_map(d, 3))
        worst_increment = max(worst_increment, op_norm(inc - exact))

        exact_t = F.L + F.C @ lift_map(d, 3)
        recovered = [
            generator_from_semigroups(functools.partial(q_stack, F), 2, t) for t in (1e-2, 5e-3, 2.5e-3)
        ]
        errs_t = [op_norm(R.L + R.C @ lift_map(d, 3) - exact_t) for R in recovered]
        errs_c = [op_norm(R.C - F.C) for R in recovered]
        for errs in (errs_t, errs_c):
            assert errs[0] > 1e-8
            ratios.extend(small / big for small, big in zip(errs[1:], errs[:-1]))
    scalar = generator_from_semigroups(functools.partial(q_stack, scalar_hp()), 1, 1e-3)
    scalar_err = abs(scalar.L[0, 0] - 1.0)
    # The cocycle against its generator directly: the oracle's semigroups
    # read back at t = 1e-2 approach the engine's with O(1/N) error.
    oracle_ratios = []
    for seed in (70, 71):
        F = random_contractive(3, 2, seed=seed)
        engine = generator_from_semigroups(functools.partial(q_stack, F), 2, 1e-2)
        gaps = [
            block_gap(generator_from_semigroups(oracle_semigroup(F, N), 2, 1e-2), engine)
            for N in (256, 1024, 4096)
        ]
        oracle_ratios.extend(small / big for small, big in zip(gaps[1:], gaps[:-1]))
    ok = (
        worst_affine <= 1e-12
        and worst_increment <= 1e-12
        and all(0.4 <= r <= 0.6 for r in ratios)
        and scalar_err <= 5e-3
        and all(0.2 <= r <= 0.3 for r in oracle_ratios)
    )
    report(
        7,
        ok,
        f"affinity {worst_affine:.2e}, increment {worst_increment:.2e}, "
        f"halving ratios [{min(ratios):.3f}, {max(ratios):.3f}], "
        f"scalar recovery {scalar_err:.2e}, "
        f"oracle 4xN ratios [{min(oracle_ratios):.3f}, {max(oracle_ratios):.3f}]",
    )


def test_criterion_8_isometry_equality_case():
    shrinks = True
    rate_ratios = []
    richardson = {8: [], 4: []}
    sizes = [2**p for p in range(10, 17)]
    g = StepFunction.constant([0.6], 1.0)
    for seed in (80, 81):
        F = random_contractive(2, 1, seed=seed, mode="unitary_C")
        rng = np.random.default_rng(seed)
        v = random_unit(rng, 2)
        reference = np.linalg.norm(v) * np.sqrt(abs(exp_inner(g, g, 0.0, None)))
        defects = {
            n: abs(oracle_state_norm(F, v, g, 1.0, n) - reference) for n in (12, 16)
        }
        if not defects[16] < defects[12]:
            shrinks = False
        # The isometric defect is first order in 1/N, so it halves with each
        # doubling; Richardson extrapolation 2 n(2N) - n(N) cancels it and
        # leaves a second-order residual.
        norms = {n: oracle_state_norm(F, v, g, 1.0, n) for n in sizes}
        rate_ratios += [
            (norms[n] - reference) / (norms[2 * n] - reference) for n in sizes[:-1]
        ]
        residual = {
            n: abs(2.0 * norms[2 * n] - norms[n] - reference) for n in (2**10, 2**13, 2**15)
        }
        richardson[8].append(residual[2**13] / residual[2**10])
        richardson[4].append(residual[2**15] / residual[2**13])
    spec = OscillatorSpec(dim=6, lam=np.linspace(1.0, 1.5, 7), mu=np.ones(6))
    F = inverse_oscillator(spec)
    full = F.full_matrix()
    delta_f = full.copy()
    delta_f[: F.dim_h, :] = 0.0
    f_delta = full.copy()
    f_delta[:, : F.dim_h] = 0.0
    left = full + adjoint(full) + adjoint(full) @ delta_f
    right = full + adjoint(full) + f_delta @ adjoint(f_delta)
    interior = [i for i in range(F.total_dim) if i != F.dim_h - 1]
    left_max = np.abs(left[np.ix_(interior, interior)]).max()
    right_max = np.abs(right[np.ix_(interior, interior)]).max()
    rng = np.random.default_rng(808)
    worst_form = 0.0
    for _ in range(20):
        xi = random_complex(rng, F.total_dim)
        xi[F.dim_h - 1] = 0.0
        worst_form = max(worst_form, abs(form_defect(F, xi)) / np.vdot(xi, xi).real)
    ok = (
        shrinks
        and all(1.9 <= r <= 2.1 for r in rate_ratios)
        and all(1.0 / 128 <= r <= 1.0 / 32 for r in richardson[8])
        and all(1.0 / 32 <= r <= 1.0 / 8 for r in richardson[4])
        and left_max == 0.0
        and right_max == 0.0
        and worst_form <= 1e-13
    )
    report(
        8,
        ok,
        f"norm defect shrinks N=12->16: {shrinks}; defect halving ratios "
        f"[{min(rate_ratios):.4f}, {max(rate_ratios):.4f}] for N=2^10..2^16; "
        f"Richardson ratios 2^10->2^13 {min(richardson[8]):.4f}-{max(richardson[8]):.4f}, "
        f"2^13->2^15 {min(richardson[4]):.4f}-{max(richardson[4]):.4f}; "
        f"interior operator residues {left_max:.1e}/{right_max:.1e}; "
        f"interior form defect {worst_form:.1e}",
    )


def test_criterion_9_birth_death_classical_consistency():
    rng = np.random.default_rng(909)
    worst_entry = 0.0
    for dim, t in ((12, 0.4), (30, 0.5)):
        birth = rng.uniform(0.5, 1.5, size=dim)
        death = rng.uniform(0.5, 1.5, size=dim)
        F = birth_death(dim, birth, death)
        quantum = diagonal_flow_generator(F)
        classical = classical_rate_matrix(birth, death)
        interior = slice(1, dim - 1)
        diff = np.abs(
            mat_exp(t * quantum.astype(complex))
            - mat_exp(t * classical.astype(complex))
        )
        worst_entry = max(worst_entry, diff[interior, interior].max())
    # Constant-rate chain, deep interior: conservation and survival amplitudes.
    dim, t = 30, 0.5
    F = birth_death(dim, np.ones(dim), np.ones(dim))
    classical = classical_rate_matrix(np.ones(dim), np.ones(dim))
    transition = mat_exp(t * classical.astype(complex)).real
    row_sum_defect = np.abs(transition[12:18].sum(axis=1) - 1.0).max()
    q = q_stack(F, np.zeros(2), np.zeros(2), t)
    survival_defect = max(
        abs(q[n, n] - np.exp(-0.5 * 2.0 * t)) for n in range(12, 18)
    )
    ok = worst_entry <= 1e-8 and row_sum_defect <= 1e-8 and survival_defect <= 1e-12
    report(
        9,
        ok,
        f"interior transition mismatch {worst_entry:.2e}, deep-interior row-sum "
        f"defect {row_sum_defect:.2e}, survival-amplitude defect {survival_defect:.2e}",
    )
