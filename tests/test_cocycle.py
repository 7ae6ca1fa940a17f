import functools
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qscocycle import (
    BlockGenerator,
    OscillatorSpec,
    SemigroupFamily,
    StepFunction,
    birth_death,
    classify,
    cocycle_defect,
    exp_inner,
    form_defect,
    from_hlc,
    full_matrix_element,
    generator_from_semigroups,
    inverse_oscillator,
    make_probe,
    op_norm,
    oracle_matrix_element,
    oracle_state_norm,
    random_contractive,
    screen_family,
    sliced_element,
    step_matrix,
    trotter_kato_pipeline,
    varpi_matrix,
    yosida_approx,
)
from qscocycle import semigroups
from qscocycle.cocycle import _log_norms, _refinement
from qscocycle.semigroups import dual_generator, g_generator, q_stack

from oracles import (
    assert_bitwise,
    lift_map,
    pointwise_element,
    random_complex,
    random_step,
    random_unit,
    scalar_hp,
    zero_generator,
)


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def eps_norm(f, a=0.0, b=None):
    return float(np.sqrt(abs(exp_inner(f, f, a, b))))


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(ValueError, match="first breakpoint"):
            StepFunction(np.array([0.5]), np.zeros((1, 1)), 1.0)
        with pytest.raises(ValueError, match="increasing"):
            StepFunction(np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)), 1.0)
        with pytest.raises(ValueError, match="values"):
            StepFunction(np.array([0.0, 0.5]), np.zeros((1, 1)), 1.0)
        with pytest.raises(ValueError, match="support_end"):
            StepFunction(np.array([0.0, 0.5]), np.zeros((2, 1)), 0.3)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="values must be finite"):
                StepFunction(np.array([0.0]), np.array([[bad]]), 1.0)
        with pytest.raises(ValueError, match=r"shape \(1, 2, 2\)"):
            StepFunction(np.zeros(1), np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(ValueError, match="at least one breakpoint"):
            StepFunction(np.zeros(0), np.zeros((0, 1)), 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="breakpoints must be finite"):
                StepFunction(np.array([0.0, bad]), np.zeros((2, 1)), 1.0)

    def test_constant_takes_a_scalar_or_a_vector(self):
        assert StepFunction.constant(0.5j, 1.0).values.tolist() == [[0.5j]]
        assert StepFunction.constant([1.0, 2.0], 1.0).values.tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError, match=r"^value of shape \(2, 2\) must be a scalar or a \(dim_k,\) vector$"):
            StepFunction.constant([[1, 2], [3, 4]], 1.0)

    def test_right_continuous_evaluation(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]), 3.0)
        assert f(0.0)[0] == 1.0
        assert f(0.999)[0] == 1.0
        assert f(1.0)[0] == 2.0
        assert f(2.999)[0] == 2.0
        assert f(3.0)[0] == 0.0
        assert f(10.0)[0] == 0.0
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative, got t=-0\.1$"):
            f(-0.1)
        grid = np.array([0.0, 0.999, 1.0, 2.999, 3.0, 10.0])
        assert f.at(grid)[:, 0].tolist() == [1.0, 1.0, 2.0, 2.0, 0.0, 0.0]

    def test_caller_arrays_are_copied(self):
        bp, values = np.array([0.0, 1.0]), np.array([[1.0], [2.0]])
        f = StepFunction(bp, values, 2.0)
        bp[1], values[1] = 1.8, 5.0
        assert f(1.5)[0] == 2.0
        assert f.breakpoints.tolist() == [0.0, 1.0]
        assert not (f.breakpoints.flags.writeable or f.values.flags.writeable)

    def test_shifted(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]), 3.0)
        g = f.shifted(0.5)
        assert g(0.0)[0] == 1.0
        assert g(0.5)[0] == 2.0
        assert g(2.4)[0] == 2.0
        assert g(2.5)[0] == 0.0
        assert f.shifted(5.0).support_end == 0.0

    def test_reversal_involution_off_breakpoints(self):
        rng = np.random.default_rng(0)
        f = random_step(rng, 2, 4, 1.5)
        t = 1.3
        h = f.reversed_on(t).reversed_on(t)
        for s in np.linspace(0.013, 2.4, 37):
            assert np.allclose(h(s), f(s), atol=1e-12)

    def test_reversal_reflects(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]), 3.0)
        r = f.reversed_on(2.0)
        # On [0, 2): r(s) = f(2 - s); f is 1 on [0,1), 2 on [1,3).
        assert r(0.25)[0] == 2.0
        assert r(1.5)[0] == 1.0
        # Unchanged past the reversal horizon.
        assert r(2.5)[0] == 2.0
        assert r(3.5)[0] == 0.0
        # Reversal on the empty interval [0, 0) changes nothing.
        assert f.reversed_on(0.0) is f

    def test_zero_and_constant_constructors(self):
        z = StepFunction.zero(2)
        assert z(0.7).tolist() == [0.0, 0.0]
        c = StepFunction.constant([1.0, 2.0j], 1.5)
        assert c(1.49).tolist() == [1.0, 2.0j]
        assert c(1.5).tolist() == [0.0, 0.0]


class TestExpInner:
    def test_zero_functions(self):
        z = StepFunction.zero(1)
        assert exp_inner(z, z, 0.0, 5.0) == 1.0

    def test_constant(self):
        c = np.array([0.3 + 0.4j, -1.0j])
        f = StepFunction.constant(c, 1.0)
        expect = np.exp(np.vdot(c, c).real)
        assert abs(exp_inner(f, f, 0.0, 1.0) - expect) < 1e-12

    def test_partial_overlap_by_hand(self):
        # f = 1 on [0,2), g = i on [1,3): overlap [1,2) contributes <1, i> = i.
        f = StepFunction.constant([1.0], 2.0)
        g = StepFunction(np.array([0.0, 1.0]), np.array([[0.0], [1.0j]]), 3.0)
        assert abs(exp_inner(f, g, 0.0, 3.0) - np.exp(1.0j)) < 1e-14

    def test_interval_split_multiplicative(self):
        rng = np.random.default_rng(1)
        f = random_step(rng, 2, 4, 2.0)
        g = random_step(rng, 2, 3, 2.0)
        whole = exp_inner(f, g, 0.0, None)
        split = exp_inner(f, g, 0.0, 0.9) * exp_inner(f, g, 0.9, None)
        assert abs(whole - split) <= 1e-12 * abs(whole)

    def test_error_cases(self):
        z = StepFunction.zero(1)
        with pytest.raises(ValueError, match="order"):
            exp_inner(z, z, 2.0, 1.0)
        with pytest.raises(ValueError, match="b=nan"):
            exp_inner(z, z, 0.0, float("nan"))
        with pytest.raises(ValueError, match="mismatch"):
            exp_inner(z, StepFunction.zero(2), 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^a must be finite and nonnegative, got a=-1\.0$"):
            exp_inner(StepFunction.constant([1.0], 2.0), z, -1.0, 1.0)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_grid_matches_pointwise(self, seed):
        rng = np.random.default_rng(seed)
        f = random_step(rng, 2, 5, 2.0)
        g = random_step(rng, 2, 5, 2.0)
        end = max(f.support_end, g.support_end)
        uniform = np.linspace(0.0, end, 21)
        # t = 0 twice, every breakpoint and both support ends, repeated times
        # and times past both supports (one repeated).
        marks = [0.0, 0.0, *f.breakpoints, *g.breakpoints, f.support_end, g.support_end,
                 end + 0.25, end + 0.5, end + 0.5]
        times = np.sort(np.concatenate((uniform, uniform[::4], marks)))
        for b, grid in ((None, times), (end + 1.0, times), (1.0, times[times <= 1.0])):
            got = exp_inner(f, g, grid, b)
            ref = np.array([exp_inner(f, g, t, b) for t in grid])
            assert got.shape == grid.shape
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_grid_edge_cases(self):
        f = StepFunction.constant([1.0], 2.0)
        assert exp_inner(f, f, np.array([]), None).shape == (0,)
        assert isinstance(exp_inner(f, f, 0.5, None), complex)
        with pytest.raises(ValueError, match=r"^a must be finite and nonnegative, got a=-0\.5$"):
            exp_inner(f, f, [-0.5, 0.5], None)
        with pytest.raises(ValueError, match="order"):
            exp_inner(f, f, [0.2, 1.5], 1.0)
        with pytest.raises(ValueError, match="nondecreasing"):
            exp_inner(f, f, [0.5, 0.2], None)


class TestSlicedElement:
    def test_identity_cocycle(self):
        F = zero_generator(2, 1)
        rng = np.random.default_rng(2)
        f = random_step(rng, 1, 3, 1.5)
        g = random_step(rng, 1, 3, 1.5)
        t = 1.2
        out = sliced_element(F, f, g, t)
        # Q^{c,d}_dt = exp(-dt chi(c, d)), so the slice is exp(-int_0^t chi(f, g)).
        expect = exp_inner(f, g, 0.0, t) / (eps_norm(f, 0.0, t) * eps_norm(g, 0.0, t)) * np.eye(2)
        assert op_norm(out - expect) <= 1e-12

    def test_time_zero(self):
        F = scalar_hp()
        z = StepFunction.zero(1)
        assert np.array_equal(sliced_element(F, z, z, 0.0), np.eye(1))

    def test_scalar_hp_vacuum(self):
        z = StepFunction.zero(1)
        out = sliced_element(scalar_hp(), z, z, 1.0)
        assert abs(out[0, 0] - 0.6065306597126334) < 1e-14

    def test_negative_time_rejected(self):
        z = StepFunction.zero(1)
        with pytest.raises(ValueError, match="nonnegative"):
            sliced_element(scalar_hp(), z, z, -1.0)

    def test_dim_k_check(self):
        z, z2 = StepFunction.zero(1), StepFunction.zero(2)
        with pytest.raises(ValueError, match="^step functions have dim_k 1, 2; generator has 1$"):
            sliced_element(scalar_hp(), z, z2, 1.0)

    @pytest.mark.parametrize("start", [0.0])
    def test_grid_matches_pointwise(self, start):
        F = random_contractive(3, 2, seed=22)
        rng = np.random.default_rng(23)
        f = random_step(rng, 2, 5, 2.0)
        g = random_step(rng, 2, 5, 2.0)
        end = max(f.support_end, g.support_end)
        marks = [start, start, *f.breakpoints, *g.breakpoints, f.support_end, g.support_end,
                 end + 0.25, end + 0.5, end + 0.5]
        times = np.sort(np.concatenate((np.linspace(start, end, 21), marks)))
        got = sliced_element(F, f, g, times)
        assert got.shape == (times.size, 3, 3)
        for t, out in zip(times, got):
            ref = sliced_element(F, f, g, t)
            assert op_norm(out - ref) <= 1e-12 * max(1.0, op_norm(ref))

    def test_grid_rejects_bad_times(self):
        F = random_contractive(2, 1, seed=24)
        z = StepFunction.zero(1)
        assert sliced_element(F, z, z, np.array([])).shape == (0, 2, 2)
        with pytest.raises(ValueError, match="nondecreasing"):
            sliced_element(F, z, z, [0.5, 0.2])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                sliced_element(F, z, z, [0.1, bad])

    def test_markov_slice_matches_q_exactly(self):
        F = random_contractive(3, 2, seed=3)
        z = StepFunction.zero(2)
        for t in (0.4, 1.1):
            assert np.array_equal(
                sliced_element(F, z, z, t),
                q_stack(F, np.zeros(2), np.zeros(2), t),
            )

    def test_refinement_invariance(self):
        F = random_contractive(2, 2, seed=4)
        rng = np.random.default_rng(5)
        f = random_step(rng, 2, 3, 1.5)
        g = random_step(rng, 2, 3, 1.5)
        t = 1.4
        base = sliced_element(F, f, g, t)
        # Insert spurious breakpoints with unchanged values.
        extra = np.sort(np.concatenate([f.breakpoints, [0.123, 0.77, 1.111]]))
        refined = StepFunction(extra, np.array([f(b) for b in extra]), f.support_end)
        out = sliced_element(F, refined, g, t)
        assert op_norm(out - base) <= 1e-12 * max(1.0, op_norm(base))

    def test_cauchy_schwarz_contraction_bound(self):
        # |<u eps(f), V_t v eps(g)>| <= |u| |v| |eps(f)| |eps(g)| for a
        # contraction V_t, on the unnormalized scale that full_matrix_element
        # restores from the normalized slice; u and v are the top singular
        # vectors of that slice.
        F = random_contractive(3, 2, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_step(rng, 2, 4, 1.5)
            g = random_step(rng, 2, 4, 1.5)
            t = float(rng.uniform(0.2, 2.0))
            left, _, right = np.linalg.svd(sliced_element(F, f, g, t))
            out = full_matrix_element(F, left[:, 0], f, right[0].conj(), g, t)
            assert abs(out) <= eps_norm(f) * eps_norm(g) * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_normalized_slices_are_contractions(self, seed):
        # Between normalized exponential vectors every slice of a contraction
        # cocycle is a contraction, at every time of a grid.
        rng = np.random.default_rng(30 + seed)
        F = random_contractive(
            int(rng.integers(1, 5)), int(rng.integers(1, 4)), seed=seed,
            mode="unitary_C" if seed % 2 else "strict_C",
        )
        f = random_step(rng, F.dim_k, 5, 2.0)
        g = random_step(rng, F.dim_k, 5, 2.0)
        times = np.linspace(0.0, 2.5, 26)
        assert max(op_norm(m) for m in sliced_element(F, f, g, times)) <= 1 + 1e-12


class TestFullMatrixElement:
    def test_identity_cocycle(self):
        F = zero_generator(2, 1)
        rng = np.random.default_rng(8)
        f = random_step(rng, 1, 2, 1.0)
        g = random_step(rng, 1, 2, 1.0)
        u, v = random_unit(rng, 2), random_unit(rng, 2)
        got = full_matrix_element(F, u, f, v, g, 0.8)
        expect = np.vdot(u, v) * exp_inner(f, g, 0.0, None)
        assert abs(got - expect) < 1e-12

    def test_zero_state(self):
        F = scalar_hp()
        z = StepFunction.zero(1)
        assert full_matrix_element(F, [1.0], z, [0.0], z, 1.0) == 0.0

    def test_scalar_hp_value(self):
        z = StepFunction.zero(1)
        got = full_matrix_element(scalar_hp(), [1.0], z, [1.0], z, 1.0)
        assert abs(got - 0.6065306597126334) < 1e-14

    def test_dimension_check(self):
        z = StepFunction.zero(1)
        with pytest.raises(ValueError, match="u has dimension 2, expected 1"):
            full_matrix_element(scalar_hp(), [1.0, 0.0], z, [1.0], z, 1.0)

    def test_underflow_is_an_exact_zero(self):
        # The element is e^{-100 t} * e^{-100 (10 - t)} = e^{-1000}, which
        # underflows; the Q-product e^{-200 t} underflows as well while the
        # norm factor e^{100 t} overflows, so 0 * inf must not arise.
        F = zero_generator(1, 1)
        f = StepFunction.constant([10.0], 10.0)
        g = StepFunction.constant([-10.0], 10.0)
        assert full_matrix_element(F, [1.0], f, [1.0], g, 10.0) == 0.0
        got = full_matrix_element(F, [1.0], f, [1.0], g, np.linspace(0.0, 10.0, 5))
        assert np.array_equal(got, np.zeros(5))


def evolve_models():
    """The generators of the benchmark's evolve workload (dim 24 and 12)."""
    osc = inverse_oscillator(
        OscillatorSpec(dim=24, lam=np.ones(25), mu=np.linspace(0.0, 1.0, 24))
    )
    return {
        "oscillator-24": osc,
        "birth-death-12": birth_death(12, np.ones(12), np.linspace(0.5, 1.5, 12)),
    }


def lattice_step(rng, dim_k, pieces=16, end=4.0):
    """``pieces`` values on [0, end) with inner breakpoints on a 1/64 grid."""
    slots = rng.choice(np.arange(1, int(end * 64)), size=pieces - 1, replace=False)
    bps = np.concatenate(([0.0], np.sort(slots) / 64.0))
    return StepFunction(bps, random_complex(rng, (pieces, dim_k), 0.5), end)


class TestMatrixElements:
    @pytest.mark.parametrize("case", ["h2k1", "h3k2", "oscillator-24", "birth-death-12"])
    def test_sweep_matches_pointwise_reference(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        if case in ("h2k1", "h3k2"):
            F = random_contractive(int(case[1]), int(case[3]), seed=18)
            f = random_step(rng, F.dim_k, 6, 2.0)
            g = random_step(rng, F.dim_k, 6, 2.0)
            u, v = random_unit(rng, F.dim_h), random_unit(rng, F.dim_h)
            uniform = np.linspace(0.0, 2.0, 41)
        else:
            F = evolve_models()[case]
            f, g = lattice_step(rng, F.dim_k), lattice_step(rng, F.dim_k)
            u = v = np.eye(F.dim_h)[0]
            uniform = np.linspace(0.0, 4.0, 201)
        # t = 0 twice, every breakpoint and support end, times past both
        # supports (one repeated), and a uniform grid with some times repeated.
        end = max(f.support_end, g.support_end)
        marks = [0.0, 0.0, *f.breakpoints, *g.breakpoints, f.support_end,
                 g.support_end, end + 0.25, end + 0.5, end + 0.5]
        times = np.sort(np.concatenate((uniform, uniform[::9], marks)))
        got = full_matrix_element(F, u, f, v, g, times)
        ref = np.array([pointwise_element(F, u, f, v, g, t) for t in times])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        assert np.array_equal(full_matrix_element(F, u, f, v, g, list(times)), got)
        # A single time is a grid of one, returned as a complex number.
        last = full_matrix_element(F, u, f, v, g, times[-1])
        assert type(last) is complex and abs(last - ref[-1]) <= 1e-12 * abs(ref[-1])

    def test_times_must_be_nondecreasing_and_finite(self):
        F = random_contractive(2, 1, seed=19)
        z = StepFunction.zero(1)
        u = [1.0, 0.0]
        with pytest.raises(ValueError, match="nondecreasing"):
            full_matrix_element(F, u, z, u, z, [0.0, 0.5, 0.2])
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative, got t=nan$"):
            full_matrix_element(F, u, z, u, z, [0.1, np.nan])
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative, got t=inf$"):
            full_matrix_element(F, u, z, u, z, [np.inf])
        with pytest.raises(ValueError, match="nonnegative"):
            full_matrix_element(F, u, z, u, z, [-0.5, 0.5])
        assert full_matrix_element(F, u, z, u, z, []).shape == (0,)

    @pytest.mark.parametrize("call, name", [
        (lambda F, f, t: exp_inner(f, f, t), "a"),
        (lambda F, f, t: sliced_element(F, f, f, t), "t"),
        (lambda F, f, t: full_matrix_element(F, [1.0, 0.0], f, [1.0, 0.0], f, t), "t"),
    ])
    def test_decreasing_grid_names_its_argument(self, call, name):
        # The refusal names the argument and its first decrease, as every
        # other refusal of a time does.
        F, f = random_contractive(2, 1, seed=19), StepFunction.constant([0.5], 1.0)
        message = rf"^{name} must be nondecreasing, got {name}\[2\]=0\.2 after {name}\[1\]=0\.5$"
        with pytest.raises(ValueError, match=message):
            call(F, f, [0.1, 0.5, 0.2, 0.1])

    def test_overflow_names_first_non_finite_time(self):
        # C swaps the two channels, so for f = 3 e_1 and g = 3 e_2 the slice
        # generator is <f, C g> = 9 while <f, g> = 0: the element is e^{9t},
        # finite at t = 50 and not at t = 100.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        F = BlockGenerator(dim_h=1, dim_k=2, K=np.zeros((1, 1)), L=np.zeros((2, 1)),
                           M=np.zeros((1, 2)), C=swap)
        f = StepFunction.constant([3.0, 0.0], 100.0)
        g = StepFunction.constant([0.0, 3.0], 100.0)
        assert abs(full_matrix_element(F, [1.0], f, [1.0], g, [50.0])[0] / np.exp(450.0) - 1) < 1e-12
        with pytest.raises(OverflowError, match="overflowed at t=100"):
            full_matrix_element(F, [1.0], f, [1.0], g, [1.0, 50.0, 100.0, 100.0])

    def test_q_product_overflow_is_named(self):
        # K = 400 I with L = M = C = 0 and f = g = 0.5 on [0, 1): each Q-factor
        # is about e^400 and |eps(f)| = e^0.125, so only the Q-product of the
        # two pieces of [0, 2) overflows, with no numpy warning on the way.
        F = zero_generator(2, 1, K=400.0 * np.eye(2), C=np.zeros((2, 2)))
        f = StepFunction.constant([0.5], 1.0)
        message = r"^Q-product overflowed at t=2: <u, Q-product v> is not finite in double precision$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                full_matrix_element(F, [1.0, 0.0], f, [1.0, 0.0], f, [0.0, 1.0, 2.0])


def generator_cases():
    """Both evolve_grid models and a strict_C random generator, by name."""
    return {**evolve_models(), "random-3-2-strict": random_contractive(3, 2, 1, "strict_C")}


class TestStackedGenerators:
    @pytest.mark.parametrize("case", ["oscillator-24", "birth-death-12", "random-3-2-strict"])
    def test_stacked_generators_equal_single_calls_bitwise(self, case):
        F = generator_cases()[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        distinct = random_complex(rng, (2, 6, F.dim_k), 0.5)
        distinct[:, 0] = 0.0
        # Repeated rows, as a refinement repeats the values of f and g.
        pick = rng.integers(0, 6, size=(2, 20))
        cs, ds = distinct[0, pick[0]], distinct[1, pick[1]]
        fam = SemigroupFamily(F)
        slices = len({(c.tobytes(), d.tobytes()) for c, d in zip(cs, ds)})
        [single] = fam.slice_generators(cs[3], ds[3])
        cached = fam._cache[single]
        keys = fam.slice_generators(cs, ds)
        assert len(keys) == len(cs) and keys[3] == single
        assert len(fam._cache) == slices
        assert fam._cache[single] is cached  # the stack kept the entry it found
        for key, c, d in zip(keys, cs, ds):
            assert key == (c.tobytes(), d.tobytes())
            got = fam._cache[key]
            assert got.shape == (F.dim_h, F.dim_h) and not got.flags.writeable
            assert_bitwise(got.view(np.float64), g_generator(F, c, d).view(np.float64))
            assert fam.slice_generators(c, d) == [key]
        assert len(fam._cache) == slices  # every single read was a hit

    def test_stack_shapes_checked(self):
        fam = SemigroupFamily(random_contractive(2, 2, seed=3))
        assert fam.slice_generators(np.zeros((0, 2)), np.zeros((0, 2))) == []
        assert fam._cache == {}
        expected = r", expected \(2,\) or \(n, 2\) each$"
        with pytest.raises(ValueError, match=r"^slice vectors have shapes \(3, 2\) and \(2, 2\)" + expected):
            fam.slice_generators(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"^slice vectors have shapes \(3, 1\) and \(3, 1\)" + expected):
            fam.slice_generators(np.zeros((3, 1)), np.zeros((3, 1)))
        assert fam.factors(np.zeros((0, 2)), np.zeros((0, 2)), []) == []
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative, got t=nan$"):
            fam.factors(np.zeros((1, 2)), np.zeros((1, 2)), [np.nan])
        assert fam._cache == {}
        with pytest.raises(ValueError, match=r"^3 slices for times of shape \(2,\)$"):
            fam.factors(np.zeros((3, 2)), np.zeros((3, 2)), [0.5, 0.5])

    @pytest.mark.parametrize("case", ["oscillator-24", "birth-death-12", "random-3-2-strict"])
    def test_one_generator_call_per_sweep(self, case, monkeypatch):
        F = generator_cases()[case]
        rng = np.random.default_rng(sum(map(ord, case)) + 1)
        f, g = lattice_step(rng, F.dim_k), lattice_step(rng, F.dim_k)
        u = v = np.eye(F.dim_h)[0]
        times = np.linspace(0.0, 4.0, 201)
        calls = []

        def spy(*args):
            calls.append(args)
            return g_generator(*args)

        monkeypatch.setattr(semigroups, "g_generator", spy)
        sliced_element(F, f, g, times)
        sliced_element(F, f, g, times, u)
        full_matrix_element(F, u, f, v, g, times)
        assert len(calls) == 3
        # Each call holds the refinement's distinct slices, each row once.
        for _, cs, ds in calls:
            keys = {(c.tobytes(), d.tobytes()) for c, d in zip(cs, ds)}
            assert len(keys) == len(cs) > 16


class TestFactors:
    @pytest.mark.parametrize("case", ["oscillator-24", "birth-death-12"])
    def test_one_lookup_per_piece_and_keys_cut_once(self, case, monkeypatch):
        F = evolve_models()[case]
        rng = np.random.default_rng(sum(map(ord, case)) + 2)
        f, g = lattice_step(rng, F.dim_k), lattice_step(rng, F.dim_k)
        times = np.linspace(0.0, 4.0, 201)
        cuts, fv, gv = _refinement(f, g, 0.0, 4.0, times)
        lengths = np.diff(cuts)
        pieces = {(c.tobytes(), d.tobytes(), h) for c, d, h in zip(fv, gv, lengths.tolist())}
        slices = {key[:2] for key in pieces}

        factors, exps = [], []
        lookup, exp = SemigroupFamily._exp, semigroups.mat_exp

        def spy_lookup(self, *args):
            factors.append(lookup(self, *args))
            return factors[-1]

        def spy_exp(a):
            exps.append(a)
            return exp(a)

        monkeypatch.setattr(SemigroupFamily, "_exp", spy_lookup)
        monkeypatch.setattr(semigroups, "mat_exp", spy_exp)
        sliced_element(F, f, g, times)
        assert len(factors) == len(lengths)
        assert len(exps) == len(pieces)
        for q, c, d, h in zip(factors, fv, gv, lengths):
            assert q.tobytes() == q_stack(F, c, d, h).tobytes()

        # Each piece's key is cut from one tobytes of each row stack; a slice
        # may add two more when its generator is filled.
        calls = []

        def count(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", None) == "tobytes":
                calls.append(arg)

        sys.setprofile(count)
        try:
            sliced_element(F, f, g, times)
        finally:
            sys.setprofile(None)
        assert len(lengths) > 200
        assert len(calls) <= 2 + 2 * len(slices) < len(lengths)


class TestTracedSweep:
    @pytest.mark.parametrize("case", ["oscillator-24", "birth-death-12"])
    def test_keys_cut_once_under_a_semigroups_span(self, case):
        # The benchmark's tracer charges the sweep's key cutting and generator
        # fill to one semigroups.slice_generators span, and sees one Q lookup
        # per piece of the refinement.
        F = evolve_models()[case]
        rng = np.random.default_rng(sum(map(ord, case)) + 3)
        f, g = lattice_step(rng, F.dim_k), lattice_step(rng, F.dim_k)
        u = v = np.eye(F.dim_h)[0]
        times = np.linspace(0.0, 4.0, 201)
        pieces = len(_refinement(f, g, 0.0, 4.0, times)[0]) - 1
        tracer = runpy.run_path(str(TRACING))["Tracer"]()
        tracer.install()
        try:
            full_matrix_element(F, u, f, v, g, times)
        finally:
            tracer.uninstall()
        assert tracer.calls("semigroups.slice_generators") == tracer.calls("semigroups.g_generator") == 1
        assert tracer.calls("semigroups.lookup") == tracer.counters["cocycle.p_factors"] == pieces > 200


class TestRowSweep:
    @pytest.mark.parametrize("dim_h", [1, 2, 3, 5, 8, 13, 24])
    @pytest.mark.parametrize("mode", ["unitary_C", "strict_C"])
    def test_rows_match_matrix_sweep(self, dim_h, mode):
        rng = np.random.default_rng(100 * dim_h + len(mode))
        F = random_contractive(dim_h, 2, seed=dim_h, mode=mode)
        f = random_step(rng, 2, 6, 2.0)
        g = random_step(rng, 2, 6, 2.0)
        u, v = random_unit(rng, dim_h), random_unit(rng, dim_h)
        # t = 0 twice, every breakpoint and support end, times past both
        # supports, and a uniform grid off the breakpoints.
        end = max(f.support_end, g.support_end)
        marks = [0.0, 0.0, *f.breakpoints, *g.breakpoints, f.support_end,
                 g.support_end, end + 0.25, end + 0.5, end + 0.5]
        times = np.sort(np.concatenate((np.linspace(0.0, 2.0, 41), marks)))
        slices = sliced_element(F, f, g, times)
        rows = sliced_element(F, f, g, times, u)
        assert rows.shape == (times.size, dim_h)
        assert np.abs(rows - u.conj() @ slices).max() <= 1e-14
        # The element as rebuilt from the matrix stack before the row sweep.
        with np.errstate(divide="ignore"):
            logs = np.log(u.conj() @ slices @ v) + _log_norms(f, g, times)
        ref = np.exp(logs) * exp_inner(f, g, times, None)
        got = full_matrix_element(F, u, f, v, g, times)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    def test_single_time_gives_one_row(self):
        F = random_contractive(3, 2, seed=9)
        rng = np.random.default_rng(10)
        f, g = random_step(rng, 2, 4, 1.5), random_step(rng, 2, 4, 1.5)
        u = random_unit(rng, 3)
        for t in (0.0, 0.7, 2.0):
            row = sliced_element(F, f, g, t, u)
            assert row.shape == (3,)
            assert np.abs(row - u.conj() @ sliced_element(F, f, g, t)).max() <= 1e-14
        assert np.array_equal(sliced_element(F, f, g, 0.0, u), u.conj())
        assert sliced_element(F, f, g, np.array([]), u).shape == (0, 3)
        with pytest.raises(ValueError, match="^u has dimension 2, expected 3$"):
            sliced_element(F, f, g, 1.0, [1.0, 0.0])


class TestCocycleLaw:
    def test_degenerate_times_exact(self):
        F = random_contractive(2, 1, seed=9)
        rng = np.random.default_rng(10)
        f = random_step(rng, 1, 3, 1.5)
        g = random_step(rng, 1, 3, 1.5)
        assert cocycle_defect(F, f, g, 0.0, 1.3) == 0.0
        assert cocycle_defect(F, f, g, 1.3, 0.0) == 0.0

    def test_identity_cocycle(self):
        F = zero_generator(1, 2)
        rng = np.random.default_rng(11)
        f = random_step(rng, 2, 3, 2.0)
        g = random_step(rng, 2, 3, 2.0)
        assert cocycle_defect(F, f, g, 0.7, 0.9) <= 1e-14

    def test_random_contractive_cases(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            F = random_contractive(
                int(rng.integers(1, 5)), int(rng.integers(1, 3)), seed=seed,
                mode="unitary_C" if seed % 2 else "strict_C",
            )
            f = random_step(rng, F.dim_k, 5, 2.0)
            g = random_step(rng, F.dim_k, 5, 2.0)
            r, t = rng.uniform(0, 2, size=2)
            defect = cocycle_defect(F, f, g, r, t)
            scale = op_norm(sliced_element(F, f, g, r + t)) * abs(
                exp_inner(f, g, r + t, None)
            )
            assert defect <= 1e-10 * max(scale, 1e-6)

    def test_negative_times_rejected(self):
        z = StepFunction.zero(1)
        with pytest.raises(ValueError, match="nonnegative"):
            cocycle_defect(scalar_hp(), z, z, -0.1, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"r={bad}"):
                cocycle_defect(scalar_hp(), z, z, bad, 1.0)


class TestDualConsistency:
    def test_full_elements_conjugate_under_time_reversal(self):
        rng = np.random.default_rng(13)
        F = random_contractive(3, 2, seed=14)
        dual = dual_generator(F)
        f = random_step(rng, 2, 4, 1.6)
        g = random_step(rng, 2, 4, 1.6)
        u, v = random_unit(rng, 3), random_unit(rng, 3)
        for t in (0.35, 0.9, 1.7):
            lhs = full_matrix_element(dual, u, f, v, g, t)
            rhs = np.conj(
                full_matrix_element(F, v, g.reversed_on(t), u, f.reversed_on(t), t)
            )
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestFiniteDifferenceRecovery:
    def test_zero_generator_t_operator(self):
        F = zero_generator(2, 2)
        for t in (0.5, 0.25):
            got = generator_from_semigroups(functools.partial(q_stack, F), 2, t)
            # Q^{0,0}_t = I exactly; Q carries mat_exp's rounding of e^{-t/2}
            # into L and M.
            assert np.array_equal(got.K, np.zeros((2, 2)))
            assert op_norm(got.L) <= 1e-15 and op_norm(got.M) <= 1e-15

    def test_zero_generator_c_operator(self):
        F = zero_generator(2, 2)
        for t in (0.5, 0.25):
            got = generator_from_semigroups(functools.partial(q_stack, F), 2, t)
            # Second difference of e^{t<c,d>}: (e^t - 1 - 1 + 1)/t.
            assert op_norm(got.C - (np.exp(t) - 1.0) / t * np.eye(4)) < 1e-13

    def test_scalar_hp_recovers_l(self):
        got = generator_from_semigroups(functools.partial(q_stack, scalar_hp()), 1, 1e-3)
        assert abs(got.L[0, 0] - 1.0) < 5e-3

    def test_t_operator_halving_trend(self):
        F = random_contractive(3, 2, seed=15)
        rng = np.random.default_rng(16)
        d = random_complex(rng, 2)
        exact = F.L + F.C @ lift_map(d, 3)
        errs = []
        for t in (1e-2, 5e-3, 2.5e-3):
            got = generator_from_semigroups(functools.partial(q_stack, F), 2, t)
            errs.append(op_norm(got.L + got.C @ lift_map(d, 3) - exact))
        assert errs[0] > 1e-8
        for small, big in zip(errs[1:], errs[:-1]):
            assert 0.4 <= small / big <= 0.6

    def test_positive_step_required(self):
        q = functools.partial(q_stack, scalar_hp())
        for bad in (0.0, -1e-3):
            with pytest.raises(ValueError, match="positive"):
                generator_from_semigroups(q, 1, bad)

    def test_scalar_hp_recovers_c(self):
        q = functools.partial(q_stack, scalar_hp())
        errs = [abs(generator_from_semigroups(q, 1, t).C[0, 0] - 1.0) for t in (1e-2, 1e-3)]
        assert errs[1] < 5e-3
        assert errs[1] < errs[0]

    def test_drift_only_slicing(self):
        # dim_k = 0: the cocycle is the semigroup of K and slices reduce to
        # plain exponentials.
        F = zero_generator(1, 0, K=np.array([[-0.3 + 0.7j]]))
        z = StepFunction(np.zeros(1), np.zeros((1, 0)), 0.0)
        out = sliced_element(F, z, z, 1.5)
        assert abs(out[0, 0] - np.exp(1.5 * (-0.3 + 0.7j))) < 1e-13
        el = full_matrix_element(F, [1.0], z, [1.0], z, 1.5)
        assert abs(el - np.exp(1.5 * (-0.3 + 0.7j))) < 1e-13

    def test_rotation_gauge_recovered(self):
        theta = 0.8
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        dim_h = 2
        C = np.kron(rot, np.eye(dim_h))
        rng = np.random.default_rng(17)
        F = from_hlc(np.zeros((2, 2)), random_complex(rng, (4, 2), 0.4), C)
        got = generator_from_semigroups(functools.partial(q_stack, F), 2, 1e-3).C
        assert op_norm(got - C) < 5e-3
        offdiag = got[0:2, 2:4]
        assert op_norm(offdiag - (-np.sin(theta)) * np.eye(2)) < 5e-3


STEP = StepFunction.constant([1.0], 1.0)
ZERO = StepFunction.zero(1)
TIMES = (np.nan, np.inf, True)
COUNTS = (2.5, np.nan, True)
# Two valid times where one time is expected.
SINGLE = (*TIMES, np.array([0.5, 0.5]))


def counts(low=0):
    """COUNTS, a negative count, and the count just under the bound ``low``."""
    return (*COUNTS, *sorted({-1, low - 1}))


def drift_only(dim_h=1, dim_k=0):
    return BlockGenerator(dim_h=dim_h, dim_k=dim_k, K=np.zeros((1, 1)), L=np.zeros((0, 1)),
                          M=np.zeros((1, 0)), C=np.zeros((0, 0)))


# Every public entry point that takes a time or a count, with the argument
# its ValueError names and the bad values it must refuse.
GUARDED = {
    "step-zero": (StepFunction.zero, "dim_k", counts()),
    "step-breakpoints": (lambda x: StepFunction([0.0, x], np.zeros((2, 1)), 2.0), "breakpoints", (*TIMES, -1.0)),
    "step-support_end": (lambda x: StepFunction.constant([1.0], x), "support_end", SINGLE),
    "step-call": (STEP, "t", SINGLE),
    "step-at": (lambda x: STEP.at([0.5, x]), "t", (*TIMES, -1.0)),
    "shifted": (STEP.shifted, "r", SINGLE),
    "reversed_on": (STEP.reversed_on, "t", SINGLE),
    "exp_inner": (lambda x: exp_inner(STEP, STEP, [0.5, x]), "a", TIMES),
    "exp_inner-b": (lambda x: exp_inner(STEP, STEP, 0.0, x), "b", SINGLE),
    "sliced_element": (lambda x: sliced_element(scalar_hp(), ZERO, ZERO, x), "t", TIMES),
    "full_matrix_element": (
        lambda x: full_matrix_element(scalar_hp(), [1.0], ZERO, [1.0], ZERO, [0.5, x]), "t", TIMES
    ),
    "cocycle_defect-r": (lambda x: cocycle_defect(scalar_hp(), ZERO, ZERO, x, 1.0), "r", SINGLE),
    "cocycle_defect-t": (lambda x: cocycle_defect(scalar_hp(), ZERO, ZERO, 1.0, x), "t", SINGLE),
    "varpi_matrix": (lambda x: varpi_matrix(np.eye(2), x), "t", TIMES),
    "step_matrix": (lambda x: step_matrix(scalar_hp(), x), "tau", SINGLE),
    # Q at one time; a time array is a stack of times there, not a refusal.
    "q": (lambda x: q_stack(scalar_hp(), [0.0], [0.0], x), "t", TIMES),
    "q_stack": (lambda x: q_stack(scalar_hp(), [0.0], [0.0], [0.5, x]), "t", TIMES),
    "tk-T": (lambda x: trotter_kato_pipeline(scalar_hp(), [10], T=x), "T", SINGLE),
    "tk-grid_points": (
        lambda x: trotter_kato_pipeline(scalar_hp(), [10], grid_points=x), "grid_points", counts(1)
    ),
    "tk-n_list": (lambda x: trotter_kato_pipeline(scalar_hp(), [x, 10]), r"n_list\[0\]", counts(1)),
    "tk-n_list-iterable": (lambda x: trotter_kato_pipeline(scalar_hp(), x), "n_list", COUNTS),
    "oracle_matrix_element-t": (
        lambda x: oracle_matrix_element(scalar_hp(), [1.0], ZERO, [1.0], ZERO, x, 4), "t", SINGLE
    ),
    "oracle_matrix_element-N": (
        lambda x: oracle_matrix_element(scalar_hp(), [1.0], ZERO, [1.0], ZERO, 1.0, x), "N", counts(1)
    ),
    "oracle_state_norm-t": (lambda x: oracle_state_norm(scalar_hp(), [1.0], ZERO, x, 4), "t", SINGLE),
    "oracle_state_norm-N": (lambda x: oracle_state_norm(scalar_hp(), [1.0], ZERO, 1.0, x), "N", counts(1)),
    "classify-tol": (lambda x: classify(random_contractive(2, 1, seed=3), x), "tol", SINGLE),
    "BlockGenerator-dim_h": (lambda x: drift_only(dim_h=x), "dim_h", counts(1)),
    "BlockGenerator-dim_k": (lambda x: drift_only(dim_k=x), "dim_k", counts()),
    "yosida_approx": (lambda x: yosida_approx(scalar_hp(), x), "n", counts(1)),
    "random-dim_h": (lambda x: random_contractive(x, 1, seed=0), "dim_h", counts(1)),
    "random-dim_k": (lambda x: random_contractive(1, x, seed=0), "dim_k", counts(1)),
    "random-seed": (lambda x: random_contractive(1, 1, seed=x), "seed", counts()),
    "OscillatorSpec": (
        lambda x: OscillatorSpec(dim=x, lam=np.ones(4), mu=np.zeros(3)), "dim", counts(2)
    ),
    "birth_death": (lambda x: birth_death(x, np.ones(3), np.ones(3)), "dim", counts(3)),
    "make_probe": (
        lambda x: make_probe([[0.0]], 0.5, [[1.0]], [[1.0]], [[1.0]], dim_h=x), "dim_h", counts(1)
    ),
    "screen-n_max": (
        lambda x: screen_family(scalar_hp(), n_max=x, samples=1, seed=0), "n_max", counts(1)
    ),
    "screen-samples": (
        lambda x: screen_family(scalar_hp(), n_max=1, samples=x, seed=0), "samples", counts(1)
    ),
    "screen-seed": (lambda x: screen_family(scalar_hp(), n_max=1, samples=1, seed=x), "seed", counts()),
    "screen-tol": (
        lambda x: screen_family(scalar_hp(), n_max=1, samples=1, seed=0, tol=x), "tol", SINGLE
    ),
    # The finite-difference read-backs of T = L + C E_d and of C, both taken
    # from generator_from_semigroups.
    "t_operator_fd": (
        lambda x: generator_from_semigroups(functools.partial(q_stack, scalar_hp()), 1, x).L,
        "t",
        SINGLE,
    ),
    "c_operator_fd": (
        lambda x: generator_from_semigroups(functools.partial(q_stack, scalar_hp()), 1, x).C,
        "t",
        SINGLE,
    ),
    "fd-dim_k": (
        lambda x: generator_from_semigroups(functools.partial(q_stack, scalar_hp()), x, 0.1), "dim_k", counts()
    ),
}


def refusal(name, bad):
    """The pattern of the message that refuses ``bad`` as the argument ``name``."""
    if isinstance(bad, np.ndarray):
        return rf"^{name} must be a single time, got an array of shape \(2,\)$"
    if type(bad) is int:
        return rf"^{name} must be >= \d, got {bad}$"
    return rf"\b{name}={bad}"


@pytest.mark.parametrize(
    "site, bad",
    [pytest.param(site, bad, id=f"{site}-{'array' if np.ndim(bad) else bad}")
     for site, (_, _, bads) in GUARDED.items() for bad in bads],
)
def test_nan_guards_name_the_argument(site, bad):
    # A guard written ``if x < 0: raise`` lets NaN through; each of these
    # rejects it by name, an infinite time too, a bool, an array where one
    # time is expected, and a count that is a float, a bool, negative or
    # under its bound.
    call, name, _ = GUARDED[site]
    with pytest.raises(ValueError, match=refusal(name, bad)):
        call(bad)


# Every public entry point that takes a state vector, with the argument its
# ValueError names and the vector's size: a NaN, an infinite entry or a wrong
# size is refused by name before any product can overflow.
VECTORS = {
    "full_matrix_element-u": (lambda x: full_matrix_element(scalar_hp(), x, ZERO, [1.0], ZERO, 1.0), "u", 1),
    "full_matrix_element-v": (lambda x: full_matrix_element(scalar_hp(), [1.0], ZERO, x, ZERO, 1.0), "v", 1),
    "oracle_matrix_element-u": (
        lambda x: oracle_matrix_element(scalar_hp(), x, ZERO, [1.0], ZERO, 1.0, 4), "u", 1
    ),
    "oracle_matrix_element-v": (
        lambda x: oracle_matrix_element(scalar_hp(), [1.0], ZERO, x, ZERO, 1.0, 4), "v", 1
    ),
    "oracle_state_norm": (lambda x: oracle_state_norm(scalar_hp(), x, ZERO, 1.0, 4), "v", 1),
    "form_defect": (lambda x: form_defect(scalar_hp(), x), "xi", 2),
}


@pytest.mark.parametrize("site, bad", [(site, bad) for site in VECTORS for bad in ("nan", "inf", "size")])
def test_vector_guards_name_the_argument(site, bad):
    call, name, size = VECTORS[site]
    if bad == "size":
        with pytest.raises(ValueError, match=rf"^{name} has dimension {size + 1}, expected {size}$"):
            call(np.ones(size + 1))
        return
    x = np.ones(size, dtype=np.complex128)
    x[-1] = np.nan if bad == "nan" else complex(0.0, -np.inf)
    with pytest.raises(ValueError, match=rf"^{name} has non-finite entries$"):
        call(x)
