import sys
from fractions import Fraction

import numpy as np
import pytest

from qscocycle import (
    StepFunction,
    exp_inner,
    from_hlc,
    full_matrix_element,
    op_norm,
    oracle_matrix_element,
    oracle_state_norm,
    random_contractive,
    step_matrix,
)
from qscocycle import _kernels, jsonio, toyfock
from qscocycle.cli import main

from oracles import (
    aligned_step,
    lattice_runs,
    lattice_state_norm,
    per_slot_chain,
    random_complex,
    random_step,
    random_unit,
    reduced_state_norm,
    scalar_hp,
    sequential_chain,
    slot_apply_per_run,
    zero_generator,
)


def slot_factor(step, dh, m, N, j):
    """Step matrix on (h, slot j) as a dense matrix on the full lattice space.

    Built by explicit index arithmetic: h slowest, then slots 1..N, slot N
    fastest; ``step`` is in the block layout (slot index slow, h fast).
    """
    dim = dh * m**N
    out = np.zeros((dim, dim), dtype=np.complex128)
    for row in range(dim):
        digits = []
        rest = row
        for _ in range(N):
            digits.append(rest % m)
            rest //= m
        digits.reverse()
        p = rest
        a_j = digits[j - 1]
        for q in range(dh):
            for b in range(m):
                col_digits = list(digits)
                col_digits[j - 1] = b
                col = q
                for dgt in col_digits:
                    col = col * m + dgt
                out[row, col] = step[a_j * dh + p, b * dh + q]
    return out


class TestLatticeAndStep:
    def test_lattice_validation(self):
        F, g = random_contractive(2, 1, seed=4), StepFunction.constant([0.5], 1.0)
        oracles = (
            lambda t, N: oracle_matrix_element(F, [1.0, 0.0], g, [1.0, 0.0], g, t, N),
            lambda t, N: oracle_state_norm(F, [1.0, 0.0], g, t, N),
        )
        for oracle in oracles:
            with pytest.raises(ValueError, match="N must be >= 1"):
                oracle(1.0, 0)
            with pytest.raises(ValueError, match="t=0.0"):
                oracle(0.0, 4)
            # Past 2**53 the slot times tau * j are no longer distinct doubles.
            assert np.isfinite(oracle(1.0, 2**53))
            with pytest.raises(ValueError, match=f"N={2**53 + 1} is above 2"):
                oracle(1.0, 2**53 + 1)
            # Slot counts are integers: no float, however whole, and no bool.
            for bad in (3.5, 4.0, np.float64(4.0), True, "4"):
                with pytest.raises(ValueError, match="N="):
                    oracle(1.0, bad)
            assert oracle(2.0, np.int64(4)) == oracle(2.0, 4)
        # Slot j starts at tau * j: the first slot at or after each time.
        assert [toyfock._first_slot(x, 0.5, 4) for x in (0.0, 0.5, 0.6, 1.5, 1.6, 9.0)] == [0, 1, 2, 3, 4, 4]

    def test_non_finite_horizon_or_result_is_named(self):
        F = random_contractive(2, 1, seed=4)
        g = StepFunction.constant([0.5], 1.0)
        with pytest.raises(ValueError, match="t must be finite and positive, got t=inf"):
            oracle_state_norm(F, [1.0, 0.0], g, np.inf, 4)
        with pytest.raises(OverflowError, match=r"t=1e\+308"):
            oracle_state_norm(F, [1.0, 0.0], g, 1e308, 4)
        with pytest.raises(OverflowError, match=r"t=1e\+308"):
            oracle_matrix_element(F, [1.0, 0.0], g, [1.0, 0.0], g, 1e308, 4)

    def test_array_of_times_is_refused_by_name(self):
        # One horizon per call: an array of times, even of one, is refused as
        # the semigroup family refuses it, while a 0-d array is its float.
        F, g = random_contractive(2, 1, seed=4), StepFunction.constant([0.5], 1.0)
        oracles = (
            lambda t: oracle_matrix_element(F, [1.0, 0.0], g, [1.0, 0.0], g, t, 64),
            lambda t: oracle_state_norm(F, [1.0, 0.0], g, t, 64),
        )
        for oracle in oracles:
            for t, shape in ((np.array([1.0]), r"\(1,\)"), (np.array([1.0, 2.0]), r"\(2,\)"), ([1.0], r"\(1,\)")):
                with pytest.raises(ValueError, match=rf"^t must be a single time, got an array of shape {shape}$"):
                    oracle(t)
            assert oracle(np.array(1.0)) == oracle(1.0)

    def test_underflowed_slot_width_names_t_and_N(self):
        # t / N rounds to 0: the message names the caller's arguments, not tau.
        F, g = random_contractive(2, 1, seed=4), StepFunction.constant([0.5], 1.0)
        for oracle in (
            lambda: oracle_matrix_element(F, [1.0, 0.0], g, [1.0, 0.0], g, 5e-324, 2),
            lambda: oracle_state_norm(F, [1.0, 0.0], g, 5e-324, 2),
        ):
            with pytest.raises(ValueError, match=r"^t=5e-324 over N=2 slots underflows") as info:
                oracle()
            assert "tau" not in str(info.value)
        assert np.isfinite(oracle_state_norm(F, [1.0, 0.0], g, 5e-324, 1))

    def test_zero_generator_step_is_identity(self):
        F = zero_generator(2, 1)
        assert np.array_equal(step_matrix(F, 0.01), np.eye(4))

    def test_scalar_hp_step_values(self):
        step = step_matrix(scalar_hp(), 0.01)
        assert np.allclose(step, [[0.995, -0.1], [0.1, 1.0]], atol=1e-15)

    def test_step_norm_inflation_is_first_order(self):
        # The Euler block step is not a strict contraction: its norm is
        # 1 + tau/2 + O(tau^2) for the scalar model (the |M|^2 term).
        for tau in (1e-2, 1e-3):
            norm = op_norm(step_matrix(scalar_hp(), tau))
            assert norm <= 1.0 + 0.6 * tau
            assert norm >= 1.0 + 0.4 * tau

    def test_positive_tau_required(self):
        with pytest.raises(ValueError, match="positive"):
            step_matrix(scalar_hp(), 0.0)

    @pytest.mark.parametrize("dim_h, dim_k", [(2, 1), (3, 2), (2, 0)])
    def test_step_matrix_matches_block_assembly(self, dim_h, dim_k):
        rng = np.random.default_rng(40 + dim_k)
        F = zero_generator(dim_h, dim_k, **{
            X: random_complex(rng, shape) for X, shape in (
                ("K", (dim_h, dim_h)), ("L", (dim_h * dim_k, dim_h)),
                ("M", (dim_h, dim_h * dim_k)), ("C", (dim_h * dim_k, dim_h * dim_k)))
        })
        tau = 0.37
        root = np.sqrt(tau)
        block = np.block([[np.eye(dim_h) + tau * F.K, root * F.M], [root * F.L, F.C]])
        got = step_matrix(F, tau)
        assert got.dtype == block.dtype and got.shape == block.shape
        assert got.tobytes() == block.tobytes()


def near_identity(rng, n, dh, slots):
    """n matrices I + (x - x* - x* x / 2) / slots, near-identity contractions
    whose powers stay bounded over about ``slots`` slots."""
    x = random_complex(rng, (n, dh, dh))
    xh = x.conj().swapaxes(-1, -2)
    return np.eye(dh) + (x - xh - 0.5 * xh @ x) / slots


def bitwise_equal(got, want):
    """Same counts and the same slot components, bit for bit."""
    (got_counts, got_rows), (want_counts, want_rows) = got, want
    return (
        got_counts.dtype == want_counts.dtype
        and np.array_equal(got_counts, want_counts)
        and len(got_rows) == len(want_rows)
        and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got_rows, want_rows))
    )


def schedule_case(rng, t, N, dim_k):
    """A step function whose jumps stress the lattice's slot boundaries.

    The breakpoints lie on a 1/32 grid, are uniform, sit at slot times
    tau * k or one ulp to either side, or are random, some of them past the
    horizon; the support ends before, at or after the horizon; the values are
    drawn from a few repeated ones (signed zeros among them), so that
    neighbouring pieces are often equal.
    """
    tau = t / N
    pieces = int(rng.integers(1, 8))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        jumps = np.round(rng.uniform(0.0, 1.5 * t, pieces) * 32) / 32
    elif kind == 1:
        jumps = np.arange(pieces) * (t / pieces)
    elif kind == 2:
        jumps = tau * rng.integers(1, N + 3, pieces)
        jumps = np.nextafter(jumps, jumps + rng.integers(-1, 2, pieces))
    else:
        jumps = rng.uniform(0.0, 1.3 * t, pieces)
    jumps = np.unique(np.concatenate(([0.0], jumps[jumps > 0])))
    choices = np.array([0.0, -0.0, 1.0, 1.0 + 1.0j, complex(-0.0, -0.0), 0.5j])
    values = rng.choice(choices, size=(jumps.size, dim_k))
    end = (jumps[-1], t, 0.5 * t, jumps[-1] + rng.uniform(0.0, t), tau * rng.integers(0, N + 2))
    return StepFunction(jumps, values, max(float(end[int(rng.integers(0, 5))]), jumps[-1]))


class TestRuns:
    @pytest.mark.parametrize("N", [1, 3, 7, 64, 4096, 65536])
    def test_matches_all_slot_reference(self, N):
        # Every seeded case must give the counts and slot components of the
        # reference that evaluates the functions at all N slot times.
        rng = np.random.default_rng(N)
        for _ in range(200 if N < 65536 else 50):
            t = float(rng.choice([1.0, 0.3, 2.0 / 3.0, rng.uniform(0.01, 5.0)]))
            dim_k = int(rng.integers(0, 3))
            fns = [schedule_case(rng, t, N, dim_k) for _ in range(int(rng.integers(1, 3)))]
            assert bitwise_equal(toyfock._runs(t / N, N, *fns), lattice_runs(t / N, N, *fns))

    def test_underflowed_step_matches_reference(self):
        # tau = 5e-324 / 4 rounds to 0: every slot time is 0.
        f = StepFunction([0.0, 0.25], [[1.0], [2.0]], 0.5)
        tau = 5e-324 / 4
        assert tau == 0.0
        zero = StepFunction.zero(1)
        assert bitwise_equal(toyfock._runs(tau, 4, f, zero), lattice_runs(tau, 4, f, zero))

    def test_equal_neighbours_share_a_run(self):
        # f repeats its value across the breakpoint 0.25 and g has no jump
        # there, so slots 0-3 are one run; -0.0 equals 0.0, so the zero pieces
        # of f at 0.75 and past its support end stay one run too.
        f = StepFunction([0.0, 0.25, 0.5, 0.75], [[1.0], [1.0], [2.0], [-0.0]], 0.875)
        g = StepFunction.constant([0.5], 1.0)
        counts, (xi, eta) = toyfock._runs(1.0 / 8, 8, f, g)
        assert counts.tolist() == [4, 2, 2]
        assert xi[:, 1].tolist() == [np.sqrt(0.125), 2 * np.sqrt(0.125), -0.0]
        assert bitwise_equal((counts, [xi, eta]), lattice_runs(1.0 / 8, 8, f, g))

    @pytest.mark.parametrize("case, N, counts", [
        ("aligned-one", 65536, [16384] * 4),
        ("aligned-two", 65536, [32768] * 2),
        ("support-end-inside", 4096, [1024, 1024, 410, 1638]),
        ("equal-across-jump", 65536, [32768, 16384, 16384]),
    ])
    def test_benchmark_shapes_match_all_slot_reference(self, case, N, counts):
        # The oracle benchmark's schedules: every jump on a slot edge, one
        # or two functions; then a support end between slot edges, and a
        # jump that keeps its value, which must not start a run.
        rng = np.random.default_rng(21)
        a, b, c = random_complex(rng, (3, 1), 0.5)
        quarters = 0.25 * np.arange(4)
        fns = {
            "aligned-one": [StepFunction(quarters, random_complex(rng, (4, 1), 0.5), 1.0)],
            "aligned-two": [StepFunction([0.0, 0.5], random_complex(rng, (2, 2), 0.5), 1.0),
                            StepFunction([0.0, 0.5], random_complex(rng, (2, 2), 0.5), 1.0)],
            "support-end-inside": [StepFunction(quarters[:3], [a, b, c], 0.6),
                                   StepFunction.constant(a, 1.0)],
            "equal-across-jump": [StepFunction(quarters, [a, a, b, c], 1.0), StepFunction.constant(c, 1.0)],
        }[case]
        got = toyfock._runs(1.0 / N, N, *fns)
        assert got[0].tolist() == counts
        assert bitwise_equal(got, lattice_runs(1.0 / N, N, *fns))

    def test_runs_start_at_the_first_slot_past_each_jump(self):
        # At N = 2**50 the all-slot reference cannot be built; each run must
        # start at the first j with tau * j >= b, found here with exact
        # rational arithmetic on the doubles tau * j.
        N = 2**50
        tau = 1.0 / N
        jumps = [0.1, 0.3, 0.5, np.nextafter(0.5, 1.0), 0.7]
        f = StepFunction([0.0, *jumps], np.arange(1.0, 7.0), 0.9)
        counts, (xi,) = toyfock._runs(tau, N, f)
        assert counts.sum() == N
        starts = np.concatenate(([0], np.cumsum(counts)[:-1])).tolist()

        def first_slot(b):
            j = int(Fraction(b) / Fraction(tau))
            while j > 0 and tau * (j - 1) >= b:
                j -= 1
            while tau * j < b:
                j += 1
            return j

        assert starts == [0] + [first_slot(b) for b in [*jumps, 0.9]]
        assert xi[:, 1].tolist() == [np.sqrt(tau) * x for x in range(1, 7)] + [0.0]


class TestOracleMatrixElement:
    def test_identity_cocycle_product_formula(self):
        F = zero_generator(1, 2)
        rng = np.random.default_rng(0)
        f = random_step(rng, 2, 3, 1.5)
        g = random_step(rng, 2, 3, 1.5)
        t, N = 1.2, 64
        got = oracle_matrix_element(F, [1.0], f, [1.0], g, t, N)
        tau = t / N
        prod = 1.0 + 0.0j
        for j in range(N):
            s = j * tau
            prod *= 1.0 + tau * np.vdot(f(s), g(s))
        expect = prod * exp_inner(f, g, t, None)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_identity_cocycle_converges_to_inner_product(self):
        F = zero_generator(1, 1)
        rng = np.random.default_rng(1)
        f = random_step(rng, 1, 2, 1.0)
        g = random_step(rng, 1, 2, 1.0)
        target = exp_inner(f, g, 0.0, None)
        got = oracle_matrix_element(F, [1.0], f, [1.0], g, 1.0, 4096)
        assert abs(got - target) < 1e-3 * max(1.0, abs(target))

    def test_scalar_hp_equals_euler_power(self):
        z = StepFunction.zero(1)
        N = 4096
        got = oracle_matrix_element(scalar_hp(), [1.0], z, [1.0], z, 1.0, N)
        assert abs(got - (1.0 - 0.5 / N) ** N) < 1e-14
        assert abs(got - 0.6065306597126334) < 1e-3

    def test_first_order_convergence_to_engine(self):
        rng = np.random.default_rng(2)
        F = random_contractive(3, 2, seed=3)
        t = 1.3
        f = aligned_step(rng, 2, t, 4)
        g = aligned_step(rng, 2, t, 3)
        u, v = random_unit(rng, 3), random_unit(rng, 3)
        engine = full_matrix_element(F, u, f, v, g, t)
        errs = [
            abs(oracle_matrix_element(F, u, f, v, g, t, N) - engine)
            for N in (256, 512, 1024)
        ]
        for small, big in zip(errs[1:], errs[:-1]):
            assert 0.4 <= small / big <= 0.65

    def test_cauchy_schwarz_bound_up_to_first_order(self):
        rng = np.random.default_rng(4)
        F = random_contractive(2, 2, seed=5)
        f = random_step(rng, 2, 3, 1.5)
        g = random_step(rng, 2, 3, 1.5)
        u, v = random_unit(rng, 2), random_unit(rng, 2)
        for N in (128, 512):
            got = abs(oracle_matrix_element(F, u, f, v, g, 1.5, N))
            bound = np.sqrt(
                abs(exp_inner(f, f, 0.0, None)) * abs(exp_inner(g, g, 0.0, None))
            )
            assert got <= bound + 5.0 / N

    def test_discrete_cocycle_identity(self):
        # Two runs over [0, r] and [r, r+t] with matching lattices compose to
        # one run over [0, r+t]; pure regrouping of the same factors.
        rng = np.random.default_rng(6)
        F = random_contractive(2, 1, seed=7)
        f = random_step(rng, 1, 3, 1.5)
        g = random_step(rng, 1, 3, 1.5)
        tau = 0.125
        n1, n2 = 4, 6
        r, t = n1 * tau, n2 * tau

        def compressed(Fgen, ff, gg, horizon, n):
            u = np.eye(Fgen.dim_h, dtype=np.complex128)
            out = np.empty((Fgen.dim_h, Fgen.dim_h), dtype=np.complex128)
            for i in range(Fgen.dim_h):
                for j in range(Fgen.dim_h):
                    val = oracle_matrix_element(Fgen, u[i], ff, u[j], gg, horizon, n)
                    out[i, j] = val / exp_inner(ff, gg, horizon, None)
            return out

        whole = compressed(F, f, g, r + t, n1 + n2)
        first = compressed(F, f, g, r, n1)
        second = compressed(F, f.shifted(r), g.shifted(r), t, n2)
        assert op_norm(whole - first @ second) <= 1e-12

    @pytest.mark.parametrize("dim_h, dim_k", [(2, 1), (3, 2)])
    def test_matches_per_slot_product(self, dim_h, dim_k):
        # f takes the same value on both sides of its breakpoint 0.25, so those
        # two pieces form one run; t = 1.2 lies past both supports, so the
        # last slots carry the zero value.
        rng = np.random.default_rng(30 + dim_h)
        F = random_contractive(dim_h, dim_k, seed=31 + dim_k)
        a, b, c, d = random_complex(rng, (4, dim_k), 0.7)
        f = StepFunction([0.0, 0.25, 0.5], [a, a, b], 0.8)
        g = StepFunction([0.0, 0.3], [c, d], 0.9)
        u, v = random_unit(rng, dim_h), random_unit(rng, dim_h)
        t, N = 1.2, 64
        got = oracle_matrix_element(F, u, f, v, g, t, N)
        expect = np.vdot(u, per_slot_chain(F, f, g, t, N) @ v) * exp_inner(f, g, t, None)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_dimension_checks(self):
        z = StepFunction.zero(1)
        with pytest.raises(ValueError, match="u has dimension 2, expected 1"):
            oracle_matrix_element(scalar_hp(), [1.0, 0.0], z, [1.0], z, 1.0, 8)
        with pytest.raises(ValueError, match="dim_k"):
            oracle_matrix_element(scalar_hp(), [1.0], StepFunction.zero(2), [1.0], z, 1.0, 8)


class TestOracleStateNorm:
    def test_identity_cocycle_exact(self):
        F = zero_generator(2, 1)
        rng = np.random.default_rng(8)
        g = random_step(rng, 1, 2, 1.0)
        v = random_complex(rng, 2)
        t, N = 1.0, 10
        got = oracle_state_norm(F, v, g, t, N)
        tau = t / N
        expect = np.linalg.norm(v)
        for j in range(N):
            expect *= np.sqrt(1.0 + tau * np.vdot(g(j * tau), g(j * tau)).real)
        assert abs(got - expect) < 1e-12 * expect

    def test_scalar_hp_isometric_limit(self):
        F = scalar_hp()
        z = StepFunction.zero(1)
        norm12 = oracle_state_norm(F, [1.0], z, 1.0, 12)
        norm16 = oracle_state_norm(F, [1.0], z, 1.0, 16)
        assert abs(norm12 - 1.0) < 0.05
        assert abs(norm16 - 1.0) < abs(norm12 - 1.0)

    def test_gauge_never_acts_on_vacuum_input(self):
        # In the left discretization each slot stays in vacuum until its one
        # interaction, so with g = 0 the gauge and annihilation blocks never
        # fire and the norm cannot distinguish C.
        z = StepFunction.zero(1)
        unitary = scalar_hp()
        strict = from_hlc(np.zeros((1, 1)), np.ones((1, 1)), 0.5 * np.ones((1, 1)))
        n_unitary = oracle_state_norm(unitary, [1.0], z, 1.0, 12)
        n_strict = oracle_state_norm(strict, [1.0], z, 1.0, 12)
        assert n_strict == n_unitary

    def test_strict_contraction_smaller_norm_on_coherent_input(self):
        g = StepFunction.constant([1.0], 1.0)
        unitary = scalar_hp()
        strict = from_hlc(np.zeros((1, 1)), np.ones((1, 1)), 0.5 * np.ones((1, 1)))
        n_unitary = oracle_state_norm(unitary, [1.0], g, 1.0, 12)
        n_strict = oracle_state_norm(strict, [1.0], g, 1.0, 12)
        assert n_strict < n_unitary - 1e-3

    def test_matches_dense_operator_construction(self):
        # Brute-force oracle: assemble each slot factor as a dense matrix on
        # the full lattice space by explicit index arithmetic and apply the
        # ordered product to the same initial state.
        F = random_contractive(2, 1, seed=10)
        rng = np.random.default_rng(11)
        g = random_step(rng, 1, 2, 1.0)
        v = random_unit(rng, 2)
        t, N = 0.75, 4
        dh, m = F.dim_h, 1 + F.dim_k
        tau = t / N
        step = step_matrix(F, tau)

        state = v.copy()
        for j in range(N):
            eta = np.concatenate(([1.0], np.sqrt(tau) * g(j * tau)))
            state = np.kron(state, eta)
        dense = state.copy()
        for j in range(N, 0, -1):
            dense = slot_factor(step, dh, m, N, j) @ dense
        got = oracle_state_norm(F, v, g, t, N)
        assert abs(got - np.linalg.norm(dense)) <= 1e-12

    @pytest.mark.parametrize("dim_k", [1, 2])
    @pytest.mark.parametrize("N", [1, 4, 7, 8, 12, 1000])
    def test_matches_reduced_density_recurrence(self, dim_k, N):
        # The full lattice has dim 2 (1 + dim_k)^N, so it is a reference only
        # for small N; N = 1000 puts hundreds of slots in each run of g.
        rng = np.random.default_rng(100 * dim_k + N)
        F = random_contractive(2, dim_k, seed=20 + N + dim_k)
        g = random_step(rng, dim_k, 3, 1.0)
        v = random_complex(rng, 2)
        got = oracle_state_norm(F, v, g, 1.0, N)
        expects = [reduced_state_norm(F, v, g, 1.0, N)]
        if N <= 12:
            expects.append(lattice_state_norm(F, v, g, 1.0, N))
        for expect in expects:
            assert abs(got - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("N", [1, 7, 1000])
    def test_strict_C_matches_reduced_density_recurrence(self, N):
        rng = np.random.default_rng(200 + N)
        F = random_contractive(3, 2, seed=50 + N, mode="strict_C")
        g = StepFunction([0.0, 0.3, 0.55], random_complex(rng, (3, 2), 0.5), 0.9)
        v = random_complex(rng, 3)
        got = oracle_state_norm(F, v, g, 1.0, N)
        expect = reduced_state_norm(F, v, g, 1.0, N)
        assert abs(got - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("dh, N, squared", [(2, 16, False), (24, 16, False),
                                                (2, 1000, True), (3, 1000, True)])
    def test_runs_are_squared_only_where_that_costs_fewer_flops(self, monkeypatch, dh, N, squared):
        # A run's dh^2 x dh^2 superoperator pays for long runs at small dh; at
        # dh = 24 and N = 16 squaring it would cost about 100x the flops of the
        # slots, so no superoperator may be formed there.
        shapes, chain = [], _kernels.element_chain

        def spy(mats, counts):
            shapes.append(mats.shape)
            return chain(mats, counts)

        monkeypatch.setattr(_kernels, "element_chain", spy)
        rng = np.random.default_rng(300 + dh)
        F = random_contractive(dh, 1, seed=60 + dh)
        g = StepFunction([0.0, 0.3, 0.55], random_complex(rng, (3, 1), 0.5), 0.9)
        v = random_complex(rng, dh)
        got = oracle_state_norm(F, v, g, 1.0, N)
        expect = reduced_state_norm(F, v, g, 1.0, N)
        assert abs(got - expect) <= 1e-12 * expect
        assert shapes == ([(1, dh * dh, dh * dh)] * 4 if squared else [])


class TestIndependence:
    def test_oracles_never_exponentiate(self, monkeypatch, tmp_path, capsys):
        # The oracle cross-checks the semigroup engine, so it must not share
        # the engine's matrix exponential.
        def refuse(*args, **kwargs):
            raise AssertionError("mat_exp was called")

        F = random_contractive(2, 1, seed=40)
        rng = np.random.default_rng(41)
        f, g = random_step(rng, 1, 3, 1.0), random_step(rng, 1, 3, 1.0)
        u, v = random_unit(rng, 2), random_unit(rng, 2)
        jsonio.save_generator(F, tmp_path / "gen.json")
        jsonio.save_step(g, tmp_path / "g.json")
        # Every package module that binds mat_exp, opcore and semigroups among them.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qscocycle" and hasattr(module, "mat_exp"):
                monkeypatch.setattr(module, "mat_exp", refuse)
        assert np.isfinite(oracle_matrix_element(F, u, f, v, g, 1.0, 64))
        assert np.isfinite(oracle_state_norm(F, v, g, 1.0, 16))
        argv = ["oracle-norm", str(tmp_path / "gen.json"), str(tmp_path / "g.json"),
                "--t", "1", "--steps", "16"]
        assert main(argv) == 0
        assert "discrete state norm" in capsys.readouterr().out
        # The engine path does exponentiate, so the patch is live.
        with pytest.raises(AssertionError, match="mat_exp"):
            full_matrix_element(F, u, f, v, g, 1.0)


class TestKernels:
    def test_element_chain_empty_schedule_is_identity(self):
        mats = random_complex(np.random.default_rng(12), (0, 3, 3))
        got = _kernels.element_chain(mats, np.zeros(0, dtype=np.int64))
        assert np.array_equal(got, np.eye(3))
        assert np.array_equal(got, sequential_chain(mats, []))

    def test_element_chain_single_run(self):
        rng = np.random.default_rng(13)
        mats = np.eye(3) + random_complex(rng, (1, 3, 3), 0.05)
        counts = np.array([1000])
        ref = sequential_chain(mats, np.repeat(np.arange(1), counts))
        got = _kernels.element_chain(mats, counts)
        assert op_norm(got - ref) <= 1e-11 * op_norm(ref)

    @pytest.mark.parametrize("pieces", [2, 5, 12])
    def test_element_chain_long_runs(self, pieces):
        # Near-identity contractions over 2^16 slots, the shape of the
        # oracle's schedule: a few long runs, one slot matrix per run.
        rng = np.random.default_rng(14 + pieces)
        n_slots, dh = 2**16, 3
        mats = np.empty((pieces, dh, dh), dtype=np.complex128)
        for i in range(pieces):
            x = random_complex(rng, (dh, dh))
            mats[i] = np.eye(dh) + (x - x.conj().T - 0.5 * x.conj().T @ x) / n_slots
        cuts = np.sort(rng.choice(np.arange(1, n_slots), size=pieces - 1, replace=False))
        counts = np.diff(np.concatenate(([0], cuts, [n_slots])))
        ref = sequential_chain(mats, np.repeat(np.arange(pieces), counts))
        got = _kernels.element_chain(mats, counts)
        assert op_norm(got - ref) <= 1e-11 * op_norm(ref)

    def test_stacked_run_powers_match_matrix_power(self):
        # One binary powering of the whole stack takes each run's power as
        # numpy does, bit for bit; only count 3 differs, a @ (a @ a) against
        # numpy's (a @ a) @ a.
        counts = [1, 2, 3, 4, 5, 7, 65535, 65536, 2**20 + 1]
        mats = near_identity(np.random.default_rng(17), len(counts), 3, 2**20)
        powers = _kernels._run_powers(mats, np.array(counts))
        for mat, count, power in zip(mats, counts, powers, strict=True):
            want = mat @ (mat @ mat) if count == 3 else np.linalg.matrix_power(mat, count)
            assert power.tobytes() == want.tobytes()

    def test_run_powers_skip_levels_no_count_sets(self):
        # The counts share only bit 14, so most levels are squared past; the
        # powers must still be numpy's, bit for bit.
        counts = [1, 2**14, 2**14, 2**20]
        mats = near_identity(np.random.default_rng(20), len(counts), 3, 2**20)
        powers = _kernels._run_powers(mats, np.array(counts))
        for mat, count, power in zip(mats, counts, powers, strict=True):
            assert power.tobytes() == np.linalg.matrix_power(mat, count).tobytes()

    def test_stacked_chain_matches_slot_by_slot_product(self):
        # The mixed schedule above without its 2**20-slot run, whose
        # slot-by-slot reference would take seconds.
        counts = np.array([1, 2, 3, 4, 5, 7, 65535, 65536])
        mats = near_identity(np.random.default_rng(18), counts.size, 3, 2**17)
        ref = sequential_chain(mats, np.repeat(np.arange(counts.size), counts))
        got = _kernels.element_chain(mats, counts)
        assert op_norm(got - ref) <= 1e-11 * op_norm(ref)

    def test_finished_runs_are_not_squared_on(self):
        # (2 I)^4 is done after two squarings; squared on with the 2**20-slot
        # run beside it, 2 I would overflow at its tenth squaring.
        near = near_identity(np.random.default_rng(19), 1, 2, 2**20)
        mats = np.concatenate([2 * np.eye(2, dtype=np.complex128)[None], near])
        with np.errstate(over="raise", invalid="raise"):
            got = _kernels.element_chain(mats, [4, 2**20])
        assert np.array_equal(got, 16 * np.linalg.matrix_power(near[0], 2**20))

    @pytest.mark.parametrize("dh, m, count, branch", [
        (2, 2, 4, "stepped"), (2, 2, 1000, "squared"), (24, 2, 16, "kraus"),
    ])
    def test_slot_apply_branches_match_reduced_recurrence(self, monkeypatch, dh, m, count, branch):
        # One run of ``count`` slots: vec(rho) steps by S where forming S and
        # the count products cost fewer flops than the Kraus slots, S is
        # squared where even that costs fewer, and at dh = 24 no S is formed.
        formed, chained = [], []
        superoperator, chain = _kernels._superoperator, _kernels.element_chain
        monkeypatch.setattr(_kernels, "_superoperator", lambda ops: formed.append(1) or superoperator(ops))
        monkeypatch.setattr(_kernels, "element_chain", lambda mats, c: chained.append(1) or chain(mats, c))
        rng = np.random.default_rng(400 + dh + count)
        F = random_contractive(dh, m - 1, seed=80 + dh)
        g = StepFunction.constant(random_complex(rng, m - 1, 0.5), 1.0)
        v = random_complex(rng, dh)
        got = oracle_state_norm(F, v, g, 1.0, count)
        expect = reduced_state_norm(F, v, g, 1.0, count)
        assert abs(got - expect) <= 1e-12 * expect
        assert (len(formed), len(chained)) == {"stepped": (1, 0), "squared": (1, 1), "kraus": (0, 0)}[branch]

    @pytest.mark.parametrize("dh", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stacked_superoperators_match_per_run_forms(self, monkeypatch, dh, m):
        # Mixed schedules of Kraus, stepped and squared runs: the stepped
        # runs' maps formed in one stacked call must carry rho bit for bit as
        # one map per run does.  All three branches meet at dh, m >= 2.
        shapes, superoperator = [], _kernels._superoperator
        monkeypatch.setattr(_kernels, "_superoperator", lambda ops: shapes.append(ops.shape) or superoperator(ops))
        rng = np.random.default_rng(500 + 10 * dh + m)
        for _ in range(5):
            counts = rng.permutation([1, 2, 3, 4, 5, 17, 1000, *rng.choice([1, 2, 3, 4, 5, 17, 1000], 5)])
            step = near_identity(rng, 1, dh * m, 4 * int(counts.sum()))[0]
            etas = np.hstack([np.ones((counts.size, 1)), random_complex(rng, (counts.size, m - 1), 0.03)])
            rho = random_complex(rng, (dh, dh))
            got = _kernels.slot_apply(rho, step.reshape(m, dh, m, dh), etas, counts)
            want = slot_apply_per_run(rho, step.reshape(m, dh, m, dh), etas, counts)
            assert got.tobytes() == want.tobytes()
        if dh >= 2 and m >= 2:
            assert any(len(shape) == 4 and shape[0] > 1 for shape in shapes)
            assert any(len(shape) == 3 for shape in shapes)

    @pytest.mark.parametrize("dh, m, n", [(2, 2, 4), (2, 3, 3), (1, 2, 5)])
    def test_slot_apply_matches_dense_slot_factors(self, dh, m, n):
        # The traced-out h-marginal keeps the squared norm of the full state
        # the dense slot factors produce from v (x) eta_1 (x) ... (x) eta_N,
        # where the n runs of lengths 1, 2, 1, ... repeat each run's eta.
        rng = np.random.default_rng(15 + n)
        step = random_complex(rng, (dh * m, dh * m), 0.5)
        v = random_complex(rng, dh)
        etas = random_complex(rng, (n, m))
        counts = 1 + np.arange(n) % 2
        slots = int(counts.sum())
        dense = v.copy()
        for eta in np.repeat(etas, counts, axis=0):
            dense = np.kron(dense, eta)
        for j in range(slots, 0, -1):
            dense = slot_factor(step, dh, m, slots, j) @ dense
        rho = _kernels.slot_apply(np.outer(v, v.conj()), step.reshape(m, dh, m, dh), etas, counts)
        expect = np.vdot(dense, dense).real
        assert abs(np.trace(rho).real - expect) <= 1e-13 * expect

    def test_backend_name_is_numpy(self):
        assert _kernels.backend_name() == "numpy"
