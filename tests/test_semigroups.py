import functools
import re
import threading

import numpy as np
import pytest

from qscocycle import (
    BlockGenerator,
    SemigroupFamily,
    StepFunction,
    chi,
    component,
    contractivity_defect,
    coords_from_f,
    coords_to_f,
    dual_generator,
    g_generator,
    generator_from_semigroups,
    op_norm,
    q_stack,
    random_contractive,
    sliced_element,
    varpi_matrix,
)
from qscocycle.semigroups import coordinate_cells

from oracles import (
    assert_bitwise,
    block_gap,
    chi_loop,
    contractive_cases,
    coords_from_f_loops,
    coords_to_f_loops,
    kron_component,
    random_complex,
    scalar_hp,
    zero_generator,
)


def cached_generator(F, c, d):
    """G_{c,d} as a family caches it, read through the key it returns."""
    fam = SemigroupFamily(F)
    [key] = fam.slice_generators(c, d)
    return fam._cache[key]


def random_blocks(rng, dim_h, dim_k):
    return BlockGenerator(
        dim_h=dim_h,
        dim_k=dim_k,
        K=random_complex(rng, (dim_h, dim_h)),
        L=random_complex(rng, (dim_h * dim_k, dim_h)),
        M=random_complex(rng, (dim_h, dim_h * dim_k)),
        C=random_complex(rng, (dim_h * dim_k, dim_h * dim_k)),
    )


class TestSliceGenerators:
    def test_zero_generator(self):
        F = zero_generator(2, 2)
        rng = np.random.default_rng(0)
        c, d = random_complex(rng, 2), random_complex(rng, 2)
        assert np.allclose(g_generator(F, c, d), -chi(c, d) * np.eye(2), atol=1e-14)

    def test_vacuum_slice_is_drift(self):
        F = random_contractive(3, 2, seed=2)
        z = np.zeros(2)
        g = cached_generator(F, z, z)
        assert_bitwise(g, g_generator(F, z, z))
        assert np.allclose(g, F.K, atol=1e-15)

    def test_scalar_model_values(self):
        g = cached_generator(scalar_hp(), [1.0], [1.0])
        assert_bitwise(g, g_generator(scalar_hp(), [1.0], [1.0]))
        assert abs(g[0, 0] + 0.5) < 1e-15

    def test_shift_identity(self):
        # G_{c,d} is the slice E^c-hat F E_d-hat shifted by -chi(c, d).
        F = random_contractive(2, 2, seed=3)
        rng = np.random.default_rng(4)
        c, d = random_complex(rng, 2), random_complex(rng, 2)
        g = cached_generator(F, c, d)
        assert_bitwise(g, g_generator(F, c, d))
        assert op_norm(g - kron_component(F, c, d) + chi_loop(c, d) * np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("value", [1e160, 1e160j])
    def test_overflowing_slice_is_named(self, value):
        # |c|^2 overflows in chi, so G_{c,d} is not finite; the slice is named
        # with no numpy warning (the suite turns warnings into errors).
        F = random_contractive(2, 1, seed=0)
        f = StepFunction.constant([value], 2.0)
        named = re.escape(f"at c=[{complex(value)!r}], d=[{complex(value)!r}]")
        with pytest.raises(OverflowError, match=rf"^slice generator G_\{{c,d\}} is not finite {named}$"):
            sliced_element(F, f, f, 1.0)
        with pytest.raises(OverflowError, match=named):
            q_stack(F, [value], [value], 0.5)

    def test_first_overflowing_slice_of_a_stack_is_named(self):
        F = random_contractive(2, 2, seed=0)
        cs, ds = np.zeros((3, 1, 2)), np.zeros((1, 4, 2))
        cs[1, 0, 1] = ds[0, 2, 1] = 1e170  # (0, 2) comes first of the 3 x 4 slices
        message = r"not finite at c=\[0j, 0j\], d=\[0j, \(1e\+170\+0j\)\]$"
        for call in (g_generator, lambda F, c, d: q_stack(F, c, d, 0.5)):
            with pytest.raises(OverflowError, match=message):
                call(F, cs, ds)

    def test_overflowing_time_product_is_refused_by_mat_exp(self):
        # G_{c,d} is finite but t G_{c,d} is not: mat_exp refuses the product
        # by name, with no numpy warning on the way.
        F = random_contractive(2, 1, seed=0)
        for call in (lambda c, d, t: SemigroupFamily(F).factors([c], [d], [t]), functools.partial(q_stack, F)):
            with pytest.raises(ValueError, match="^mat_exp input contains non-finite entries$"):
                call([0.5], [0.5], 1e308)

    def test_overflowing_coordinate_is_named(self):
        # G^0_0 = K is finite; G^0_1 = K + M - 1/2 is not.
        top = np.array([[1.7e308]])
        F = BlockGenerator(dim_h=1, dim_k=1, K=top, L=np.zeros((1, 1)), M=top, C=np.zeros((1, 1)))
        with pytest.raises(OverflowError, match=r"not finite at c=\[0j\], d=\[\(1\+0j\)\]$"):
            coords_from_f(F)


# The refusal of slice vectors (2, 1) and (3, 1), which do not broadcast.
SHAPES_CD = r"slice vectors c and d of shapes \(2, 1\) and \(3, 1\)"


class TestStacks:
    def test_stacked_g_generator_equals_per_slice_bitwise(self):
        rng = np.random.default_rng(61)
        F = random_blocks(rng, 3, 2)
        cs, ds = random_complex(rng, (5, 2)), random_complex(rng, (5, 2))
        stack = g_generator(F, cs, ds)
        assert stack.shape == (5, 3, 3)
        for k in range(5):
            assert_bitwise(stack[k], g_generator(F, cs[k], ds[k]))

    @pytest.mark.parametrize("dh, dk", [(1, 1), (3, 2), (12, 0)])
    def test_g_generator_shifts_the_slice_by_chi_bitwise(self, dh, dk):
        # Subtracting chi(c, d) on the diagonals gives the bits of the dense
        # shift by chi(c, d) (x) I, also on rows with c = d and zero rows.
        rng = np.random.default_rng(dh + dk)
        F = random_blocks(rng, dh, dk)
        cs, ds = random_complex(rng, (6, dk)), random_complex(rng, (6, dk))
        ds[1] = cs[1]
        cs[2] = ds[2] = cs[3] = 0.0
        for c, d in ((cs, ds), (cs[:, None], ds[None]), (cs[1], ds[1])):
            shift = np.multiply.outer(chi(c, d), np.eye(dh, dtype=np.complex128))
            assert_bitwise(g_generator(F, c, d), component(F, c, d) - shift)

    def test_q_stack_matches_family(self):
        # The stateless map and the cache give the same bits, for a stack and
        # for one matrix at a time.
        F = random_contractive(2, 2, seed=67)
        rng = np.random.default_rng(67)
        cs, ds = random_complex(rng, (6, 2)), random_complex(rng, (6, 2))
        ts = np.array([0.0, 0.1, 0.5, 1.0, 3.0, 20.0])
        cached = SemigroupFamily(F).factors(cs, ds, ts)
        assert_bitwise(q_stack(F, cs, ds, ts), np.array(cached))
        for k in range(6):
            [one] = SemigroupFamily(F).factors(cs[k : k + 1], ds[k : k + 1], ts[k : k + 1])
            for q in (one, q_stack(F, cs[k], ds[k], ts[k])):
                assert_bitwise(q, cached[k])

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda F: component(F, np.zeros((2, 1)), np.zeros((3, 1))), SHAPES_CD, id="component"),
        pytest.param(lambda F: g_generator(F, np.zeros((2, 1)), np.zeros((3, 1))), SHAPES_CD, id="g_generator"),
        pytest.param(lambda F: q_stack(F, np.zeros((2, 1)), np.zeros((3, 1)), 0.5), SHAPES_CD, id="q_stack-cd"),
        pytest.param(lambda F: q_stack(F, np.zeros((2, 1)), np.zeros((2, 1)), [0.1, 0.2, 0.3]),
                     r"t of shape \(3,\) against c and d of shapes \(2, 1\) and \(2, 1\)", id="q_stack-t"),
        pytest.param(lambda F: varpi_matrix(np.zeros((2, 2, 1)), [0.1, 0.2, 0.3]),
                     r"t of shape \(3,\) against c_tuple of shape \(2, 2, 1\)", id="varpi_matrix"),
    ])
    def test_stacks_that_do_not_broadcast_are_named(self, call, message):
        with pytest.raises(ValueError, match=f"^cannot broadcast {message}$"):
            call(random_contractive(2, 1, seed=0))

    @pytest.mark.parametrize("t", [-0.1, np.inf, np.nan])
    def test_q_stack_rejects_bad_times(self, t):
        F = scalar_hp()
        with pytest.raises(ValueError, match="nonnegative"):
            q_stack(F, np.zeros((2, 1)), np.zeros((2, 1)), [0.5, t])


class TestSemigroupValues:
    def test_time_zero(self):
        F = random_contractive(2, 1, seed=5)
        assert np.array_equal(q_stack(F, [0.3], [0.1], 0.0), np.eye(2))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            q_stack(scalar_hp(), [0.0], [0.0], -0.5)

    def test_slice_vector_dimension_checked(self):
        # A slice vector of the wrong size is never cached, so each of its
        # lookups reaches the one shape check and leaves the cache as it was.
        for dim_k in (0, 1, 2):
            fam = SemigroupFamily(zero_generator(2, dim_k))
            fam.factors(np.zeros(dim_k), np.zeros(dim_k), [0.5])
            size = len(fam._cache)
            message = (
                f"slice vectors have shapes ({dim_k + 1},) and ({dim_k},), "
                f"expected ({dim_k},) or (n, {dim_k}) each"
            )
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    fam.factors(np.ones(dim_k + 1), np.zeros(dim_k), [0.5])
            assert len(fam._cache) == size

    def test_zero_generator_q(self):
        c, d = np.array([1.0]), np.array([1j])
        t = 0.7
        expect = np.exp(-t * chi(c, d)) * np.eye(2)
        assert np.allclose(q_stack(zero_generator(2, 1), c, d, t), expect, atol=1e-13)

    def test_scalar_hp_markov_value(self):
        assert abs(q_stack(scalar_hp(), [0.0], [0.0], 1.0)[0, 0] - 0.6065306597126334) < 1e-14

    def test_scalar_hp_coherent_value(self):
        # G_{1,1} = -0.5, so Q_1 = e^{-0.5}.
        assert abs(q_stack(scalar_hp(), [1.0], [1.0], 1.0)[0, 0] - np.exp(-0.5)) < 1e-14


class TestSemigroupProperties:
    def test_semigroup_law(self):
        q = functools.partial(q_stack, random_contractive(3, 2, seed=8))
        rng = np.random.default_rng(9)
        for _ in range(50):
            c, d = random_complex(rng, 2), random_complex(rng, 2)
            s, t = rng.uniform(0, 1.5, size=2)
            lhs = q(c, d, s + t)
            rhs = q(c, d, s) @ q(c, d, t)
            assert op_norm(lhs - rhs) <= 1e-11

    def test_contractivity_transfer(self):
        for seed, mode in ((10, "unitary_C"), (11, "strict_C")):
            F = random_contractive(3, 2, seed=seed, mode=mode)
            assert contractivity_defect(F) <= 1e-10
            rng = np.random.default_rng(seed)
            for _ in range(25):
                c, d = random_complex(rng, 2), random_complex(rng, 2)
                t = rng.uniform(0, 2)
                assert op_norm(q_stack(F, c, d, t)) <= 1.0 + 1e-9


class TestDuality:
    def test_dual_blocks_are_adjoint(self):
        F = random_contractive(2, 2, seed=14)
        dual = dual_generator(F)
        assert np.array_equal(dual.full_matrix(), np.conj(F.full_matrix().T))

    def test_dual_relation(self):
        F = random_contractive(3, 2, seed=15)
        dual = dual_generator(F)
        rng = np.random.default_rng(16)
        for _ in range(40):
            c, d = random_complex(rng, 2), random_complex(rng, 2)
            t = rng.uniform(0, 2)
            assert op_norm(q_stack(dual, c, d, t) - np.conj(q_stack(F, d, c, t).T)) <= 1e-12

    def test_scalar_model_tight(self):
        F = scalar_hp()
        dual = dual_generator(F)
        for t in (0.3, 1.0, 1.7):
            lhs = q_stack(dual, [0.0], [1.0], t)
            rhs = np.conj(q_stack(F, [1.0], [0.0], t).T)
            assert op_norm(lhs - rhs) <= 1e-14

    def test_zero_generator_self_dual(self):
        F = zero_generator(2, 1)
        c, d = np.array([0.4 + 0.2j]), np.array([1.0 - 0.3j])
        assert op_norm(q_stack(dual_generator(F), c, d, 0.8) - np.conj(q_stack(F, d, c, 0.8).T)) <= 1e-14

    def test_dual_generator_recovered(self):
        # Read back from the dual family, the dual generator converges at
        # O(t), and agrees with a read-back from (Q^{d,c}_t)*.
        for seed in (70, 71):
            F = random_contractive(3, 2, seed=seed)
            errs = []
            for t in (1e-2, 5e-3, 2.5e-3):
                got = generator_from_semigroups(functools.partial(q_stack, dual_generator(F)), 2, t)
                adjoint_q = generator_from_semigroups(lambda c, d, t: q_stack(F, d, c, t).conj().T, 2, t)
                assert block_gap(got, adjoint_q) <= 1e-12
                errs.append(block_gap(got, dual_generator(F)))
            for small, big in zip(errs[1:], errs[:-1]):
                assert 0.4 <= small / big <= 0.6


class TestCoordinates:
    def test_zero_generator_grid(self):
        F = zero_generator(2, 2)
        grid = coords_from_f(F)
        eye = np.eye(2)
        assert np.allclose(grid[0, 0], 0.0, atol=1e-15)
        for i in (1, 2):
            assert np.allclose(grid[i, 0], -0.5 * eye, atol=1e-15)
            assert np.allclose(grid[0, i], -0.5 * eye, atol=1e-15)
            for j in (1, 2):
                expect = (1.0 if i == j else 0.0) - 1.0
                assert np.allclose(grid[i, j], expect * eye, atol=1e-15)

    def test_first_cell_is_vacuum_generator(self):
        F = random_contractive(3, 2, seed=17)
        grid = coords_from_f(F)
        assert np.allclose(grid[0, 0], F.K, atol=1e-15)

    def test_scalar_model_recovers_l(self):
        grid = coords_from_f(scalar_hp())
        l_entry = grid[1, 0] - grid[0, 0] + 0.5
        assert abs(l_entry[0, 0] - 1.0) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(18)
        for dim_k in (1, 2, 3):
            for dim_h in (1, 2, 3):
                F = random_blocks(rng, dim_h, dim_k)
                back = coords_to_f(coords_from_f(F))
                err = max(
                    op_norm(back.K - F.K), op_norm(back.L - F.L),
                    op_norm(back.M - F.M), op_norm(back.C - F.C),
                )
                assert err <= 1e-12

    def test_matches_slab_loops_bitwise(self):
        rng = np.random.default_rng(30)
        for dim_k in range(4):
            for dim_h in range(1, 5):
                F = random_blocks(rng, dim_h, dim_k)
                shape = (dim_k + 1, dim_k + 1, dim_h, dim_h)
                for grid in (coords_from_f(F), random_complex(rng, shape)):
                    back = coords_to_f(grid)
                    for got, want in zip((back.K, back.L, back.M, back.C), coords_to_f_loops(grid)):
                        assert_bitwise(got, want)

    def test_coordinate_cells(self):
        assert coordinate_cells(0).shape == (1, 0)
        cells = coordinate_cells(3)
        assert cells.dtype == np.complex128
        assert np.array_equal(cells, np.vstack([np.zeros(3), np.eye(3)]))

    @pytest.mark.parametrize("mode", ["unitary_C", "strict_C"])
    def test_coords_from_f_matches_cell_loop_bitwise(self, mode):
        for F in contractive_cases(mode):
            assert_bitwise(coords_from_f(F), coords_from_f_loops(F))

    def test_component_columns_bounded(self):
        # Semiregularity is trivial at finite dimensions; column norms finite.
        F = random_contractive(2, 3, seed=19)
        full = F.full_matrix()
        assert np.all(np.isfinite(np.linalg.norm(full, axis=0)))

    def test_bad_grid_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            coords_to_f(np.zeros((2, 3, 1, 1)))
        with pytest.raises(ValueError, match="inconsistent shape"):
            coords_to_f(np.zeros((0, 0, 1, 1)))


class TestFamilyCache:
    def test_cache_returns_cached_object(self):
        fam = SemigroupFamily(scalar_hp())
        [a] = fam.factors([[0.5]], [[0.25]], [1.0])
        [b] = fam.factors([[0.5]], [[0.25]], [1.0])
        assert a is b
        assert fam.factors([[0.5]], [[0.25]], np.array([1.0]))[0] is a
        assert all(q is a for q in fam.factors([[0.5], [0.5]], [[0.25], [0.25]], [1.0, 1.0]))
        assert len(fam._cache) == 2  # G_{c,d} and one Q

    def test_exact_key_discrimination(self):
        fam = SemigroupFamily(scalar_hp())
        a, b = fam.factors([[0.5], [0.5]], [[0.0], [0.0]], [0.1, 0.1 + 2**-40])
        assert a is not b
        assert len(fam._cache) == 3

    def test_concurrent_reads_consistent(self):
        fam = SemigroupFamily(random_contractive(3, 2, seed=20))
        rng = np.random.default_rng(21)
        keys = [
            (random_complex(rng, 2), random_complex(rng, 2), float(rng.uniform(0, 2)))
            for _ in range(8)
        ]
        results = [[] for _ in range(4)]

        def worker(bucket):
            for c, d, t in keys:
                bucket.append(fam.factors([c], [d], [t])[0])

        threads = [threading.Thread(target=worker, args=(results[i],)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for bucket in results[1:]:
            for got, want in zip(bucket, results[0]):
                assert np.array_equal(got, want)
