import re
import threading

import numpy as np
import pytest

from qscocycle import (
    BlockGenerator,
    SemigroupFamily,
    chi,
    contractivity_defect,
    coords_from_f,
    coords_to_f,
    dual_generator,
    g_generator,
    generator_from_semigroups,
    op_norm,
    random_contractive,
)
from qscocycle.semigroups import coordinate_cells, q_stack

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
        g = SemigroupFamily(F).slice_generators(z, z)
        assert np.allclose(g_generator(F, z, z), F.K, atol=1e-15)
        assert np.allclose(g, F.K, atol=1e-15)

    def test_scalar_model_values(self):
        g = SemigroupFamily(scalar_hp()).slice_generators([1.0], [1.0])
        assert abs(g_generator(scalar_hp(), [1.0], [1.0])[0, 0] + 0.5) < 1e-15
        assert abs(g[0, 0] + 0.5) < 1e-15

    def test_shift_identity(self):
        # G_{c,d} is the slice E^c-hat F E_d-hat shifted by -chi(c, d).
        F = random_contractive(2, 2, seed=3)
        rng = np.random.default_rng(4)
        c, d = random_complex(rng, 2), random_complex(rng, 2)
        g = SemigroupFamily(F).slice_generators(c, d)
        assert np.array_equal(g, g_generator(F, c, d))
        assert op_norm(g - kron_component(F, c, d) + chi_loop(c, d) * np.eye(2)) <= 1e-12


class TestStacks:
    def test_stacked_g_generator_equals_per_slice_bitwise(self):
        rng = np.random.default_rng(61)
        F = random_blocks(rng, 3, 2)
        cs, ds = random_complex(rng, (5, 2)), random_complex(rng, (5, 2))
        stack = g_generator(F, cs, ds)
        assert stack.shape == (5, 3, 3)
        for k in range(5):
            assert_bitwise(stack[k], g_generator(F, cs[k], ds[k]))

    def test_q_stack_matches_family(self):
        F = random_contractive(2, 2, seed=67)
        rng = np.random.default_rng(67)
        cs, ds = random_complex(rng, (6, 2)), random_complex(rng, (6, 2))
        ts = np.array([0.0, 0.1, 0.5, 1.0, 3.0, 20.0])
        stack = q_stack(F, cs, ds, ts)
        fam = SemigroupFamily(F)
        for k in range(6):
            ref = fam.q(cs[k], ds[k], ts[k])
            assert op_norm(stack[k] - ref) <= 1e-14 * max(1.0, op_norm(ref))

    @pytest.mark.parametrize("t", [-0.1, np.inf, np.nan])
    def test_q_stack_rejects_bad_times(self, t):
        F = scalar_hp()
        with pytest.raises(ValueError, match="nonnegative"):
            q_stack(F, np.zeros((2, 1)), np.zeros((2, 1)), [0.5, t])


class TestSemigroupValues:
    def test_time_zero(self):
        fam = SemigroupFamily(random_contractive(2, 1, seed=5))
        assert np.array_equal(fam.q([0.3], [0.1], 0.0), np.eye(2))

    def test_negative_time_rejected(self):
        fam = SemigroupFamily(scalar_hp())
        with pytest.raises(ValueError, match="nonnegative"):
            fam.q([0.0], [0.0], -0.5)

    def test_slice_vector_dimension_checked(self):
        # A slice vector of the wrong size is never cached, so each of its
        # lookups reaches the one shape check and leaves the cache as it was.
        for dim_k in (0, 1, 2):
            fam = SemigroupFamily(zero_generator(2, dim_k))
            fam.q(np.zeros(dim_k), np.zeros(dim_k), 0.5)
            size = len(fam._cache)
            message = (
                f"slice vectors have shapes ({dim_k + 1},) and ({dim_k},), "
                f"expected ({dim_k},) or (n, {dim_k}) each"
            )
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    fam.q(np.ones(dim_k + 1), np.zeros(dim_k), 0.5)
            assert len(fam._cache) == size

    def test_zero_generator_q(self):
        fam = SemigroupFamily(zero_generator(2, 1))
        c, d = np.array([1.0]), np.array([1j])
        t = 0.7
        expect = np.exp(-t * chi(c, d)) * np.eye(2)
        assert np.allclose(fam.q(c, d, t), expect, atol=1e-13)

    def test_scalar_hp_markov_value(self):
        fam = SemigroupFamily(scalar_hp())
        assert abs(fam.q([0.0], [0.0], 1.0)[0, 0] - 0.6065306597126334) < 1e-14

    def test_scalar_hp_coherent_value(self):
        fam = SemigroupFamily(scalar_hp())
        # G_{1,1} = -0.5, so Q_1 = e^{-0.5}.
        assert abs(fam.q([1.0], [1.0], 1.0)[0, 0] - np.exp(-0.5)) < 1e-14


class TestSemigroupProperties:
    def test_semigroup_law(self):
        fam = SemigroupFamily(random_contractive(3, 2, seed=8))
        rng = np.random.default_rng(9)
        for _ in range(50):
            c, d = random_complex(rng, 2), random_complex(rng, 2)
            s, t = rng.uniform(0, 1.5, size=2)
            lhs = fam.q(c, d, s + t)
            rhs = fam.q(c, d, s) @ fam.q(c, d, t)
            assert op_norm(lhs - rhs) <= 1e-11

    def test_contractivity_transfer(self):
        for seed, mode in ((10, "unitary_C"), (11, "strict_C")):
            F = random_contractive(3, 2, seed=seed, mode=mode)
            assert contractivity_defect(F) <= 1e-10
            fam = SemigroupFamily(F)
            rng = np.random.default_rng(seed)
            for _ in range(25):
                c, d = random_complex(rng, 2), random_complex(rng, 2)
                t = rng.uniform(0, 2)
                assert op_norm(fam.q(c, d, t)) <= 1.0 + 1e-9


class TestDuality:
    def test_dual_blocks_are_adjoint(self):
        F = random_contractive(2, 2, seed=14)
        dual = dual_generator(F)
        assert np.array_equal(dual.full_matrix(), np.conj(F.full_matrix().T))

    def test_dual_relation(self):
        F = random_contractive(3, 2, seed=15)
        fam, dfam = SemigroupFamily(F), SemigroupFamily(dual_generator(F))
        rng = np.random.default_rng(16)
        for _ in range(40):
            c, d = random_complex(rng, 2), random_complex(rng, 2)
            t = rng.uniform(0, 2)
            assert op_norm(dfam.q(c, d, t) - np.conj(fam.q(d, c, t).T)) <= 1e-12

    def test_scalar_model_tight(self):
        F = scalar_hp()
        fam, dfam = SemigroupFamily(F), SemigroupFamily(dual_generator(F))
        for t in (0.3, 1.0, 1.7):
            lhs = dfam.q([0.0], [1.0], t)
            rhs = np.conj(fam.q([1.0], [0.0], t).T)
            assert op_norm(lhs - rhs) <= 1e-14

    def test_zero_generator_self_dual(self):
        F = zero_generator(2, 1)
        fam, dfam = SemigroupFamily(F), SemigroupFamily(dual_generator(F))
        c, d = np.array([0.4 + 0.2j]), np.array([1.0 - 0.3j])
        assert op_norm(dfam.q(c, d, 0.8) - np.conj(fam.q(d, c, 0.8).T)) <= 1e-14

    def test_dual_generator_recovered(self):
        # Read back from the dual family, the dual generator converges at
        # O(t), and agrees with a read-back from (Q^{d,c}_t)*.
        for seed in (70, 71):
            F = random_contractive(3, 2, seed=seed)
            fam, dfam = SemigroupFamily(F), SemigroupFamily(dual_generator(F))
            errs = []
            for t in (1e-2, 5e-3, 2.5e-3):
                got = generator_from_semigroups(dfam.q, 2, t)
                adjoint_q = generator_from_semigroups(lambda c, d, t: fam.q(d, c, t).conj().T, 2, t)
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
        a = fam.q([0.5], [0.25], 1.0)
        b = fam.q([0.5], [0.25], 1.0)
        assert a is b
        assert fam.q([0.5], [0.25], np.array(1.0)) is a

    def test_exact_key_discrimination(self):
        fam = SemigroupFamily(scalar_hp())
        a = fam.q([0.5], [0.0], 0.1)
        b = fam.q([0.5], [0.0], 0.1 + 2**-40)
        assert a is not b

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
                bucket.append(fam.q(c, d, t))

        threads = [threading.Thread(target=worker, args=(results[i],)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for bucket in results[1:]:
            for got, want in zip(bucket, results[0]):
                assert np.array_equal(got, want)
