import bisect
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qscocycle import mat_exp, max_herm_eig, op_norm, opcore, psd_inv_sqrt
from qscocycle.opcore import (
    EXP_NORM_LIMIT,
    PSD_TOL,
    _EXP_EDGES,
    _EXP_KEYS,
    _PADE_THETA,
    _exp_norm_measure,
    _identity_terms,
    _scaling,
    mat_exp_stack,
    op_norm_stack,
    psd_inv_sqrt_stack,
)

from oracles import assert_bitwise, pade_expm_fresh_eye, random_complex, scipy_expm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_nilpotent(self):
        out = mat_exp([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_diagonal(self):
        out = mat_exp([[-0.5]])
        assert abs(out[0, 0] - 0.6065306597126334) < 1e-15

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for scale in (0.01, 0.3, 1.0, 3.0, 8.0):
            for _ in range(6):
                a = random_complex(rng, (5, 5))
                a *= scale / op_norm(a)
                ref = scipy_expm(a)
                err = op_norm(mat_exp(a) - ref) / op_norm(ref)
                assert err < 1e-12, (scale, err)

    def test_commuting_factorization(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_complex(rng, (4, 4), 0.5)
            a = 0.3 * m + 0.1 * m @ m
            b = -0.2 * m + 0.05 * m @ m
            lhs = mat_exp(a + b)
            rhs = mat_exp(a) @ mat_exp(b)
            assert op_norm(lhs - rhs) <= 1e-10 * max(1.0, op_norm(lhs))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_complex(rng, (4, 4))
            lhs = np.conj(mat_exp(a).T)
            rhs = mat_exp(np.conj(a.T))
            assert op_norm(lhs - rhs) <= 1e-12 * max(1.0, op_norm(rhs))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            mat_exp(np.zeros((2, 3)))

    def test_norm_overflow_reported(self):
        with pytest.raises(OverflowError, match="norm"):
            mat_exp(2e4 * np.eye(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mat_exp([[np.inf, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), complex(np.inf, np.nan)])
    def test_nan_entry_rejected_as_non_finite(self, bad):
        # A NaN norm fails the norm test too, so the entries are checked first.
        a = np.zeros((3, 3), dtype=np.complex128)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mat_exp(a)
        a[0, 0] = 1e300  # a finite norm overflow elsewhere does not hide the NaN
        with pytest.raises(ValueError, match="non-finite"):
            mat_exp(a)

    def test_overflowing_column_sum_is_norm_overflow(self):
        # Finite entries whose absolute column sum is inf: an overflow, not a
        # non-finite input.  The suite turns warnings into errors, so numpy's
        # overflow warning must not escape either.
        a = np.full((2, 2), 1e308)
        with pytest.raises(OverflowError, match="norm inf"):
            mat_exp(a)
        with pytest.raises(OverflowError, match="norm inf"):
            mat_exp_stack(np.stack([np.eye(2), a]))

    def test_wrong_shape_keeps_its_message(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            mat_exp(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            mat_exp([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_empty(self):
        got = mat_exp(np.zeros((0, 0)))
        assert got.shape == (0, 0) and got.dtype == np.complex128

    @pytest.mark.parametrize("a", [np.zeros((0, 0), dtype=np.complex128),
                                   np.zeros((3, 3), dtype=np.complex128)])
    def test_trivial_inputs_return_fresh_arrays(self, a):
        got = mat_exp(a)
        assert got is not a and not np.shares_memory(got, a) and got.flags.writeable
        got[...] = 7.0
        assert_bitwise(mat_exp(a), np.eye(len(a), dtype=np.complex128))
        assert not a.any()


class TestSquaringOverflow:
    # Norm 800 is under EXP_NORM_LIMIT, but exp(800) is not a double: the
    # squarings overflow, and a named error says so in place of inf + nanj.
    @pytest.mark.parametrize("a", [800 * np.eye(2), np.diag([1.0, 750.0j + 750.0])])
    def test_named_error_and_no_warning(self, a):
        with pytest.raises(OverflowError, match="^mat_exp squarings overflowed: exp at input norm"):
            mat_exp(a)
        with pytest.raises(OverflowError, match="^mat_exp squarings overflowed"):
            mat_exp_stack(np.stack([np.eye(2), a, np.zeros((2, 2))]))
        assert np.isfinite(mat_exp(700 * np.eye(2))).all()

    def test_warnings_as_errors(self):
        code = (
            "import numpy as np; from qscocycle import mat_exp\n"
            "try: mat_exp(800 * np.eye(2))\n"
            "except OverflowError as exc: print(type(exc).__name__, exc)"
        )
        src = str(Path(opcore.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "OverflowError mat_exp squarings overflowed: exp at input norm 800 is not finite\n"


def _norm_mirror(a):
    # How perfbench/tracing.py picks the Pade degree for its flop count.
    return max(np.linalg.norm(a, 1), np.linalg.norm(a, np.inf))


class TestExpNormMeasure:
    def test_matches_numpy_norms_bitwise(self):
        rng = np.random.default_rng(47)
        for n in range(1, 25):
            for scale in (1e-4, 1.0, 20.0):
                a = random_complex(rng, (n, n), scale)
                a[rng.random((n, n)) < 0.3] = 0.0
                assert_bitwise(_exp_norm_measure(a), _norm_mirror(a))
                assert_bitwise(_exp_norm_measure(a.real), _norm_mirror(a.real))

    def test_stack_is_measured_per_matrix(self):
        rng = np.random.default_rng(53)
        stack = random_complex(rng, (2, 3, 5, 5), 3.0)
        want = np.array([_norm_mirror(a) for a in stack.reshape(-1, 5, 5)]).reshape(2, 3)
        assert_bitwise(_exp_norm_measure(stack), want)

    def test_zero_and_overflowing_matrices(self):
        zero = np.zeros((3, 3), dtype=complex)
        assert_bitwise(_exp_norm_measure(zero), _norm_mirror(zero))
        assert _exp_norm_measure(zero) == 0.0
        # Finite entries whose row and column sums overflow to inf.
        big = np.full((3, 3), 1e308 + 1e308j)
        with np.errstate(over="ignore"):
            assert_bitwise(_exp_norm_measure(big), _norm_mirror(big))
            assert_bitwise(_exp_norm_measure(big.real), _norm_mirror(big.real))
            assert _exp_norm_measure(big.real) == np.inf
        with pytest.raises(OverflowError, match="norm inf exceeds"):
            mat_exp(big)
        with pytest.raises(OverflowError, match="norm inf exceeds"):
            mat_exp_stack(big[None])


class TestPsdInvSqrt:
    def test_identity(self):
        assert np.allclose(psd_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_scalar(self):
        assert np.allclose(psd_inv_sqrt([[4.0]]), [[0.5]], atol=1e-14)

    def test_random_psd_inverse_property(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            x = random_complex(rng, (4, 4))
            a = x @ np.conj(x.T) + 0.5 * np.eye(4)
            root = psd_inv_sqrt(a)
            assert op_norm(np.conj(root.T) - root) <= 1e-12
            assert op_norm(root @ a @ root - np.eye(4)) <= 1e-10
            assert op_norm(root @ a - a @ root) <= 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_inv_sqrt([[1.0, 1.0], [0.0, 1.0]])

    def test_anti_hermitian_part_just_above_tol_rejected(self):
        tol = 1e-12
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        # |a - a*| = 2 * (0.5 * 1.01 * tol) = 1.01 tol in the operator norm.
        a = np.eye(2) + 0.5 * 1.01 * tol * skew
        with pytest.raises(ValueError, match="Hermitian"):
            psd_inv_sqrt(a)
        assert np.allclose(psd_inv_sqrt(np.eye(2) + 1e-3 * tol * skew), np.eye(2))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            psd_inv_sqrt(np.diag([1.0, 1e-15]))

    def test_empty(self):
        assert psd_inv_sqrt(np.zeros((0, 0))).shape == (0, 0)


class TestPsdParts:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (5, 2, 2, 2), (3, 1, 1), (2, 0, 0)])
    def test_hermiticity_defect_is_numpys_frobenius_norm(self, shape):
        # Hermitian, nearly Hermitian, non-Hermitian and indefinite stacks.
        rng = np.random.default_rng(61)
        x = random_complex(rng, shape)
        gram = x @ np.conj(x.mT) + 0.5 * np.eye(shape[-1])
        herm = 0.5 * (gram + np.conj(gram.mT))
        for a in (herm, gram, gram + 1e-3 * x, herm - 20.0 * np.eye(shape[-1]), x):
            herm_defect = opcore._psd_parts(a.astype(np.complex128))[3]
            assert_bitwise(herm_defect, np.linalg.norm(a - np.conj(a.mT), axis=(-2, -1)))


class TestOpNorm:
    def test_identity(self):
        assert abs(op_norm(np.eye(3)) - 1.0) < 1e-14

    def test_diagonal(self):
        assert abs(op_norm(np.diag([2.0, -3.0])) - 3.0) < 1e-12

    def test_column_vector(self):
        assert abs(op_norm([[3.0], [4.0]]) - 5.0) < 1e-12

    def test_vector_rejected(self):
        for norm, name in ((op_norm, "2-dimensional"), (op_norm_stack, "at least 2-dimensional")):
            with pytest.raises(ValueError, match=f"^op_norm input must be {name}, got ndim=1$"):
                norm(np.ones(3))

    def test_submultiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_complex(rng, (3, 4))
            b = random_complex(rng, (4, 2))
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


class TestMaxHermEig:
    def test_zero(self):
        assert max_herm_eig(np.zeros((2, 2))) == 0.0

    def test_diagonal(self):
        assert abs(max_herm_eig(np.diag([-1.0, -2.0])) + 1.0) < 1e-13

    def test_nonnormal(self):
        # Hermitian part of [[0, 2], [0, 0]] is [[0, 1], [1, 0]].
        assert abs(max_herm_eig([[0.0, 2.0], [0.0, 0.0]]) - 1.0) < 1e-13

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            max_herm_eig(np.zeros((1, 2)))

    def test_empty(self):
        assert max_herm_eig(np.zeros((0, 0))) == 0.0


def _with_norm(rng, n, mu):
    """A random n x n matrix with max(|a|_1, |a|_inf) = mu."""
    a = random_complex(rng, (n, n))
    return a * (mu / max(np.linalg.norm(a, 1), np.linalg.norm(a, np.inf)))


class TestStacks:
    def test_exp_stack_matches_mat_exp_per_matrix(self):
        # Every Pade degree (norms just under each theta), unscaled m = 13,
        # scaling exponents 1, 3 and 7, and a zero matrix, shuffled in one stack.
        rng = np.random.default_rng(41)
        norms = [0.0, 0.01, 0.2, 0.9, 2.0, 5.0, 6.0, 30.0, 400.0]
        stack = np.array([_with_norm(rng, 3, mu) for mu in norms])[rng.permutation(len(norms))]
        got = mat_exp_stack(stack)
        for k, a in enumerate(stack):
            assert_bitwise(got[k], mat_exp(a))

    def test_stacked_scalings_are_mat_exps(self):
        # theta_13 2^k and one ulp to either side of it, where ceil(log2) steps:
        # bitwise exponentials at the edges, from diagonal skew-Hermitian
        # matrices whose norm measure is exactly mu.
        edges = _PADE_THETA[-1][1] * 2.0 ** np.arange(11)
        edges = np.concatenate((np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)))
        stack = edges[:, None, None] * np.diag([1j, -0.5j])
        got = mat_exp_stack(stack)
        for k, a in enumerate(stack):
            assert_bitwise(got[k], mat_exp(a))

    def test_key_table_is_the_scalar_rule(self):
        # The first edge >= mu names the (m, s) that the first theta_m >= mu,
        # or else _scaling, gives: at 0, at every edge and a few ulps to either
        # side (where ceil(log2) steps), and at random norms up to the limit.
        def rule(mu):
            if mu == 0.0:
                return 0, 0
            for m, theta in _PADE_THETA:
                if mu <= theta:
                    return m, 0
            return 13, _scaling(mu)

        mu = [0.0, 5e-324, EXP_NORM_LIMIT]
        for edge in _EXP_EDGES[1:]:
            lo = hi = edge
            for _ in range(4):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
                mu += [lo, hi]
            mu.append(edge)
        rng = np.random.default_rng(59)
        mu += rng.uniform(5.0, EXP_NORM_LIMIT, 2000).tolist() + (10.0 ** rng.uniform(-8, 4, 2000)).tolist()
        mu = [x for x in mu if x <= EXP_NORM_LIMIT]
        assert [_EXP_KEYS[bisect.bisect_left(_EXP_EDGES, x)] for x in mu] == [rule(x) for x in mu]
        assert np.searchsorted(_EXP_EDGES, mu).tolist() == [bisect.bisect_left(_EXP_EDGES, x) for x in mu]
        assert len(_EXP_KEYS) == len(_EXP_EDGES)

    def test_exp_stack_of_one_and_leading_axes(self):
        rng = np.random.default_rng(43)
        a = _with_norm(rng, 4, 12.0)
        assert_bitwise(mat_exp_stack(a[None])[0], mat_exp(a))
        grid = np.array([[_with_norm(rng, 2, mu) for mu in (0.1, 3.0, 50.0)] for _ in range(2)])
        got = mat_exp_stack(grid)
        assert got.shape == grid.shape
        assert_bitwise(got[1, 2], mat_exp(grid[1, 2]))
        assert mat_exp_stack(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    def test_exp_stack_rejects_what_mat_exp_rejects(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mat_exp_stack(stack)
        stack[1, 0, 0] = 2e4
        with pytest.raises(OverflowError, match="norm"):
            mat_exp_stack(stack)
        with pytest.raises(ValueError, match="square"):
            mat_exp_stack(np.zeros((2, 2, 3)))
        # A NaN or inf last in a stack of mixed degrees: Python's max skips a
        # NaN norm that is not first, and the first edge >= NaN is the zero
        # matrix's, so the NaN must be caught on its own.
        rng = np.random.default_rng(71)
        mixed = np.array([_with_norm(rng, 3, mu) for mu in (0.0, 0.01, 0.2, 3.0, 40.0, 0.5)])
        for bad in (np.nan, np.inf, complex(1.0, np.nan)):
            stack = mixed.copy()
            stack[-1, 1, 2] = bad
            for a in (stack, stack[::-1].reshape(2, 3, 3, 3)):
                with pytest.raises(ValueError, match="^mat_exp input contains non-finite entries$"):
                    mat_exp_stack(a)
        # Two norms over the limit: the error names the largest.
        stack = np.array([np.eye(2), 2e307 * np.eye(2), np.full((2, 2), 1e308), 3e4 * np.eye(2)])
        with pytest.raises(OverflowError, match="^mat_exp input norm inf exceeds"):
            mat_exp_stack(stack)
        with pytest.raises(OverflowError, match="^mat_exp input norm 3e\\+04 exceeds"):
            mat_exp_stack(np.array([2e4 * np.eye(2), np.eye(2), 3e4 * np.eye(2)]))

    def test_empty_stacks(self):
        assert mat_exp_stack(np.zeros((0, 0))).shape == (0, 0)
        assert mat_exp_stack(np.zeros((3, 0, 0))).shape == (3, 0, 0)
        assert mat_exp_stack(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    def test_inv_sqrt_stack_ok_agrees_with_raising(self):
        rng = np.random.default_rng(47)
        x = random_complex(rng, (2, 2))
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        stack = np.array([
            x @ np.conj(x.T) + 0.5 * np.eye(2),
            [[1.0, 1.0], [0.0, 1.0]],  # not Hermitian
            np.eye(2) + 0.5 * 1.01 * PSD_TOL * skew,  # just outside the Hermiticity test
            np.diag([1.0, 1e-15]),  # eigenvalue below PSD_TOL
            np.diag([1.0, PSD_TOL]),  # eigenvalue equal to PSD_TOL
            np.diag([2.0, 3.0]),
        ])
        roots, ok = psd_inv_sqrt_stack(stack)
        assert ok.tolist() == [True, False, False, False, False, True]
        # As pairs, the shape of the Schur screen's two weights per probe.
        paired, ok_paired = psd_inv_sqrt_stack(stack.reshape(3, 2, 2, 2))
        assert_bitwise(paired, roots.reshape(3, 2, 2, 2))
        assert np.array_equal(ok_paired, ok.reshape(3, 2))
        for k, a in enumerate(stack):
            if ok[k]:
                assert_bitwise(roots[k], psd_inv_sqrt(a))
            else:
                with pytest.raises(ValueError, match="Hermitian|eigenvalue"):
                    psd_inv_sqrt(a)
                assert np.array_equal(roots[k], np.zeros((2, 2)))

    def test_op_norm_stack_matches_op_norm(self):
        rng = np.random.default_rng(53)
        stack = random_complex(rng, (2, 5, 3, 4))
        got = op_norm_stack(stack)
        assert got.shape == (2, 5)
        assert all(got[i, j] == op_norm(stack[i, j]) for i in range(2) for j in range(5))
        assert np.array_equal(op_norm_stack(np.zeros((3, 0, 2))), np.zeros(3))


def _degree_inputs(rng, n):
    """Matrices with norms just under and just over each theta_m, and over
    theta_13 * 2^k for k = 1..6, so every degree and s = 0..7 is taken."""
    thetas = [theta for _, theta in _PADE_THETA]
    bounds = thetas + [thetas[-1] * 2.0**k for k in range(1, 7)]
    return [_with_norm(rng, n, mu * f) for mu in bounds for f in (1 - 1e-9, 1 + 1e-9)]


class TestNoCachedStateLeaks:
    def test_identity_terms_are_read_only(self):
        for m, _ in _PADE_THETA:
            for term in _identity_terms(5, m):
                assert not term.flags.writeable
                with pytest.raises(ValueError):
                    term[0, 0] = 2.0

    def test_results_are_fresh_and_mutation_does_not_reach_the_next_call(self):
        rng = np.random.default_rng(59)
        for n in (1, 4, 12):
            for a in _degree_inputs(rng, n):
                first, first_stack = mat_exp(a), mat_exp_stack(a[None])
                want, want_stack = first.copy(), first_stack.copy()
                assert first.flags.writeable and first_stack.flags.writeable
                first[...] = np.nan
                first_stack[...] = np.nan
                second = mat_exp(a)
                assert second is not first and not np.shares_memory(second, first)
                assert_bitwise(second, want)
                assert_bitwise(mat_exp_stack(a[None]), want_stack)

    def test_cached_identity_gives_the_fresh_eye_bits(self):
        # Every degree and s = 0..7, single and as a stack of one; the
        # inputs carry signed zeros, which a diagonal-only add would flip.
        rng = np.random.default_rng(61)
        seen = set()
        for n in (1, 3, 12, 24):
            for a in _degree_inputs(rng, n):
                a.real[rng.random((n, n)) < 0.3] = -0.0
                mu = _exp_norm_measure(a)
                m = next((m for m, theta in _PADE_THETA if mu <= theta), 13)
                s = opcore._scaling(mu) if mu > _PADE_THETA[-1][1] else 0
                want = pade_expm_fresh_eye(a, m, s)
                assert_bitwise(mat_exp(a), want)
                assert_bitwise(mat_exp_stack(a[None])[0], want)
                seen.add((m, s))
        assert {m for m, _ in seen} == {3, 5, 7, 9, 13}
        assert {s for _, s in seen} == set(range(8))


class _CountsSquarings(np.ndarray):
    """An approximant that counts the products formed from it."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return (np.asarray(self) @ np.asarray(other)).view(type(self))


class TestTracerDegreeMirror:
    def test_tracer_reports_the_degree_and_scaling_mat_exp_uses(self, monkeypatch):
        # The benchmark's flop count mirrors mat_exp's choice of m and s; spy
        # on the approximant mat_exp evaluates and count its squarings.
        mat_exp_flops = runpy.run_path(str(TRACING))["_mat_exp_flops"]
        pade = opcore._pade_approx
        seen = []

        def spy(a, m):
            seen.append((a.copy(), m))
            return pade(a, m).view(_CountsSquarings)

        monkeypatch.setattr(opcore, "_pade_approx", spy)
        rng = np.random.default_rng(67)
        for n in (1, 3, 12, 24):
            for a in [np.zeros((n, n))] + _degree_inputs(rng, n):
                seen.clear()
                _CountsSquarings.products = 0
                mat_exp(a)
                flops, s = mat_exp_flops(a)
                if not a.any():
                    assert (flops, s, seen) == (0.0, 0, [])
                    continue
                [(arg, m)] = seen
                assert s == _CountsSquarings.products
                assert_bitwise(arg, a.astype(np.complex128) / 2.0**s)
                products = 6 if m == 13 else m // 2 + 1
                assert flops == 8.0 * n**3 * (products + s) + 32.0 / 3.0 * n**3
