import numpy as np
import pytest

from qscocycle import mat_exp, max_herm_eig, op_norm, psd_inv_sqrt
from qscocycle.opcore import (
    PSD_TOL,
    _exp_norm_measure,
    mat_exp_stack,
    op_norm_stack,
    psd_inv_sqrt_stack,
)

from oracles import assert_bitwise, random_complex, scipy_expm


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

    def test_empty(self):
        got = mat_exp(np.zeros((0, 0)))
        assert got.shape == (0, 0) and got.dtype == np.complex128


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
