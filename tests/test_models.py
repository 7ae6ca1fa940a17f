import numpy as np
import pytest

from qscocycle import (
    OscillatorSpec,
    SemigroupFamily,
    birth_death,
    classify,
    contractivity_defect,
    form_defect,
    from_hlc,
    inverse_oscillator,
    mat_exp,
    op_norm,
    random_contractive,
)
from qscocycle.generator import adjoint

from oracles import (
    assert_bitwise,
    birth_death_loops,
    classical_rate_matrix,
    diagonal_flow_generator,
    oscillator_loops,
)


def operator_inequality_matrices(F):
    """Both residues F* + F + F* Delta F and F + F* + F Delta F*."""
    full = F.full_matrix()
    delta_f = full.copy()
    delta_f[: F.dim_h, :] = 0.0
    f_delta = full.copy()
    f_delta[:, : F.dim_h] = 0.0
    left = full + adjoint(full) + adjoint(full) @ delta_f
    right = full + adjoint(full) + f_delta @ adjoint(f_delta)
    return left, right


class TestOscillator:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            OscillatorSpec(dim=1, lam=np.zeros(2), mu=np.zeros(1))
        with pytest.raises(ValueError, match="lam"):
            OscillatorSpec(dim=3, lam=np.zeros(3), mu=np.zeros(3))
        with pytest.raises(ValueError, match="mu"):
            OscillatorSpec(dim=3, lam=np.zeros(4), mu=np.zeros(4))
        for lam, mu in (([0.0, 0.0, np.inf, 0.0], [0.0] * 3), ([0.0] * 4, [0.0, np.nan, 0.0])):
            with pytest.raises(ValueError, match="oscillator sequences must be finite"):
                OscillatorSpec(dim=3, lam=lam, mu=mu)

    def test_trivial_sequences_give_zero(self):
        F = inverse_oscillator(OscillatorSpec(dim=3, lam=np.zeros(4), mu=np.zeros(3)))
        assert op_norm(F.full_matrix()) == 0.0

    def test_flat_coupling_drift(self):
        # nu(n) = -|lam(n+1)|^2 / 2 is constant for lam identically one.
        F = inverse_oscillator(OscillatorSpec(dim=3, lam=np.ones(4), mu=np.zeros(3)))
        assert np.allclose(np.diag(F.K), [-0.5, -0.5, -0.5])

    def test_raising_coupling_drift(self):
        # lam(n) = sqrt(n) reproduces the raising-operator rates (n+1)/2.
        lam = np.sqrt(np.arange(4.0))
        F = inverse_oscillator(OscillatorSpec(dim=3, lam=lam, mu=np.zeros(3)))
        assert np.allclose(np.diag(F.K), [-0.5, -1.0, -1.5])

    def test_block_structure(self):
        spec = OscillatorSpec(dim=4, lam=1.0 + np.arange(5.0) * 1j, mu=np.arange(4.0))
        F = inverse_oscillator(spec)
        # L is the shift weighted by -lam(n+1); M its negated adjoint (C = I).
        assert F.L[1, 0] == -spec.lam[1]
        assert F.M[0, 1] == np.conj(spec.lam[1])
        assert op_norm(F.M + adjoint(F.L)) == 0.0
        assert np.array_equal(F.C, np.eye(4))
        assert np.allclose(np.diag(F.K).imag, spec.mu)

    def test_interior_identities_vanish_exactly(self):
        spec = OscillatorSpec(dim=5, lam=np.linspace(1.0, 2.0, 6), mu=np.ones(5))
        F = inverse_oscillator(spec)
        left, right = operator_inequality_matrices(F)
        total = F.total_dim
        interior = [i for i in range(total) if i != F.dim_h - 1]
        assert np.abs(left[np.ix_(interior, interior)]).max() == 0.0
        assert np.abs(right[np.ix_(interior, interior)]).max() == 0.0
        # Top truncated level keeps the cut coupling, strictly dissipative.
        lam_top = spec.lam[-1]
        assert abs(left[F.dim_h - 1, F.dim_h - 1] + abs(lam_top) ** 2) < 1e-15

    def test_interior_form_defect_zero(self):
        # The residue matrix vanishes identically on the interior (asserted
        # bit-exactly above); the two-term form evaluation of that zero picks
        # up only summation roundoff.
        spec = OscillatorSpec(dim=4, lam=np.ones(5), mu=np.arange(4.0))
        F = inverse_oscillator(spec)
        rng = np.random.default_rng(3)
        for _ in range(10):
            xi = rng.standard_normal(F.total_dim) + 1j * rng.standard_normal(F.total_dim)
            xi[F.dim_h - 1] = 0.0  # supported on levels 0..dim-2
            assert abs(form_defect(F, xi)) <= 1e-13 * np.vdot(xi, xi).real

    def test_contractive(self):
        spec = OscillatorSpec(dim=6, lam=np.ones(7), mu=np.linspace(-1, 1, 6))
        assert classify(inverse_oscillator(spec)).is_contractive


    def test_blocks_match_entry_loops_bitwise(self):
        rng = np.random.default_rng(31)
        for dim in range(2, 25):
            lam = rng.standard_normal(dim + 1) + 1j * rng.standard_normal(dim + 1)
            lam[::3] = 0.0  # vanishing couplings, whose negation is a signed zero
            spec = OscillatorSpec(dim=dim, lam=lam, mu=rng.standard_normal(dim))
            F = inverse_oscillator(spec)
            for got, want in zip((F.K, F.L, F.M, F.C), oscillator_loops(spec)):
                assert_bitwise(got, want)


class TestBirthDeath:
    def test_validation(self):
        with pytest.raises(ValueError, match="dim >= 3"):
            birth_death(2, np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="nonnegative"):
            birth_death(3, [-1.0, 0.0, 0.0], np.zeros(3))
        with pytest.raises(ValueError, match="entries"):
            birth_death(3, np.ones(2), np.ones(3))

    def test_zero_rates(self):
        F = birth_death(3, np.zeros(3), np.zeros(3))
        assert op_norm(F.full_matrix()) == 0.0

    def test_constant_rate_drift(self):
        F = birth_death(4, np.ones(4), np.ones(4))
        # Half total jump rates with boundary adjustments.
        assert np.allclose(np.diag(F.K).real, [-0.5, -1.0, -1.0, -0.5])
        assert np.all(np.diag(F.K).real >= -1.0)
        assert np.all(np.diag(F.K).real <= -0.5)

    def test_blocks_match_entry_loops_bitwise(self):
        rng = np.random.default_rng(32)
        for dim in range(3, 25):
            birth, death = rng.uniform(0.0, 2.0, (2, dim))
            birth[::4] = 0.0
            F, ref = birth_death(dim, birth, death), birth_death_loops(dim, birth, death)
            for X in "KLMC":
                assert_bitwise(getattr(F, X), getattr(ref, X))

    def test_channel_blocks_are_weighted_shifts(self):
        birth = np.array([1.0, 4.0, 9.0, 0.0])
        death = np.array([0.0, 1.0, 4.0, 9.0])
        F = birth_death(4, birth, death)
        up = F.L[0:4]
        down = F.L[4:8]
        assert up[1, 0] == 1.0 and up[2, 1] == 2.0 and up[3, 2] == 3.0
        assert down[0, 1] == 1.0 and down[1, 2] == 2.0 and down[2, 3] == 3.0

    def test_classify_contractive_equality(self):
        report = classify(birth_death(5, np.ones(5), 2.0 * np.ones(5)))
        assert report.is_contractive
        assert report.equality_case

    def test_markov_diagonal_is_no_jump_amplitude(self):
        birth = np.array([0.5, 1.0, 1.5, 2.0, 0.7])
        death = np.array([0.3, 0.8, 1.2, 0.9, 1.1])
        F = birth_death(5, birth, death)
        fam = SemigroupFamily(F)
        t = 0.6
        q = fam.q(np.zeros(2), np.zeros(2), t)
        for n in range(1, 4):  # interior states
            total_rate = birth[n] + death[n]
            assert abs(q[n, n] - np.exp(-0.5 * total_rate * t)) < 1e-13

    def test_classical_consistency(self):
        birth = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 0.8])
        death = np.array([0.4, 1.1, 0.9, 2.0, 0.6, 1.3])
        F = birth_death(6, birth, death)
        quantum_side = diagonal_flow_generator(F)
        classical = classical_rate_matrix(birth, death)
        assert np.abs(quantum_side - classical).max() < 1e-12
        t = 0.7
        diff = mat_exp(t * quantum_side.astype(complex)) - mat_exp(
            t * classical.astype(complex)
        )
        assert np.abs(diff).max() < 1e-8


class TestRandomContractive:
    def test_deterministic(self):
        a = random_contractive(3, 2, seed=123)
        b = random_contractive(3, 2, seed=123)
        assert np.array_equal(a.full_matrix(), b.full_matrix())
        c = random_contractive(3, 2, seed=124)
        assert not np.array_equal(a.full_matrix(), c.full_matrix())

    def test_unitary_mode_equality_case(self):
        report = classify(random_contractive(2, 2, seed=5, mode="unitary_C"))
        assert report.equality_case
        assert report.c_isometric and report.c_coisometric

    def test_strict_mode_strictly_negative_defect(self):
        for seed in range(5):
            F = random_contractive(3, 2, seed=seed, mode="strict_C")
            assert contractivity_defect(F) < -1e-6
            report = classify(F)
            assert abs(report.c_norm - 0.9) < 1e-10
            assert not report.equality_case

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            random_contractive(2, 1, seed=0, mode="bogus")
        with pytest.raises(ValueError, match="dim_h"):
            random_contractive(0, 1, seed=0)


def test_every_model_classifies_contractive():
    instances = [
        inverse_oscillator(OscillatorSpec(dim=4, lam=np.ones(5), mu=np.zeros(4))),
        birth_death(4, np.ones(4), np.ones(4)),
        random_contractive(2, 1, seed=0),
        random_contractive(3, 2, seed=1, mode="strict_C"),
        from_hlc(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1))),
    ]
    for F in instances:
        assert classify(F).is_contractive
