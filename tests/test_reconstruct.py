from dataclasses import astuple

import numpy as np
import pytest

from qscocycle import (
    SemigroupFamily,
    make_probe,
    op_norm,
    random_contractive,
    schur_criterion_check,
    screen_family,
    trotter_kato_pipeline,
    varpi_matrix,
)
from qscocycle.reconstruct import Probe, deterministic_core_probes, screen_probes

from oracles import random_complex, reference_criterion, scalar_hp, zero_generator


def planted_violation(scale=1.5):
    return zero_generator(2, 1, C=scale * np.eye(2))


class TestVarpiMatrix:
    def test_time_zero_all_ones(self):
        rng = np.random.default_rng(0)
        cs = random_complex(rng, (4, 2))
        assert np.allclose(varpi_matrix(cs, 0.0), np.ones((4, 4)), atol=1e-15)

    def test_unit_diagonal(self):
        rng = np.random.default_rng(1)
        cs = random_complex(rng, (5, 3))
        w = varpi_matrix(cs, 1.7)
        assert np.allclose(np.diag(w), np.ones(5), atol=1e-15)

    def test_two_point_value(self):
        d = np.array([1.0 / np.sqrt(2), 1j / np.sqrt(2)])
        w = varpi_matrix([np.zeros(2), d], 1.0)
        off = np.exp(-0.5)
        assert np.allclose(w, [[1.0, off], [off, 1.0]], atol=1e-14)

    def test_gram_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cs = random_complex(rng, (int(rng.integers(2, 6)), 2))
            t = float(rng.uniform(0, 3))
            w = varpi_matrix(cs, t)
            assert np.linalg.eigvalsh(0.5 * (w + w.conj().T))[0] >= -1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            varpi_matrix(np.zeros((1, 1)), -0.1)


class TestProbes:
    def test_rescaling_enforces_precondition(self):
        rng = np.random.default_rng(3)
        n, dh = 3, 2
        x = random_complex(rng, (n, n))
        a = x @ x.conj().T + 0.3 * np.eye(n)
        b = np.eye(n)
        y = 10.0 * random_complex(rng, (n * dh, n))
        probe = make_probe(random_complex(rng, (n, 1)), 0.5, a, b, y, dim_h=dh)
        from qscocycle.opcore import psd_inv_sqrt

        bound = op_norm(
            np.kron(psd_inv_sqrt(probe.a), np.eye(dh)) @ probe.y @ psd_inv_sqrt(probe.b)
        )
        assert bound <= 1.0 + 1e-12

    def test_time_zero_reduces_to_precondition(self):
        rng = np.random.default_rng(4)
        F = random_contractive(2, 2, seed=5)
        family = SemigroupFamily(F)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            x = random_complex(rng, (n, n))
            a = x @ x.conj().T + 0.5 * np.eye(n)
            y = random_complex(rng, (n * 2, n))
            probe = make_probe(random_complex(rng, (n, 2)), 0.0, a, np.eye(n), y, dim_h=2)
            report = schur_criterion_check(family, probe)
            assert report.defect <= 1e-10

    def test_single_vector_probe_is_semigroup_norm(self):
        F = random_contractive(3, 1, seed=6)
        family = SemigroupFamily(F)
        c = np.array([0.7 - 0.2j])
        y = np.zeros((3, 1), dtype=complex)
        y[1] = 1.0
        probe = make_probe([c], 0.8, np.ones((1, 1)), np.ones((1, 1)), y, dim_h=3)
        report = schur_criterion_check(family, probe)
        direct = np.linalg.norm(family.q(c, c, 0.8) @ y[:, 0]) - 1.0
        assert abs(report.defect - direct) < 1e-12

    def test_degenerate_probe_skipped(self):
        F = scalar_hp()
        family = SemigroupFamily(F)
        probe = Probe(
            c_tuple=np.zeros((2, 1), dtype=complex),
            t=0.5,
            a=np.diag([1.0, 1e-14]).astype(complex),
            b=np.eye(2, dtype=complex),
            y=np.zeros((2, 2), dtype=complex),
            probe_id=99,
        )
        report = schur_criterion_check(family, probe)
        assert report.skipped
        assert not report.passed


class TestScreening:
    def test_contractive_family_clean(self):
        F = random_contractive(3, 2, seed=7)
        reports = screen_family(F, n_max=3, samples=200, seed=11)
        worst = reports[0]
        assert not worst.skipped
        assert worst.defect <= 1e-8
        assert all(r.passed for r in reports if not r.skipped)

    def test_identity_cocycle_never_expands(self):
        F = zero_generator(2, 1)
        reports = screen_family(F, n_max=2, samples=100, seed=13)
        assert all(r.defect <= 1e-10 for r in reports if not r.skipped)

    def test_planted_violation_caught_by_core(self):
        F = planted_violation()
        core_count = len(deterministic_core_probes(F))
        reports = screen_family(F, n_max=1, samples=1, seed=0)
        core_failures = [
            r for r in reports
            if not r.skipped and not r.passed and r.probe_id < core_count
        ]
        assert core_failures
        # Worst core probe at t = 1 with a unit slice vector: e^{t/2} - 1.
        worst = max(core_failures, key=lambda r: r.defect)
        assert abs(worst.defect - (np.exp(0.5) - 1.0)) < 1e-10

    def test_deterministic_given_seed(self):
        F = random_contractive(2, 2, seed=17)
        a = screen_family(F, n_max=3, samples=40, seed=23)
        b = screen_family(F, n_max=3, samples=40, seed=23)
        assert [astuple(r) for r in a] == [astuple(r) for r in b]
        c = screen_family(F, n_max=3, samples=40, seed=24)
        assert [astuple(r) for r in a] != [astuple(r) for r in c]

    def test_reports_sorted_worst_first(self):
        F = random_contractive(2, 1, seed=19)
        reports = screen_family(F, n_max=2, samples=30, seed=29)
        defects = [r.defect for r in reports if not r.skipped]
        assert defects == sorted(defects, reverse=True)

    @pytest.mark.parametrize("name", ["unitary_C", "strict_C", "planted"])
    def test_matches_kron_reference(self, name):
        # The screen keeps the verdicts and defects of the kron-form
        # criterion: explicit ampliations, scipy expm, a chi loop for varpi.
        if name == "planted":
            F = planted_violation()
        else:
            F = random_contractive(2, 2, seed=31, mode=name)
        probes = screen_probes(F, n_max=3, samples=60, seed=37)
        reports = {r.probe_id: r for r in screen_family(F, n_max=3, samples=60, seed=37)}
        assert len(reports) == len(probes)
        for probe in probes:
            report = reports[probe.probe_id]
            ref = reference_criterion(F, probe)
            assert report.skipped == (ref is None)
            if ref is not None:
                assert abs(report.defect - ref) <= 1e-12
                assert report.passed == (ref <= 1e-9)
        if name == "planted":
            assert any(not r.passed and not r.skipped for r in reports.values())

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            screen_family(scalar_hp(), n_max=0, samples=1, seed=0)


class TestTrotterKato:
    def test_drift_free_resolvent_is_identity(self):
        # K = 0 makes the regularization a no-op, so errors vanish exactly;
        # contractivity with zero drift forces L = 0 as well.
        theta = 0.6
        gauge = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        F = zero_generator(2, 1, C=gauge)
        report = trotter_kato_pipeline(F, [2, 8, 32], T=1.0)
        assert all(r.sup_error == 0.0 for r in report.rows)
        assert report.monotone

    def test_scalar_hp_first_order_trend(self):
        report = trotter_kato_pipeline(scalar_hp(), [10, 100, 1000], T=1.0)
        assert report.monotone
        for pair_index in range(3):
            errs = report.errors_for_pair(pair_index)
            if errs[0] > 1e-12:
                assert errs[1] <= 0.2 * errs[0]
                assert errs[2] <= errs[0] / 5.0

    def test_non_contractive_rejected(self):
        with pytest.raises(ValueError, match="contractive"):
            trotter_kato_pipeline(planted_violation(), [10, 100])

    def test_non_increasing_n_list_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            trotter_kato_pipeline(scalar_hp(), [10, 10])

    def test_coarser_later_regularization_is_not_monotone(self, monkeypatch):
        from qscocycle import reconstruct

        honest = trotter_kato_pipeline(scalar_hp(), [10, 100], T=1.0)
        real = reconstruct.yosida_approx
        # n = 10 gets the n = 100 regularization and n = 100 the coarser n = 10 one.
        monkeypatch.setattr(reconstruct, "yosida_approx", lambda F, n: real(F, 110 - n))
        report = trotter_kato_pipeline(scalar_hp(), [10, 100], T=1.0)
        assert honest.monotone and not report.monotone
        assert [(r.n, r.pair_index) for r in report.rows] == [
            (n, p) for n in (10, 100) for p in range(3)
        ]
        for p in range(3):
            assert report.errors_for_pair(p) == honest.errors_for_pair(p)[::-1]

    def test_errors_decrease_for_oscillator(self):
        from qscocycle import OscillatorSpec, inverse_oscillator

        F = inverse_oscillator(OscillatorSpec(dim=4, lam=np.ones(5), mu=np.arange(4.0)))
        report = trotter_kato_pipeline(F, [10, 100], T=1.0)
        assert report.monotone
        errs = report.errors_for_pair(0)
        assert errs[1] < errs[0]
