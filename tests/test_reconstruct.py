import re
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
from qscocycle.reconstruct import Probe, _check_group, _inv_roots, deterministic_core_probes, screen_probes
from qscocycle.semigroups import q_stack

from oracles import (
    assert_bitwise,
    contractive_cases,
    random_complex,
    reference_criterion,
    scalar_hp,
    trotter_kato_loops,
    zero_generator,
)


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

    def test_flat_tuple_is_one_channel(self):
        # A 1-d c-tuple holds n scalars, the slice vectors of dim_k = 1.
        assert_bitwise(varpi_matrix([0.0, 1.0, 0.5j], 0.7), varpi_matrix([[0.0], [1.0], [0.5j]], 0.7))


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

    @pytest.mark.parametrize("t", [np.nan, -0.5, np.inf])
    def test_bad_probe_time_rejected(self, t):
        # varpi_matrix's check, not one from the inverse roots or q_stack.
        probe = make_probe([[0.3]], t, np.ones((1, 1)), np.ones((1, 1)), [[1.0]], dim_h=1)
        message = f"^t must be finite and nonnegative, got t={re.escape(str(t))}$"
        with pytest.raises(ValueError, match=message):
            schur_criterion_check(SemigroupFamily(scalar_hp()), probe)


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

    def test_verdicts_are_python_bools(self):
        # Core and group probes alike, skipped ones included.
        reports = screen_family(planted_violation(), n_max=3, samples=40, seed=5)
        assert {(type(r.passed), type(r.skipped)) for r in reports} == {(bool, bool)}

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            screen_family(scalar_hp(), n_max=0, samples=1, seed=0)

    @pytest.mark.parametrize("screen", [screen_family, screen_probes])
    @pytest.mark.parametrize("name, value", [
        ("n_max", 2.5), ("n_max", True), ("n_max", np.nan), ("samples", True),
        ("samples", 2.0), ("seed", True), ("seed", 1.5),
    ])
    def test_non_integer_count_rejected(self, screen, name, value):
        # Refused by name: never rounded, read as 1, or left to numpy's TypeError.
        counts = {"n_max": 3, "samples": 5, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name}="):
            screen(scalar_hp(), **counts)

    def test_singular_weights_raise_the_reason(self):
        # The random weights are drawn positive definite; a singular one in a
        # stack is refused with psd_inv_sqrt's reason, not a zero root.
        weights = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue 0 <= tol"):
            _inv_roots(weights)

    def test_numpy_integer_counts_accepted(self):
        F = random_contractive(2, 1, seed=19)
        got = screen_family(F, n_max=np.int64(2), samples=np.int32(10), seed=np.uint8(29))
        assert [astuple(r) for r in got] == [astuple(r) for r in screen_family(F, 2, 10, 29)]


def per_sample_probes(F, n_max, samples, seed):
    """The random probes drawn and rescaled one sample at a time by make_probe."""
    rng = np.random.default_rng(seed)
    dh, dk = F.dim_h, F.dim_k
    first = len(deterministic_core_probes(F))
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


def screened_models():
    return {
        "unitary_C": random_contractive(2, 2, seed=31, mode="unitary_C"),
        "strict_C": random_contractive(3, 1, seed=41, mode="strict_C"),
        "planted": planted_violation(),
    }


class TestGroups:
    @pytest.mark.parametrize("name", ["unitary_C", "strict_C", "planted"])
    def test_random_probes_are_the_per_sample_draws(self, name):
        F = screened_models()[name]
        core = len(deterministic_core_probes(F))
        got = screen_probes(F, n_max=3, samples=50, seed=43)[core:]
        want = per_sample_probes(F, n_max=3, samples=50, seed=43)
        assert [p.probe_id for p in got] == [p.probe_id for p in want]
        for p, q in zip(got, want):
            assert p.t == q.t
            for field in ("c_tuple", "a", "b", "y"):
                assert_bitwise(getattr(p, field), getattr(q, field))

    @pytest.mark.parametrize("name", ["unitary_C", "strict_C", "planted"])
    def test_screen_matches_per_probe_checks(self, name):
        F = screened_models()[name]
        family = SemigroupFamily(F)
        want = {
            p.probe_id: schur_criterion_check(family, p)
            for p in screen_probes(F, n_max=3, samples=80, seed=47)
        }
        got = screen_family(F, n_max=3, samples=80, seed=47)
        assert sorted(r.probe_id for r in got) == sorted(want)
        for r in got:
            ref = want[r.probe_id]
            assert (r.n, r.t, r.passed, r.skipped) == (ref.n, ref.t, ref.passed, ref.skipped)
            if not r.skipped:
                assert abs(r.defect - ref.defect) <= 1e-12

    def test_group_skips_only_the_degenerate_probe(self):
        F = scalar_hp()
        rng = np.random.default_rng(53)
        probes = []
        for probe_id in range(4):
            x = random_complex(rng, (2, 2))
            c_tuple = np.array([[0.0], [0.6 - 0.3j]])
            probes.append(make_probe(
                c_tuple, 0.2 + 0.4 * probe_id, x @ x.conj().T + 0.3 * np.eye(2), np.eye(2),
                random_complex(rng, (2, 2)), dim_h=1, probe_id=probe_id,
            ))
        degenerate = Probe(
            c_tuple=np.zeros((2, 1), dtype=complex),
            t=0.5,
            a=np.diag([1.0, 1e-14]).astype(complex),
            b=np.eye(2, dtype=complex),
            y=np.zeros((2, 2), dtype=complex),
            probe_id=99,
        )
        probes.insert(2, degenerate)

        def stacked(c, t):
            return q_stack(F, c[:, :, None], c[:, None], t[:, None, None])

        reports = _check_group(probes, stacked, tol=1e-9)
        assert [r.skipped for r in reports] == [False, False, True, False, False]
        assert np.isnan(reports[2].defect) and not reports[2].passed
        # A group with no live probe exponentiates nothing.
        none_live = _check_group([degenerate] * 2, stacked, tol=1e-9)
        assert [r.skipped for r in none_live] == [True, True]
        family = SemigroupFamily(F)
        for probe, report in zip(probes, reports):
            ref = schur_criterion_check(family, probe)
            assert (report.passed, report.skipped) == (ref.passed, ref.skipped)
            if not ref.skipped:
                assert abs(report.defect - ref.defect) <= 1e-12


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
        assert report.errors.shape == (3, 3) and np.all(report.errors == 0.0)
        assert report.monotone

    def test_scalar_hp_first_order_trend(self):
        report = trotter_kato_pipeline(scalar_hp(), [10, 100, 1000], T=1.0)
        assert report.monotone
        for pair_index in range(3):
            errs = report.errors[:, pair_index]
            if errs[0] > 1e-12:
                assert errs[1] <= 0.2 * errs[0]
                assert errs[2] <= errs[0] / 5.0

    def test_non_contractive_rejected(self):
        with pytest.raises(ValueError, match="contractive"):
            trotter_kato_pipeline(planted_violation(), [10, 100])

    def test_non_increasing_n_list_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            trotter_kato_pipeline(scalar_hp(), [10, 10])
        with pytest.raises(ValueError, match="increasing"):
            trotter_kato_pipeline(scalar_hp(), [])

    @pytest.mark.parametrize("n_list", [[10.9, 100], [True, 2]])
    def test_non_integer_n_list_rejected(self, n_list):
        # int() would run n = 10 and n = 1 here without a word.
        with pytest.raises(ValueError, match=r"^n_list\[0\]="):
            trotter_kato_pipeline(scalar_hp(), n_list)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^grid_points must be >= 1, got 0$"):
            trotter_kato_pipeline(scalar_hp(), [10, 100], grid_points=0)

    @pytest.mark.parametrize("grid_points", [2.0, np.nan, True])
    def test_non_integer_grid_points_rejected(self, grid_points):
        # Refused by name: linspace alone raises a bare TypeError for a float
        # and runs a one-point grid for True.
        with pytest.raises(ValueError, match="^grid_points="):
            trotter_kato_pipeline(scalar_hp(), [10, 100], grid_points=grid_points)

    @pytest.mark.parametrize("mode", ["unitary_C", "strict_C"])
    def test_errors_match_family_loops_bitwise(self, mode):
        for F in contractive_cases(mode):
            report = trotter_kato_pipeline(F, [10, 100], T=1.5, grid_points=np.int64(5))
            assert_bitwise(report.errors, trotter_kato_loops(F, [10, 100], 1.5, 5))

    def test_numpy_integer_n_list_accepted(self):
        report = trotter_kato_pipeline(scalar_hp(), [np.int64(10), 100], T=1.0)
        assert report.n_list == (10, 100)
        assert np.array_equal(report.errors, trotter_kato_pipeline(scalar_hp(), [10, 100]).errors)

    def test_coarser_later_regularization_is_not_monotone(self, monkeypatch):
        from qscocycle import reconstruct

        honest = trotter_kato_pipeline(scalar_hp(), [10, 100], T=1.0)
        real = reconstruct.yosida_approx
        # n = 10 gets the n = 100 regularization and n = 100 the coarser n = 10 one.
        monkeypatch.setattr(reconstruct, "yosida_approx", lambda F, n: real(F, 110 - n))
        report = trotter_kato_pipeline(scalar_hp(), [10, 100], T=1.0)
        assert honest.monotone and not report.monotone
        assert report.n_list == (10, 100) and report.errors.shape == (2, 3)
        assert np.array_equal(report.errors, honest.errors[::-1])

    def test_errors_decrease_for_oscillator(self):
        from qscocycle import OscillatorSpec, inverse_oscillator

        F = inverse_oscillator(OscillatorSpec(dim=4, lam=np.ones(5), mu=np.arange(4.0)))
        report = trotter_kato_pipeline(F, [10, 100], T=1.0)
        assert report.monotone
        errs = report.errors[:, 0]
        assert errs[1] < errs[0]
