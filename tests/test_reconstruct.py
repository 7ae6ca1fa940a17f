import re
from dataclasses import astuple

import numpy as np
import pytest

from qscocycle import (
    BlockGenerator,
    SemigroupFamily,
    make_probe,
    op_norm,
    random_contractive,
    schur_criterion_check,
    screen_family,
    trotter_kato_pipeline,
    varpi_matrix,
)
from qscocycle.reconstruct import Probe, _check_stacks, _inv_roots, _random_probes, deterministic_core_probes
from qscocycle.semigroups import q_stack

from oracles import (
    assert_bitwise,
    contractive_cases,
    core_probes_per_probe,
    per_sample_probes,
    random_complex,
    reference_criterion,
    scalar_hp,
    screen_reference,
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

    @pytest.mark.parametrize("call", [
        lambda c: varpi_matrix(c, 0.7),
        lambda c: make_probe(c, 0.7, np.eye(1), np.eye(1), np.ones((2, 1)), dim_h=2),
    ], ids=["varpi_matrix", "make_probe"])
    def test_flat_tuple_is_refused(self, call):
        # A c-tuple is an (n, dim_k) array: a flat one is neither n scalars
        # nor one slice vector.
        with pytest.raises(ValueError, match=r"^c_tuple of shape \(3,\) must be an \(n, dim_k\) array"):
            call([0.0, 1.0, 0.5j])


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
        direct = np.linalg.norm(q_stack(F, c, c, 0.8) @ y[:, 0]) - 1.0
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
        # make_probe refuses the time when the probe is made.
        message = f"^t must be finite and nonnegative, got t={re.escape(str(t))}$"
        with pytest.raises(ValueError, match=message):
            make_probe([[0.3]], t, np.ones((1, 1)), np.ones((1, 1)), [[1.0]], dim_h=1)

    @pytest.mark.parametrize("name, a, b, y", [
        ("a", np.eye(3), np.eye(2), np.ones((4, 2))),
        ("b", np.eye(2), np.ones((2, 3)), np.ones((4, 2))),
        ("y", np.eye(2), np.eye(2), np.ones((3, 2))),
        ("a", np.eye(2).ravel(), np.eye(2), np.ones((4, 2))),
        ("y", np.eye(2), np.eye(2), np.ones(8)),
        ("y", np.eye(2), np.eye(2), np.ones((2, 4))),
    ])
    def test_probe_that_does_not_fit_is_named(self, name, a, b, y):
        # An n = 2 probe at dim_h = 2 needs 2 x 2 weights and a 4 x 2 Y,
        # not arrays that have as many entries.
        with pytest.raises(ValueError, match=f"^{name} of shape .* does not fit the probe"):
            make_probe([[0.0], [0.3]], 0.5, a, b, y, dim_h=2)

    def test_probe_that_does_not_fit_the_family_is_named(self):
        probe = make_probe([[0.3]], 0.5, [[1.0]], [[1.0]], [[1.0]], dim_h=1)
        family = SemigroupFamily(random_contractive(2, 1, seed=5))
        with pytest.raises(ValueError, match=r"^y of shape \(1, 1\) does not fit the probe: expected \(2, 1\)$"):
            schur_criterion_check(family, probe)

    def test_direct_probe_c_tuple_that_does_not_fit_the_family_is_named(self):
        # A Probe built without make_probe: a dim_k = 2 family needs (n, 2) slice vectors.
        probe = Probe(c_tuple=np.zeros((1, 1), complex), t=0.5, a=np.eye(1, dtype=complex),
                      b=np.eye(1, dtype=complex), y=np.ones((2, 1), complex))
        family = SemigroupFamily(random_contractive(2, 2, seed=0))
        with pytest.raises(ValueError, match=r"^c_tuple of shape \(1, 1\) must be an \(n, 2\) array, n > 0$"):
            schur_criterion_check(family, probe)

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_direct_probe_weights_that_do_not_fit_are_named(self, name):
        # A Probe built without make_probe: n = 1 needs 1 x 1 weights.
        fields = dict(c_tuple=np.zeros((1, 1), complex), t=0.5, a=np.eye(1, dtype=complex),
                      b=np.eye(1, dtype=complex), y=np.ones((2, 1), complex))
        probe = Probe(**{**fields, name: np.eye(2, dtype=complex)})
        family = SemigroupFamily(random_contractive(2, 1, seed=0))
        with pytest.raises(ValueError, match=rf"^{name} of shape \(2, 2\) does not fit the probe: expected \(1, 1\)$"):
            schur_criterion_check(family, probe)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (0, 1), (1,)], ids=["three-axes", "empty", "flat"])
    def test_c_tuple_that_is_not_a_stack_of_slices_is_named(self, shape):
        message = rf"^c_tuple of shape {re.escape(str(shape))} must be an \(n, dim_k\) array, n > 0$"
        with pytest.raises(ValueError, match=message):
            make_probe(np.zeros(shape), 0.1, np.eye(1), np.eye(1), np.ones((2, 1)), dim_h=2)

    def test_single_probe_reads_its_blocks_in_one_factors_call(self, monkeypatch):
        # The n x n blocks come from one lookup per pair (c_i, c_j), row by
        # row, all in one factors call, and match the stateless map bit for bit.
        F = random_contractive(2, 2, seed=7)
        rng = np.random.default_rng(7)
        c = random_complex(rng, (3, 2))
        probe = make_probe(c, 0.4, np.eye(3), np.eye(3), random_complex(rng, (6, 3)), dim_h=2)
        calls, factors = [], SemigroupFamily.factors

        def spy(self, *args):
            calls.append((args, factors(self, *args)))
            return calls[-1][1]

        monkeypatch.setattr(SemigroupFamily, "factors", spy)
        family = SemigroupFamily(F)
        report = schur_criterion_check(family, probe)
        [((rows, cols, times), blocks)] = calls
        assert_bitwise(rows, np.repeat(c, 3, axis=0))
        assert_bitwise(cols, np.tile(c, (3, 1)))
        assert times == [0.4] * 9
        assert_bitwise(np.array(blocks), q_stack(F, rows, cols, 0.4))
        assert len(family._cache) == 9 + 9  # each pair's G_{c,d} and Q
        assert not report.skipped

    def test_bad_time_of_a_direct_probe_rejected(self):
        # A Probe built without make_probe still meets varpi_matrix's check,
        # not one from the inverse roots or q_stack.
        probe = Probe(c_tuple=np.full((1, 1), 0.3 + 0j), t=-0.5, a=np.ones((1, 1), dtype=complex),
                      b=np.ones((1, 1), dtype=complex), y=np.ones((1, 1), dtype=complex))
        with pytest.raises(ValueError, match=r"^t must be finite and nonnegative, got t=-0\.5$"):
            schur_criterion_check(SemigroupFamily(scalar_hp()), probe)


class TestScreening:
    @pytest.mark.parametrize("tol", [1e-9, np.float64(1e-9), np.array(1e-9)])
    def test_report_flags_are_python_bools(self, tol):
        family = SemigroupFamily(scalar_hp())
        probe = make_probe([[0.0]], 0.5, [[1.0]], [[1.0]], [[1.0]], dim_h=1)
        reports = [*screen_family(scalar_hp(), 2, 5, 1, tol=tol), schur_criterion_check(family, probe, tol)]
        assert {(type(r.passed), type(r.skipped)) for r in reports} == {(bool, bool)}

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
        probes = core_probes_per_probe(F) + per_sample_probes(F, n_max=3, samples=60, seed=37)
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

    @pytest.mark.parametrize("screen", [screen_family])
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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        # A NaN or negative tol would flag every probe, and inf would pass every one.
        F = random_contractive(2, 1, 5, "strict_C")
        message = f"^tol must be finite and nonnegative, got tol={re.escape(str(tol))}$"
        with pytest.raises(ValueError, match=message):
            screen_family(F, 2, 5, 1, tol=tol)
        with pytest.raises(ValueError, match=message):
            schur_criterion_check(SemigroupFamily(F), deterministic_core_probes(F)[0], tol=tol)

    def test_numpy_integer_counts_accepted(self):
        F = random_contractive(2, 1, seed=19)
        got = screen_family(F, n_max=np.int64(2), samples=np.int32(10), seed=np.uint8(29))
        assert [astuple(r) for r in got] == [astuple(r) for r in screen_family(F, 2, 10, 29)]


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
        # Row k of the stacks of one n holds the fields of the k-th probe of
        # that n drawn and rescaled one sample at a time.
        core = len(deterministic_core_probes(F))
        groups = _random_probes(F, n_max=3, samples=50, seed=43, first_id=core)
        want = per_sample_probes(F, n_max=3, samples=50, seed=43)
        assert sorted(i for ids, *_ in groups.values() for i in ids) == [p.probe_id for p in want]
        for n, (ids, c, ts, ab, y) in groups.items():
            probes = [p for p in want if p.c_tuple.shape[0] == n]
            assert list(ids) == [p.probe_id for p in probes]
            assert list(ts) == [p.t for p in probes]
            for k, p in enumerate(probes):
                for got, field in ((c[k], p.c_tuple), (ab[k, 0], p.a), (ab[k, 1], p.b), (y[k], p.y)):
                    assert_bitwise(got, field)

    @pytest.mark.parametrize("name", ["unitary_C", "strict_C", "planted"])
    def test_screen_matches_per_probe_checks(self, name):
        F = screened_models()[name]
        family = SemigroupFamily(F)
        want = {
            p.probe_id: schur_criterion_check(family, p)
            for p in core_probes_per_probe(F) + per_sample_probes(F, n_max=3, samples=80, seed=47)
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

        def check(probes):
            ids, c, ts, ab, y = zip(*((p.probe_id, p.c_tuple, p.t, (p.a, p.b), p.y) for p in probes))
            return _check_stacks(ids, np.array(c), ts, np.array(ab), np.array(y), stacked, tol=1e-9)

        reports = check(probes)
        assert [r.skipped for r in reports] == [False, False, True, False, False]
        assert np.isnan(reports[2].defect) and not reports[2].passed
        # A group with no live probe exponentiates nothing.
        none_live = check([degenerate] * 2)
        assert [r.skipped for r in none_live] == [True, True]
        family = SemigroupFamily(F)
        for probe, report in zip(probes, reports):
            ref = schur_criterion_check(family, probe)
            assert (report.passed, report.skipped) == (ref.passed, ref.skipped)
            if not ref.skipped:
                assert abs(report.defect - ref.defect) <= 1e-12


def reference_cases():
    cases = {
        f"{mode}-h{dh}k{dk}": random_contractive(dh, dk, seed=59, mode=mode)
        for mode in ("unitary_C", "strict_C") for dh in (2, 3) for dk in (1, 2)
    }
    return {**cases, "planted": planted_violation(), "h2k0": zero_generator(2, 0, K=-np.eye(2))}


class TestPerProbeReference:
    @pytest.mark.parametrize("name", sorted(reference_cases()))
    def test_core_probes_are_one_make_probe_each(self, name):
        F = reference_cases()[name]
        got, want = deterministic_core_probes(F), core_probes_per_probe(F)
        assert [(p.probe_id, p.t) for p in got] == [(p.probe_id, p.t) for p in want]
        for p, q in zip(got, want):
            assert type(p.t) is float
            for field in ("c_tuple", "a", "b", "y"):
                assert_bitwise(getattr(p, field), getattr(q, field))

    @pytest.mark.parametrize("name", sorted(reference_cases()))
    def test_screen_reports_match_the_per_probe_screen(self, name):
        # repr spells out every field: a float to its last bit, and the type
        # of each value, so a numpy scalar in a report fails too.
        F = reference_cases()[name]
        got = screen_family(F, n_max=3, samples=60, seed=61)
        want = screen_reference(F, n_max=3, samples=60, seed=61)
        assert list(map(repr, got)) == list(map(repr, want))


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

    def test_non_contractive_regularization_rejected(self, monkeypatch):
        # K_n = J K J in place of J* K J: F_n leaves the equality case, and the
        # pipeline names the first n at fault with its defect.
        from qscocycle import reconstruct

        def transposed(F, n):
            j = np.linalg.inv(np.eye(F.dim_h) - F.K / n)
            return BlockGenerator(F.dim_h, F.dim_k, j @ F.K @ j, F.L @ j, j.conj().T @ F.M, F.C)

        monkeypatch.setattr(reconstruct, "yosida_approx", transposed)
        F = random_contractive(3, 2, seed=1, mode="unitary_C")
        message = r"^Yosida approximation n=2 is not contractive; defect \d"
        with pytest.raises(ValueError, match=message):
            trotter_kato_pipeline(F, [2, 10])

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
