import csv
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qscocycle
from qscocycle import (
    OscillatorSpec, StepFunction, cli, dual_generator, inverse_oscillator, jsonio, random_contractive,
    trotter_kato_pipeline,
)
from qscocycle.cli import main

from oracles import assert_bitwise, contractive_cases, dual_defect_loops, zero_generator


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def hlc_spec(H, L, C):
    enc = jsonio.encode_matrix
    return {"format": 1, "model": "hlc", "H": enc(np.asarray(H, dtype=complex)),
            "L": enc(np.asarray(L, dtype=complex)), "C": enc(np.asarray(C, dtype=complex))}


def scalar_hp_file(tmp_path):
    spec = write_json(tmp_path / "hp.json", hlc_spec([[0.0]], [[1.0]], [[1.0]]))
    out = tmp_path / "hp.gen.json"
    assert main(["build", spec, "--out", str(out)]) == 0
    return str(out)


def zero_step_file(tmp_path, dim_k=1, name="zero.json"):
    payload = {
        "format": 1, "kind": "step_function", "dim_k": dim_k,
        "breakpoints": [0.0], "values": [[[0.0, 0.0]] * dim_k], "support_end": 0.0,
    }
    return write_json(tmp_path / name, payload)


def step_payload(**fields):
    """A valid dim_k = 1 step payload with ``fields`` replaced."""
    payload = {"format": 1, "kind": "step_function", "dim_k": 1,
               "breakpoints": [0.0], "values": [[[0.5, 0.0]]], "support_end": 1.0}
    return {**payload, **fields}


class TestBuild:
    def test_oscillator_spec(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {
            "format": 1, "model": "oscillator", "dim": 4, "lam": 1.0, "mu": 0.0,
        })
        out = tmp_path / "osc.gen.json"
        assert main(["build", spec, "--out", str(out)]) == 0
        F = jsonio.load_generator(out)
        assert F.dim_h == 4 and F.dim_k == 1
        assert "contractive" in capsys.readouterr().out

    def test_zero_model(self, tmp_path, capsys):
        spec = write_json(tmp_path / "zero.json", {
            "format": 1, "model": "zero", "dim_h": 2, "dim_k": 1,
        })
        out = tmp_path / "zero.gen.json"
        assert main(["build", spec, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "contractive" in text and "isometric" in text

    def test_birth_death_model(self, tmp_path):
        spec = write_json(tmp_path / "bd.json", {
            "format": 1, "model": "birth_death", "dim": 4,
            "birth": [1.0, 1.0, 1.0, 1.0], "death": 1.0,
        })
        out = tmp_path / "bd.gen.json"
        assert main(["build", spec, "--out", str(out)]) == 0
        assert jsonio.load_generator(out).dim_k == 2

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", str(bad), "--out", str(tmp_path / "x.json")]) == 2

    def test_top_level_array_is_parse_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "list.json", [{"format": 1, "model": "zero", "dim_h": 1, "dim_k": 1}])
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == "error: top-level JSON value must be an object\n"

    def test_missing_field_names_it(self, tmp_path, capsys):
        spec = write_json(tmp_path / "nolam.json", {
            "format": 1, "model": "oscillator", "dim": 4, "mu": 0.0,
        })
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 2
        assert "lam" in capsys.readouterr().err

    def test_too_deeply_nested_json_is_parse_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["build", str(deep), "--out", str(tmp_path / "x.json")]) == 2
        assert "recursion depth" in capsys.readouterr().err

    def test_string_dimension_is_parse_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {
            "format": 1, "model": "oscillator", "dim": "6", "lam": 1.0, "mu": 0.0,
        })
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 2
        assert "'dim'" in capsys.readouterr().err

    def test_invalid_model_params_are_validation_error(self, tmp_path):
        spec = write_json(tmp_path / "tiny.json", {
            "format": 1, "model": "oscillator", "dim": 1, "lam": 1.0, "mu": 0.0,
        })
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 3

    def test_hlc_c_of_the_wrong_shape_is_validation_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "hlc.json", hlc_spec(np.zeros((2, 2)), np.eye(2), [[1.0]]))
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 3
        assert capsys.readouterr().err == (
            "error: C shape (1, 1) incompatible with dim_h=2, dim_k=1; expected (2, 2)\n"
        )

    @pytest.mark.parametrize("spec, field", [
        ({"model": "zero", "dim_h": -2, "dim_k": 1}, "dim_h"),
        ({"model": "random", "dim_h": 2, "dim_k": 1, "seed": -1}, "seed"),
        ({"format": True, "model": "zero", "dim_h": 1, "dim_k": 1}, "format"),
        ({"model": "oscillator", "dim": 4, "lam": [1.0, 1.0], "mu": 0.0}, "lam"),
        ({"model": "hlc", "H": [[[0.0, 0.0]]], "C": [[[1.0, 0.0]]],
          "L": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}, "L"),
        ({"model": "cat"}, "model"),
        ({"model": "random", "dim_h": 2, "dim_k": 1, "seed": 0, "mode": 5}, "mode"),
    ])
    def test_bad_spec_field_is_parse_error(self, tmp_path, capsys, spec, field):
        path = write_json(tmp_path / "spec.json", {"format": 1, **spec})
        assert main(["build", path, "--out", str(tmp_path / "x.json")]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"format": 1, "model": "zero", "dim_h": 1000000, "dim_k": 1},
        {"format": 1, "model": "oscillator", "dim": 100000, "lam": 1.0, "mu": 0.0},
    ])
    def test_unallocatable_dimension_is_validation_error(self, tmp_path, spec):
        # The child caps its own address space, so the allocation fails the
        # same way whatever the host's overcommit policy; if the cap cannot be
        # set, the child never starts.
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

        path = write_json(tmp_path / "huge.json", spec)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(qscocycle.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "qscocycle", "build", path, "--out", str(tmp_path / "x.json")],
            preexec_fn=cap_address_space, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: Unable to allocate")
        assert "Traceback" not in proc.stderr


class TestCheck:
    def test_contractive_passes(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        assert main(["check", gen]) == 0

    def test_violation_exit_code(self, tmp_path):
        payload = jsonio.generator_to_payload(
            zero_generator(1, 1, C=2.0 * np.eye(1))
        )
        gen = write_json(tmp_path / "bad.gen.json", payload)
        assert main(["check", gen]) == 4

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_module_entry_point_matches_main(self, tmp_path, capsys):
        # ``python -m qscocycle`` exits with main's code (4: not contractive)
        # and prints what main prints.
        gen = write_json(tmp_path / "bad.gen.json", jsonio.generator_to_payload(
            zero_generator(1, 1, C=2.0 * np.eye(1))))
        env = {**os.environ, "PYTHONPATH": str(Path(qscocycle.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "qscocycle", "check", gen],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (main(["check", gen]), capsys.readouterr().out)
        assert proc.returncode == 4 and "NOT contractive" in proc.stdout

    def test_csv_report(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        out = tmp_path / "check.csv"
        assert main(["check", gen, "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "quantity,value,pass",
            "contractivity_defect,0.0,True",
            "c_norm,1.0,True",
            "drift_equality_defect,0.0,True",
            "gauge_equality_defect,0.0,True",
        ]


class TestEvolve:
    def test_identity_cocycle_column(self, tmp_path):
        spec = write_json(tmp_path / "zero.json", {
            "format": 1, "model": "zero", "dim_h": 1, "dim_k": 1,
        })
        gen = tmp_path / "zero.gen.json"
        main(["build", spec, "--out", str(gen)])
        step = zero_step_file(tmp_path)
        out = tmp_path / "evolve.csv"
        assert main(["evolve", str(gen), step, step, "--t", "1.0", "--grid", "4",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            _, re, im = row.split(",")
            assert float(re) == 1.0 and float(im) == 0.0

    def test_scalar_hp_value_and_oracle(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        step = zero_step_file(tmp_path)
        out = tmp_path / "evolve.csv"
        assert main(["evolve", gen, step, step, "--t", "1.0", "--grid", "2",
                     "--oracle", "4096", "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert abs(float(last[1]) - 0.6065306597126334) < 1e-12
        assert float(last[5]) <= 1e-2

    def test_oracle_rows_format_numpy_scalars_to_the_same_text(self, tmp_path, capsys):
        # The rows are formatted from Python floats; each field must read as
        # the numpy scalar it comes from would, the t = 0 oracle row included.
        F = random_contractive(2, 1, seed=4)
        gen = tmp_path / "gen.json"
        jsonio.save_generator(F, gen)
        f = write_json(tmp_path / "f.json", step_payload(
            breakpoints=[0.0, 0.375], values=[[[0.5, -0.25]], [[-0.75, 0.0]]]))
        g = write_json(tmp_path / "g.json", step_payload(values=[[[0.25, 0.5]]], support_end=0.625))
        assert main(["evolve", str(gen), f, g, "--t", "0.8", "--grid", "4", "--oracle", "64"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        f, g = jsonio.load_step(f), jsonio.load_step(g)
        u = np.eye(2, dtype=np.complex128)[0]
        times = np.linspace(0.0, 0.8, 5)
        values = qscocycle.full_matrix_element(F, u, f, u, g, times)
        want = []
        for t, val in zip(times, values):
            if t > 0:
                ora = qscocycle.oracle_matrix_element(F, u, f, u, g, float(t), 64)
            else:
                ora = complex(np.vdot(u, u) * qscocycle.exp_inner(f, g, 0.0, None))
            want.append(",".join([f"{t:.12g}", f"{val.real:.17g}", f"{val.imag:.17g}",
                                  f"{ora.real:.17g}", f"{ora.imag:.17g}", f"{abs(ora - val):.6g}"]))
        assert rows == want
        assert rows[0].startswith("0,") and len(rows) == 5

    def test_string_dim_k_in_step_is_parse_error(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        step = write_json(tmp_path / "step.json", {
            "format": 1, "kind": "step_function", "dim_k": "1",
            "breakpoints": [0.0], "values": [[[0.0, 0.0]]], "support_end": 0.0,
        })
        assert main(["evolve", gen, step, step, "--t", "1.0"]) == 2
        assert "'dim_k'" in capsys.readouterr().err

    def test_overflowing_factors_are_validation_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "rand.json", {
            "format": 1, "model": "random", "dim_h": 2, "dim_k": 1, "seed": 3,
        })
        gen = tmp_path / "rand.gen.json"
        assert main(["build", spec, "--out", str(gen)]) == 0
        step = write_json(tmp_path / "three.json", {
            "format": 1, "kind": "step_function", "dim_k": 1,
            "breakpoints": [0.0], "values": [[[3.0, 0.0]]], "support_end": 100.0,
        })
        out = tmp_path / "evolve.csv"
        assert main(["evolve", str(gen), step, step, "--t", "100", "--grid", "4",
                     "--out", str(out)]) == 3
        assert "exponential-vector factors overflowed" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowing_element_prints_zeros(self, tmp_path, capsys):
        # <f, g> = -100 on [0, 10) makes every element e^{-1000}, which
        # underflows while the exponential-vector norms overflow.
        spec = write_json(tmp_path / "zero.json", {
            "format": 1, "model": "zero", "dim_h": 1, "dim_k": 1,
        })
        gen = tmp_path / "zero.gen.json"
        assert main(["build", spec, "--out", str(gen)]) == 0
        f = write_json(tmp_path / "f.json", step_payload(values=[[[10.0, 0.0]]], support_end=10.0))
        g = write_json(tmp_path / "g.json", step_payload(values=[[[-10.0, 0.0]]], support_end=10.0))
        capsys.readouterr()
        assert main(["evolve", str(gen), f, g, "--t", "10", "--grid", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            _, re, im = row.split(",")
            assert float(re) == 0.0 and float(im) == 0.0

    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_t_is_validation_error(self, tmp_path, capsys, t):
        gen = scalar_hp_file(tmp_path)
        step = zero_step_file(tmp_path)
        assert main(["evolve", gen, step, step, f"--t={t}"]) == 3
        assert "--t must be a finite time >= 0" in capsys.readouterr().err

    def test_nan_step_value_is_validation_error(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        # json.dumps writes the NaN token, which json.load reads back as nan.
        step = write_json(tmp_path / "nan.json", step_payload(values=[[[float("nan"), 0.0]]]))
        assert main(["evolve", gen, step, step, "--t", "1.0"]) == 3
        assert "step function values must be finite" in capsys.readouterr().err

    def test_invalid_step_is_validation_error(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        bad_step = write_json(tmp_path / "bad.json", {
            "format": 1, "kind": "step_function", "dim_k": 1,
            "breakpoints": [0.0, 1.0], "values": [[[0.0, 0.0]], [[1.0, 0.0]]],
            "support_end": 0.5,
        })
        assert main(["evolve", gen, bad_step, bad_step, "--t", "1.0"]) == 3


class TestSchur:
    def test_contractive_passes(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        assert main(["schur", gen, "--samples", "50", "--seed", "7"]) == 0

    def test_planted_violation_flagged(self, tmp_path, capsys):
        payload = jsonio.generator_to_payload(
            zero_generator(2, 1, C=1.5 * np.eye(2))
        )
        gen = write_json(tmp_path / "bad.gen.json", payload)
        assert main(["schur", gen, "--samples", "5", "--seed", "0"]) == 4
        assert "worst defect" in capsys.readouterr().out

    def test_fixed_seed_byte_identical(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["schur", gen, "--samples", "30", "--seed", "5", "--out", str(out1)])
        main(["schur", gen, "--samples", "30", "--seed", "5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestOtherCommands:
    def test_tk(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        out = tmp_path / "tk.csv"
        assert main(["tk", gen, "--n-list", "10,100", "--T", "0.5", "--out", str(out)]) == 0
        report = trotter_kato_pipeline(jsonio.load_generator(gen), [10, 100], T=0.5)
        header, *rows = csv.reader(out.read_text().splitlines())
        assert header == ["pair_index", "n", "horizon", "sup_error", "monotone"]
        # One row per (n, pair), n-major, each error to full precision.
        assert rows == [
            [str(p), str(n), "0.5", f"{report.errors[k, p]:.17g}", str(report.monotone)]
            for k, n in enumerate((10, 100)) for p in range(report.errors.shape[1])
        ]

    def test_coords(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        out = tmp_path / "coords.json"
        assert main(["coords", gen, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "slice_generators"
        assert "round-trip error" in capsys.readouterr().out

    def test_dual(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        out = tmp_path / "dual.gen.json"
        assert main(["dual", gen, "--out", str(out)]) == 0
        dual = jsonio.load_generator(out)
        original = jsonio.load_generator(gen)
        assert np.array_equal(dual.full_matrix(), original.full_matrix().conj().T)

    @pytest.mark.parametrize("mode", ["unitary_C", "strict_C"])
    def test_dual_defect_matches_family_loops_bitwise(self, mode):
        for F in contractive_cases(mode):
            assert_bitwise(cli._dual_defect(F, dual_generator(F)), dual_defect_loops(F))

    def test_dual_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        # C is not Hermitian here, so a dual that keeps C instead of C* breaks
        # Q~^{c,d}_t = (Q^{d,c}_t)* on the coordinate cells.
        F = random_contractive(3, 2, seed=0)
        assert np.abs(F.C - F.C.conj().T).max() > 1e-3
        gen = tmp_path / "gen.json"
        jsonio.save_generator(F, gen)
        monkeypatch.setattr(
            cli, "dual_generator", lambda G: dataclasses.replace(dual_generator(G), C=G.C)
        )
        assert main(["dual", str(gen), "--out", str(tmp_path / "dual.json")]) == 4
        message, value = capsys.readouterr().out.rsplit(": ", 1)
        assert message.endswith("max dual-relation defect over the 9 coordinate cells at t = 0.1, 0.5, 1")
        assert float(value) > 1e-3

    @pytest.mark.parametrize("command", ["check", "dual"])
    @pytest.mark.parametrize("flag", ["--samples=5", "--seed=1"])
    def test_exact_commands_take_no_sampling_flags(self, tmp_path, command, flag):
        out = tmp_path / "out.json"
        code, err = run_cli([command, scalar_hp_file(tmp_path), "--out", str(out), flag])
        assert code == 2 and f"unrecognized arguments: {flag}" in err
        assert not out.exists()

    def test_oracle_norm(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        step = zero_step_file(tmp_path)
        assert main(["oracle-norm", gen, step, "--t", "1.0", "--steps", "12"]) == 0
        assert "discrete state norm" in capsys.readouterr().out

    def test_oracle_norm_reference_covers_the_lattice_horizon(self, tmp_path, capsys):
        # The lattice covers [0, t), so below g's support end the reference is
        # |eps(g 1_[0,t))| = exp(0.3^2 * 0.5 / 2), not |eps(g)| = exp(0.035).
        gen = tmp_path / "gen.json"
        jsonio.save_generator(random_contractive(2, 1, seed=3), gen)
        step = write_json(tmp_path / "g.json", step_payload(
            breakpoints=[0.0, 0.5], values=[[[0.3, 0.0]], [[0.1, 0.2]]]))
        assert main(["oracle-norm", str(gen), step, "--t", "0.5", "--steps", "4096"]) == 0
        lines = capsys.readouterr().out.splitlines()
        norm, reference, defect = (float(line.split()[-1]) for line in lines)
        assert reference == pytest.approx(np.exp(0.0225), rel=1e-11)
        assert defect <= 2e-4 and norm == pytest.approx(reference, abs=2e-4)
        assert main(["oracle-norm", str(gen), step, "--t", "1", "--steps", "4096"]) == 0
        reference = float(capsys.readouterr().out.splitlines()[1].split()[-1])
        assert reference == pytest.approx(np.exp(0.035), rel=1e-11)

    @pytest.mark.parametrize("flags, message", [
        (["evolve", "STEP", "STEP", "--t", "1.0", "--grid=-1"], "--grid must be >= 1"),
        (["schur", "--samples", "0"], "--samples must be >= 1"),
        (["schur", "--samples", "1.5"], "--samples must be >= 1"),
        (["tk", "--grid", "0"], "--grid must be >= 1"),
        (["tk", "--T", "nan"], "T must be a finite horizon > 0"),
        (["tk", "--T=-1"], "T must be a finite horizon > 0"),
        (["oracle-norm", "STEP", "--t", "0", "--steps", "4"], "--t must be a finite horizon > 0"),
        (["tk", "--n-list", "100,10"], "--n-list must be a comma-separated, strictly increasing"),
        (["tk", "--n-list", "10,10"], "--n-list must be a comma-separated, strictly increasing"),
        (["oracle-norm", "STEP", "--t", "1", "--steps", str(2**53 + 1)], f"N={2**53 + 1}"),
        # t / N underflows to 0: the message names t and N, never tau.
        (["oracle-norm", "STEP", "--t", "5e-324", "--steps", "4"], "N=4 slots"),
        (["evolve", "STEP", "STEP", "--t", "1.0", "--grid", "0"], "--grid must be >= 1"),
    ])
    def test_bad_count_or_horizon_is_validation_error(self, tmp_path, capsys, flags, message):
        gen = scalar_hp_file(tmp_path)
        names = {"STEP": zero_step_file(tmp_path), "OUT": str(tmp_path / "out.json")}
        argv = [flags[0], gen] + [names.get(flag, flag) for flag in flags[1:]]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("flags, flag", [
        (["check", "--tol", "nan"], "--tol"),
        (["check", "--tol=-1"], "--tol"),
        (["check", "--tol", "abc"], "--tol"),
        (["schur", "--seed", "1.5"], "--seed"),
        (["schur", "--tol", "nan"], "--tol"),
        (["schur", "--seed=-1"], "--seed"),
        (["dual", "--out", "OUT", "--tol", "nan"], "--tol"),
        (["coords", "--tol=-1"], "--tol"),
        (["tk", "--n-list", "10,abc"], "--n-list"),
        (["tk", "--n-list", ","], "--n-list"),
        (["evolve", "STEP", "STEP", "--t", "1.0", "--oracle=-5"], "--oracle"),
        (["oracle-norm", "STEP", "--t", "inf", "--steps", "4"], "--t"),
        (["oracle-norm", "STEP", "--t", "1", "--steps", "1e16"], "--steps"),
    ])
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, flags, flag):
        gen = scalar_hp_file(tmp_path)
        names = {"STEP": zero_step_file(tmp_path), "OUT": str(tmp_path / "out.json")}
        argv = [flags[0], gen] + [names.get(f, f) for f in flags[1:]]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
        assert not (tmp_path / "out.json").exists()

    def test_oracle_norm_overflow_is_validation_error(self, tmp_path, capsys):
        gen = tmp_path / "gen.json"
        jsonio.save_generator(random_contractive(2, 1, seed=4), gen)
        step = write_json(tmp_path / "g.json", step_payload())
        assert main(["oracle-norm", str(gen), step, "--t", "1e308", "--steps", "4"]) == 3
        err = capsys.readouterr().err
        assert "t=1e+308" in err and "not finite" in err

    def test_oracle_norm_reference_overflow_is_validation_error(self, tmp_path, capsys):
        # |eps(g)| = exp(int |g|^2 / 2) is e^800 for g = 40 on [0, 1), beyond
        # double precision, but e^450 for g = 30, which is finite.
        gen = tmp_path / "gen.json"
        jsonio.save_generator(random_contractive(2, 1, seed=3), gen)
        step = write_json(tmp_path / "g.json", step_payload(values=[[[40.0, 0.0]]]))
        assert main(["oracle-norm", str(gen), step, "--t", "1", "--steps", "4"]) == 3
        captured = capsys.readouterr()
        assert "reference |v| * |eps(g 1_[0,t))| overflowed" in captured.err
        assert captured.out == ""
        step = write_json(tmp_path / "g.json", step_payload(values=[[[30.0, 0.0]]]))
        assert main(["oracle-norm", str(gen), step, "--t", "1", "--steps", "4"]) == 0
        reference = capsys.readouterr().out.splitlines()[1].split()[-1]
        assert float(reference) == pytest.approx(np.exp(450.0), rel=1e-11)


# Inputs that overflow inside numpy: K has entries of modulus 1, so the
# column sums of 1e308 K pass the largest double, and a step value of 1e200
# squares to inf in G_{c,d}, which names the slice.
_OVERFLOWING = {
    "evolve-t": (["evolve", "GEN", "F", "F", "--t", "1e308", "--grid", "1"],
                 "mat_exp input norm inf exceeds the supported limit 1e+04"),
    "evolve-step": (["evolve", "GEN", "H", "F", "--t", "1", "--grid", "2"],
                    "slice generator G_{c,d} is not finite at c=[(1e+200+0j)], d=[(0.5+0j)]"),
    "tk-T": (["tk", "GEN", "--T", "1e308"],
             "mat_exp input norm inf exceeds the supported limit 1e+04"),
    # Norms under the limit whose exponentials are not doubles: the squarings
    # overflow, in a Schur probe's Q and in the factor of evolve's piece [1, 3).
    "schur-K": (["schur", "K400"],
                "mat_exp squarings overflowed: exp at input norm 793.2 is not finite"),
    "evolve-K": (["evolve", "K400", "F", "F", "--t", "3", "--grid", "1"],
                 "mat_exp squarings overflowed: exp at input norm 800 is not finite"),
    # Each factor of [0, 1) and [1, 2) is finite; their product is not.
    "evolve-Q": (["evolve", "K400", "F", "F", "--t", "2", "--grid", "2"],
                 "Q-product overflowed at t=2: <u, Q-product v> is not finite in double precision"),
}


def overflowing_argv(tmp_path, argv):
    files = {
        "GEN": write_json(tmp_path / "ones.gen.json", jsonio.generator_to_payload(
            zero_generator(2, 1, K=-1j * np.ones((2, 2))))),
        "K400": write_json(tmp_path / "k400.gen.json", jsonio.generator_to_payload(
            zero_generator(2, 1, K=400 * np.eye(2)))),
        "F": write_json(tmp_path / "f.json", step_payload()),
        "H": write_json(tmp_path / "h.json", step_payload(values=[[[1e200, 0.0]]])),
    }
    return [files.get(arg, arg) for arg in argv]


class TestOverflowingInputs:
    @pytest.mark.parametrize("case", sorted(_OVERFLOWING))
    def test_one_error_line(self, tmp_path, case):
        argv, message = _OVERFLOWING[case]
        assert run_cli(overflowing_argv(tmp_path, argv)) == (3, f"error: {message}\n")

    def test_warnings_as_errors(self, tmp_path):
        self.check_warnings_as_errors(tmp_path, "evolve-step")

    def test_squarings_overflow_with_warnings_as_errors(self, tmp_path):
        self.check_warnings_as_errors(tmp_path, "schur-K")

    @staticmethod
    def check_warnings_as_errors(tmp_path, case):
        argv, message = _OVERFLOWING[case]
        env = {**os.environ, "PYTHONPATH": str(Path(qscocycle.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qscocycle", *overflowing_argv(tmp_path, argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (3, f"error: {message}\n")


class TestRoundTrips:
    def test_generator_payload_round_trip(self, tmp_path):
        from qscocycle import random_contractive

        F = random_contractive(2, 2, seed=1)
        path = tmp_path / "gen.json"
        jsonio.save_generator(F, path)
        back = jsonio.load_generator(path)
        assert np.array_equal(back.full_matrix(), F.full_matrix())

    def test_step_payload_round_trip(self, tmp_path):
        from qscocycle import StepFunction

        f = StepFunction(np.array([0.0, 0.5]), np.array([[1.0 + 2j], [0.25]]), 2.0)
        path = tmp_path / "step.json"
        jsonio.save_step(f, path)
        back = jsonio.load_step(path)
        assert np.array_equal(back.breakpoints, f.breakpoints)
        assert np.array_equal(back.values, f.values)
        assert back.support_end == f.support_end

    def test_bool_dimension_is_parse_error(self, tmp_path, capsys):
        from qscocycle import random_contractive

        path = tmp_path / "gen.json"
        jsonio.save_generator(random_contractive(2, 1, seed=1), path)
        payload = json.loads(path.read_text())
        payload["dim_k"] = True
        write_json(path, payload)
        assert main(["check", str(path)]) == 2
        assert "'dim_k'" in capsys.readouterr().err

    def test_bool_matrix_entry_is_parse_error(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        payload = json.loads(Path(gen).read_text())
        payload["K"][0][0] = [True, False]
        write_json(tmp_path / "bool.gen.json", payload)
        assert main(["check", str(tmp_path / "bool.gen.json")]) == 2
        assert "'K[0][0]'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("breakpoints", [False]), ("support_end", True)])
    def test_bool_step_field_is_parse_error(self, tmp_path, capsys, field, value):
        gen = scalar_hp_file(tmp_path)
        step = write_json(tmp_path / "step.json", step_payload(**{field: value}))
        assert main(["evolve", gen, step, step, "--t", "1.0"]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_bool_model_parameter_is_parse_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "osc.json", {
            "format": 1, "model": "oscillator", "dim": 4, "lam": True, "mu": 0.0,
        })
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 2
        assert "'lam'" in capsys.readouterr().err

    def test_decode_int(self):
        assert jsonio.decode_int(3, "n") == 3
        assert jsonio.decode_int(3.0, "n") == 3
        for bad in (True, "3", 3.5, float("inf"), None, [3]):
            with pytest.raises(jsonio.SchemaError, match="'n' must be an integer"):
                jsonio.decode_int(bad, "n")

    def test_format_version_checked(self, tmp_path):
        path = write_json(tmp_path / "v2.json", {"format": 2, "kind": "generator"})
        with pytest.raises(jsonio.SchemaError, match="format"):
            jsonio.load_generator(path)

    def test_complex_entries_are_pairs(self, tmp_path):
        from qscocycle import random_contractive

        F = random_contractive(1, 1, seed=2)
        path = tmp_path / "gen.json"
        jsonio.save_generator(F, path)
        payload = json.loads(path.read_text())
        entry = payload["K"][0][0]
        assert isinstance(entry, list) and len(entry) == 2


class TestDecodingPausesTheCollector:
    """Both loaders parse and convert a file with the cyclic collector off,
    and leave it as the caller had it, on success and on error."""

    @pytest.fixture
    def collections(self):
        """The generation of each collection that starts while the test runs.

        The thresholds are pinned to (700, 10, 10), so a load that lets the
        collector run starts collections whatever the interpreter's defaults;
        a full collection first leaves the young generation empty.
        """
        thresholds = gc.get_threshold()
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.set_threshold(700, 10, 10)
        gc.collect()
        gc.callbacks.append(record)
        try:
            yield started
        finally:
            gc.callbacks.remove(record)
            gc.set_threshold(*thresholds)

    @pytest.fixture
    def files(self, tmp_path):
        # The evolve_grid benchmark's oscillator generator, 2404 lists once
        # decoded, and a 2000-piece step function, about 4000: each starts
        # young collections if the collector runs while they are decoded.
        spec = OscillatorSpec(dim=24, lam=np.ones(25), mu=np.linspace(0.0, 1.0, 24))
        jsonio.save_generator(inverse_oscillator(spec), tmp_path / "gen.json")
        rng = np.random.default_rng(0)
        pieces = 2000
        values = rng.standard_normal((pieces, 1)) + 1j * rng.standard_normal((pieces, 1))
        step = StepFunction(np.arange(pieces) / 64.0, values, pieces / 64.0)
        jsonio.save_step(step, tmp_path / "step.json")
        return {jsonio.load_generator: tmp_path / "gen.json", jsonio.load_step: tmp_path / "step.json"}

    def test_loads_start_no_collection(self, files, collections):
        F = jsonio.load_generator(files[jsonio.load_generator])
        f = jsonio.load_step(files[jsonio.load_step])
        assert collections == []
        assert (F.dim_h, f.values.shape) == (24, (2000, 1))
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("load", [jsonio.load_generator, jsonio.load_step], ids=["generator", "step"])
    def test_collector_state_is_restored(self, tmp_path, files, load, enabled):
        bad_format = write_json(tmp_path / "v2.json", {"format": 2})
        truncated = tmp_path / "cut.json"
        truncated.write_text(files[load].read_text()[:100])
        if not enabled:
            gc.disable()
        try:
            load(files[load])
            assert gc.isenabled() is enabled
            with pytest.raises(jsonio.SchemaError):
                load(bad_format)
            assert gc.isenabled() is enabled
            with pytest.raises(json.JSONDecodeError):
                load(truncated)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


# An integer that json loads exactly but that no double can hold.
HUGE = 10**400


def osc_spec(**fields):
    return {"format": 1, "model": "oscillator", "dim": 4, "lam": 1.0, "mu": 0.0, **fields}


class TestMatrixEntries:
    # The bulk type check refers each bad entry to the per-entry walk, which
    # names the first bad entry in row-major order and never the later one.
    @pytest.mark.parametrize("bad", [
        True, "ab", None, {"re": 1, "im": 2}, [1], [1, 2, 3], [[1, 2], [3, 4]], 5,
        [1, "2"], [None, 0.5], [1.5, False],
    ], ids=repr)
    @pytest.mark.parametrize("where", [(0, 1), (1, 0)])
    def test_first_bad_entry_is_named(self, bad, where):
        rows = [[[1, 0], [0.5, -2]], [[0, 0], [3, 4.25]]]
        rows[where[0]][where[1]] = bad
        rows[1][1] = [True, 0]
        i, j = where
        with pytest.raises(jsonio.SchemaError) as exc:
            jsonio.read_field({"K": rows}, "K", "matrix", (2, 2))
        assert str(exc.value) == f"field 'K[{i}][{j}]' must hold complex entries as [re, im]"

    def test_row_that_is_not_a_list(self):
        for rows in ([[[1, 0]], 5], [[[1, 0]], "ab"], [None, [[1, 0]]]):
            with pytest.raises(jsonio.SchemaError, match="^field 'K' must be a nonempty list of rows$"):
                jsonio.read_field({"K": rows}, "K", "matrix", (2, 1))

    def test_number_leaves_are_accepted_as_given(self):
        rows = [[[1, -0.0], [2.5, 3]], [[float("nan"), float("inf")], [float("-inf"), -7]]]
        got = jsonio.read_field({"K": rows}, "K", "matrix", (2, 2))
        want = np.array([[complex(*e) for e in row] for row in rows])
        assert_bitwise(got, want)
        assert got.flags.c_contiguous

    def test_float_subclass_leaf_takes_the_walk(self):
        rows = [[[np.float64(1.5), 2]], [[0, np.float64(-0.25)]]]
        got = jsonio.read_field({"K": rows}, "K", "matrix", (2, 1))
        assert_bitwise(got, np.array([[complex(1.5, 2)], [complex(0, -0.25)]]))

    def test_empty_shapes(self):
        assert jsonio.read_field({"K": []}, "K", "matrix", (0, 0)).shape == (0, 0)
        assert jsonio.read_field({"K": [[], []]}, "K", "matrix", (2, 0)).shape == (2, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_leaf_is_left_to_the_generator(self, tmp_path, capsys, value):
        payload = jsonio.generator_to_payload(random_contractive(2, 1, seed=1))
        payload["K"][1][0] = [0.5, value]
        gen = write_json(tmp_path / "gen.json", payload)
        assert main(["check", gen]) == 3
        assert capsys.readouterr().err == "error: block K contains non-finite entries\n"


class TestHugeIntegers:
    @pytest.mark.parametrize("kind, obj, shape, entry", [
        ("real", HUGE, None, "x"),
        ("real", -HUGE, None, "x"),
        ("reals", [0.0, 1, HUGE], None, "x[2]"),
        ("reals", HUGE, 3, "x"),
        ("complexes", [1.0, [0, -HUGE], HUGE], 3, "x[1]"),
        ("complexes", HUGE, 2, "x"),
        ("matrix", [[[0, 0], [0, 0]], [[1, 0], [0, HUGE]]], (2, 2), "x[1][1]"),
        ("matrix", [[[HUGE, 0]]], None, "x[0][0]"),
    ], ids=["real", "real-negative", "reals", "reals-broadcast", "complexes",
            "complexes-broadcast", "matrix", "matrix-any-shape"])
    def test_read_field_names_the_entry(self, kind, obj, shape, entry):
        with pytest.raises(jsonio.SchemaError) as exc:
            jsonio.read_field({"x": obj}, "x", kind, shape)
        assert str(exc.value) == f"field '{entry}' holds an integer that does not fit in a double"

    def test_largest_double_integer_is_accepted(self):
        assert jsonio.read_field({"x": int(np.finfo(float).max)}, "x", "real") == np.finfo(float).max

    @pytest.mark.parametrize("command, payload, entry", [
        ("check", {"K": [[[HUGE, 0]]]}, "K[0][0]"),
        ("evolve", step_payload(support_end=HUGE), "support_end"),
        ("evolve", step_payload(breakpoints=[0.0, HUGE], values=[[[0, 0]]] * 2), "breakpoints[1]"),
        ("evolve", step_payload(values=[[[0.5, -HUGE]]]), "values[0][0]"),
        ("build", osc_spec(lam=[HUGE, 1, 1, 1, 1]), "lam[0]"),
        ("build", osc_spec(mu=[0, 0, HUGE, 0]), "mu[2]"),
        ("build", {"format": 1, "model": "birth_death", "dim": 3, "birth": HUGE, "death": 1.0}, "birth"),
        ("build", {"format": 1, "model": "hlc", "H": [[[0, HUGE]]], "L": [[[1, 0]]], "C": [[[1, 0]]]},
         "H[0][0]"),
    ])
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, command, payload, entry):
        gen = scalar_hp_file(tmp_path)
        if command == "check":
            payload = {**json.loads(Path(gen).read_text()), **payload}
        path = write_json(tmp_path / "in.json", payload)
        argv = {"check": ["check", path], "evolve": ["evolve", gen, path, path, "--t", "1"],
                "build": ["build", path, "--out", str(tmp_path / "out.json")]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: field '{entry}' holds an integer that does not fit in a double\n"
        )


class TestUndecodableJson:
    # json.load raises a plain ValueError, not a JSONDecodeError, for these.
    @pytest.mark.parametrize("raw, reason", [
        (b'\xff\xfe{"format": 1}', "'utf-8' codec can't decode byte 0xff"),
        (b'{"format": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf8", "5000-digit-integer"])
    @pytest.mark.parametrize("kind", ["generator", "step", "spec"])
    def test_exits_2_saying_the_file_is_not_json(self, tmp_path, capsys, raw, reason, kind):
        gen = scalar_hp_file(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        argv = {"generator": ["check", str(bad)],
                "step": ["evolve", gen, str(bad), str(bad), "--t", "1"],
                "spec": ["build", str(bad), "--out", str(tmp_path / "out.json")]}[kind]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: file is not valid JSON: {reason}")


class TestSharedParser:
    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        assert cli.make_parser() is cli.make_parser()
        gen, step = scalar_hp_file(tmp_path), zero_step_file(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(qscocycle.__file__).parents[1])}

        def subprocess_run(argv):
            proc = subprocess.run([sys.executable, "-m", "qscocycle", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        capsys.readouterr()
        assert main(["evolve", gen, step, step, "--t", "nan"]) == 3
        assert capsys.readouterr().err.startswith("error: --t must be a finite time >= 0")
        usage = ["evolve", gen, step, step, "--grid", "2"]
        with pytest.raises(SystemExit) as exc:
            main(usage)
        assert (exc.value.code, *capsys.readouterr()) == subprocess_run(usage)
        valid = ["evolve", gen, step, step, "--t", "0.5", "--grid", "4"]
        assert (main(valid), *capsys.readouterr()) == subprocess_run(valid)


# Payload pieces for the evolve fuzz test: JSON numbers including NaN,
# infinities, large values and booleans, and junk of every JSON shape.
_numbers = st.one_of(
    st.floats(-4.0, 4.0), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3), st.booleans(),
)
_junk = st.recursive(
    st.one_of(st.none(), _numbers, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def step_payloads(draw):
    """A valid dim_k = 1 step payload with up to two fields corrupted: either
    replaced by junk, or given one changed number (a bool, NaN, an infinity,
    a huge or misplaced value) or a complex entry of the wrong length."""
    inner = draw(st.lists(st.floats(0.01, 3.0), max_size=3, unique=True))
    bps = [0.0, *sorted(inner)]
    payload = {
        "format": 1, "kind": "step_function", "dim_k": 1, "breakpoints": bps,
        "values": [[draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2))] for _ in bps],
        "support_end": draw(st.floats(bps[-1], 4.0)),
    }
    fields = ["breakpoints", "dim_k", "format", "support_end", "values"]
    for field in draw(st.lists(st.sampled_from(fields), max_size=2, unique=True)):
        if draw(st.booleans()):
            payload[field] = draw(_junk)
        elif field == "breakpoints":
            payload[field] = [*bps[:-1], draw(_numbers)]
        elif field == "values":
            row, size = draw(st.integers(0, len(bps) - 1)), draw(st.sampled_from([2, 2, 2, 1, 3]))
            payload[field][row] = [draw(st.lists(_numbers, min_size=size, max_size=size))]
        elif field == "dim_k":
            payload[field] = draw(st.integers(-2, 3))
        else:
            payload[field] = draw(_numbers)
    return payload


class TestEvolveFuzz:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(f=step_payloads(), g=step_payloads())
    @example(f=step_payload(values=[[[float("nan"), 0.0]]]), g=step_payload())
    @example(f=step_payload(values=[[[1e10, 0.0]]]), g=step_payload(values=[[[1e10, 0.0]]]))
    @example(f=step_payload(breakpoints=[False]), g=step_payload(support_end=True))
    @example(f=step_payload(dim_k=10**12), g=step_payload(values=[[[True, False]]]))
    def test_exit_codes_and_no_traceback(self, f, g):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            gen = tmp / "gen.json"
            jsonio.save_generator(random_contractive(2, 1, seed=4), gen)
            paths = [write_json(tmp / name, payload) for name, payload in (("f.json", f), ("g.json", g))]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["evolve", str(gen), *paths, "--t", "3.0", "--grid", "6"])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == "")


# The whole JSON/CLI boundary under fuzzing: generator payloads, model specs
# and argv flags.  Numbers stay small (dims <= 4) or absurd (NaN, infinities,
# 1e308, 2**70), never in between, so no example can allocate much memory.
_edge_numbers = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 4), st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, 2**70]),
)
_small_junk = st.recursive(
    st.one_of(st.none(), _edge_numbers, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def corrupted(draw, value):
    """``value`` with one change: for a list, one element dropped or itself
    corrupted; otherwise replaced by an edge number or junk."""
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        rest = [] if draw(st.booleans()) else [draw(corrupted(value[i]))]
        return value[:i] + rest + value[i + 1:]
    return draw(st.one_of(_edge_numbers, _small_junk))


@st.composite
def corrupted_payload(draw, payload):
    """``payload`` with up to two fields deleted or corrupted."""
    payload = dict(payload)
    for field in draw(st.lists(st.sampled_from(sorted(payload)), max_size=2, unique=True)):
        if draw(st.integers(0, 4)) == 0:
            del payload[field]
        else:
            payload[field] = draw(corrupted(payload[field]))
    return payload


def _model_specs():
    enc = jsonio.encode_matrix
    models = {
        "oscillator": {"dim": 4, "lam": 1.0, "mu": [0.0, 0.5, 1.0, 1.5]},
        "birth_death": {"dim": 3, "birth": [1.0, 0.5, 0.0], "death": 1.0},
        "random": {"dim_h": 2, "dim_k": 2, "seed": 1, "mode": "strict_C"},
        "zero": {"dim_h": 2, "dim_k": 1},
        "hlc": {"H": enc(np.array([[0.0, 1.0], [1.0, 0.0]])), "L": enc(np.eye(2)),
                "C": enc(np.eye(2))},
    }
    return st.sampled_from(sorted(models)).flatmap(
        lambda name: corrupted_payload({"format": 1, "model": name, **models[name]}))


def _generator_payloads():
    return st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(0, 9)).flatmap(
        lambda d: corrupted_payload(jsonio.generator_to_payload(random_contractive(*d))))


def _count(low, cap):
    return st.integers(low, cap).map(str)


_time = st.floats(0.0, 4.0).map(repr)
_tol = st.sampled_from(["0", "1e-12", "1e-8", "1e-3"])
_bad_value = st.one_of(
    st.sampled_from(["", "abc", "nan", "-inf", "1e308", "1.5", ",", "10,abc", "-0"]),
    st.integers(-3, -1).map(str), st.floats(allow_nan=True, allow_infinity=True).map(repr),
)

# Every subcommand with every numeric flag it takes and a valid value for
# each; GEN, STEP, SPEC and OUT are file placeholders.  Only schur draws
# random numbers, so only it takes --samples and --seed; check and dual
# decide exactly and take --tol alone.  Counts stay within --samples <= 20,
# --steps <= 10, --n-max <= 4 and --grid/--oracle <= 64.
_SUBCOMMANDS = {
    "build": (["SPEC", "--out", "OUT"], {"--tol": _tol}),
    "check": (["GEN"], {"--tol": _tol}),
    "evolve": (["GEN", "STEP", "STEP"],
               {"--t": _time, "--grid": _count(1, 64), "--oracle": _count(0, 64)}),
    "schur": (["GEN"], {"--samples": _count(1, 20), "--n-max": _count(1, 4),
                        "--seed": _count(0, 64), "--tol": _tol}),
    "tk": (["GEN"], {"--T": _time, "--grid": _count(1, 64), "--n-list": st.lists(
        st.integers(1, 2000), min_size=1, max_size=3, unique=True).map(
            lambda ns: ",".join(map(str, sorted(ns))))}),
    "coords": (["GEN"], {"--tol": _tol}),
    "dual": (["GEN", "--out", "OUT"], {"--tol": _tol}),
    "oracle-norm": (["GEN", "STEP"],
                    {"--t": _time, "--steps": _count(1, 10)}),
}


@st.composite
def cli_argvs(draw):
    """A subcommand with all its flags, at most one of them given a bad value."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    positional, flags = _SUBCOMMANDS[command]
    bad = draw(st.sampled_from([None] * len(flags) + list(flags)))
    values = {flag: draw(_bad_value if flag == bad else valid) for flag, valid in flags.items()}
    return [command, *positional, *(f"{flag}={value}" for flag, value in values.items())]


def run_cli(argv):
    """Exit code and stderr of ``main``; argparse's usage exit counts too."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code, err):
    # Exit 4 reports a property violation on stdout; only errors use stderr.
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert (code in (0, 4)) == (err == "")


_FUZZ = settings(max_examples=200, deadline=None, database=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


class TestBoundaryFuzz:
    @_FUZZ
    @given(payload=_generator_payloads())
    @example(payload={**jsonio.generator_to_payload(random_contractive(2, 1, 4)), "format": True})
    @example(payload={**jsonio.generator_to_payload(random_contractive(2, 1, 4)), "dim_h": 10**6})
    @example(payload={**jsonio.generator_to_payload(random_contractive(2, 1, 4)),
                      "C": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    def test_generator_payloads(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "gen.json", payload)
            assert_clean_exit(*run_cli(["check", path]))

    @_FUZZ
    @given(spec=_model_specs())
    @example(spec={"format": 1, "model": "zero", "dim_h": -2, "dim_k": 1})
    @example(spec={"format": 1, "model": "random", "dim_h": 2, "dim_k": 1, "seed": -1})
    @example(spec={"format": True, "model": "zero", "dim_h": 1, "dim_k": 1})
    @example(spec={"format": 1, "model": "oscillator", "dim": 4, "lam": 1e308, "mu": 0.0})
    @example(spec={"format": 1, "model": "hlc", "H": [[[0.0, 0.0]]], "L": [[[1e308, 0.0]]],
                   "C": [[[1.0, 0.0]]]})
    def test_model_specs(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "spec.json", spec)
            argv = ["build", path, "--out", str(Path(tmp) / "gen.json")]
            assert_clean_exit(*run_cli(argv))

    @_FUZZ
    @given(argv=cli_argvs())
    @example(argv=["check", "GEN", "--tol=nan"])
    @example(argv=["schur", "GEN", "--samples=5", "--tol=nan"])
    @example(argv=["dual", "GEN", "--out", "OUT", "--tol=nan"])
    @example(argv=["coords", "GEN", "--tol=-1"])
    @example(argv=["check", "GEN", "--tol=-1"])
    @example(argv=["tk", "GEN", "--n-list=10,abc"])
    @example(argv=["tk", "GEN", "--n-list=,"])
    @example(argv=["oracle-norm", "GEN", "STEP", "--t=inf", "--steps=4"])
    @example(argv=["oracle-norm", "GEN", "STEP", "--t=1e308", "--steps=4"])
    @example(argv=["schur", "GEN", "--samples=5", "--seed=-1"])
    @example(argv=["evolve", "GEN", "STEP", "STEP", "--t=1", "--oracle=-5"])
    # STEP30 equals 30 on [0, 1): |eps(g)| = e^450 is finite, though its square
    # e^900 is not.
    @example(argv=["oracle-norm", "GEN", "STEP30", "--t=1", "--steps=4"])
    @example(argv=["check", "GEN", "--tol"])
    @example(argv=["nope"])
    def test_argv_flags(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            spec = write_json(tmp / "spec.json", {"format": 1, "model": "zero", "dim_h": 2, "dim_k": 1})
            gen = tmp / "gen.json"
            jsonio.save_generator(random_contractive(2, 1, seed=4), gen)
            names = {"SPEC": spec, "GEN": str(gen), "STEP": write_json(tmp / "g.json", step_payload()),
                     "STEP30": write_json(tmp / "g30.json", step_payload(values=[[[30.0, 0.0]]])),
                     "OUT": str(tmp / "out.json")}
            assert_clean_exit(*run_cli([names.get(arg, arg) for arg in argv]))
