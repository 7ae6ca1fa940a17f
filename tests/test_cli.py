import json

import numpy as np
import pytest

from qscocycle import jsonio
from qscocycle.cli import main


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

    def test_missing_field_names_it(self, tmp_path, capsys):
        spec = write_json(tmp_path / "nolam.json", {
            "format": 1, "model": "oscillator", "dim": 4, "mu": 0.0,
        })
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 2
        assert "lam" in capsys.readouterr().err

    def test_invalid_model_params_are_validation_error(self, tmp_path):
        spec = write_json(tmp_path / "tiny.json", {
            "format": 1, "model": "oscillator", "dim": 1, "lam": 1.0, "mu": 0.0,
        })
        assert main(["build", spec, "--out", str(tmp_path / "x.json")]) == 3


class TestCheck:
    def test_contractive_passes(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        assert main(["check", gen]) == 0

    def test_violation_exit_code(self, tmp_path):
        payload = jsonio.generator_to_payload(
            __import__("qscocycle").assemble(
                np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                2.0 * np.eye(1), dim_h=1, dim_k=1,
            )
        )
        gen = write_json(tmp_path / "bad.gen.json", payload)
        assert main(["check", gen]) == 4

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_csv_report(self, tmp_path):
        gen = scalar_hp_file(tmp_path)
        out = tmp_path / "check.csv"
        assert main(["check", gen, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,value,pass"
        assert any(line.startswith("contractivity_defect") for line in lines)


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
            __import__("qscocycle").assemble(
                np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                1.5 * np.eye(2), dim_h=2, dim_k=1,
            )
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
        assert main(["tk", gen, "--n-list", "10,100", "--out", str(out)]) == 0
        assert out.read_text().startswith("pair_index,n,horizon,sup_error,monotone")

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

    def test_oracle_norm(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        step = zero_step_file(tmp_path)
        assert main(["oracle-norm", gen, step, "--t", "1.0", "--steps", "12"]) == 0
        assert "discrete state norm" in capsys.readouterr().out

    def test_oracle_norm_budget_exceeded(self, tmp_path, capsys):
        gen = scalar_hp_file(tmp_path)
        step = zero_step_file(tmp_path)
        assert main(["oracle-norm", gen, step, "--t", "1.0", "--steps", "12",
                     "--budget", "100"]) == 3
        assert "budget" in capsys.readouterr().err


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
