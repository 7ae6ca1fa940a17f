"""Command-line front end: build, check, evolve, schur, tk, coords, dual,
oracle-norm.

Exit codes: 0 pass, 2 I/O or parse failure, 3 validation failure, 4 property
violation.  All commands are deterministic given their flags and seed; CSV
reports are emitted with stable ordering so fixed seeds give byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import jsonio, models, reconstruct, toyfock
from .cocycle import exp_inner, full_matrix_element
from .generator import BlockGenerator, classify, form_defect, from_hlc, random_state
from .jsonio import SchemaError
from .opcore import op_norm
from .semigroups import SemigroupFamily, coords_from_f, coords_to_f, dual_generator

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4


def build_model(payload: dict) -> BlockGenerator:
    """Construct a generator from a model-spec payload."""
    if "format" in payload:
        jsonio._check_format(payload)
    name = payload.get("model")
    if not isinstance(name, str):
        raise SchemaError("missing field 'model'")

    def need(field):
        if field not in payload:
            raise SchemaError(f"missing field {field!r}")
        return payload[field]

    def need_int(field):
        return jsonio.decode_int(need(field), field)

    if name == "oscillator":
        dim = need_int("dim")
        lam = _sequence(need("lam"), dim + 1, "lam", complex_ok=True)
        mu = _sequence(need("mu"), dim, "mu", complex_ok=False)
        return models.inverse_oscillator(models.OscillatorSpec(dim=dim, lam=lam, mu=mu))
    if name == "birth_death":
        dim = need_int("dim")
        birth = _sequence(need("birth"), dim, "birth", complex_ok=False)
        death = _sequence(need("death"), dim, "death", complex_ok=False)
        return models.birth_death(dim, birth, death)
    if name == "random":
        return models.random_contractive(
            need_int("dim_h"), need_int("dim_k"), need_int("seed"),
            payload.get("mode", "unitary_C"),
        )
    if name == "zero":
        dh, dk = need_int("dim_h"), need_int("dim_k")
        return BlockGenerator(
            dim_h=dh, dim_k=dk,
            K=np.zeros((dh, dh)), L=np.zeros((dh * dk, dh)),
            M=np.zeros((dh, dh * dk)), C=np.eye(dh * dk),
        )
    if name == "hlc":
        H = _matrix_field(need("H"), "H")
        L = _matrix_field(need("L"), "L")
        C = _matrix_field(need("C"), "C")
        return from_hlc(H, L, C)
    raise SchemaError(f"unknown model {name!r}")


def _sequence(obj, length: int, field: str, complex_ok: bool) -> np.ndarray:
    if jsonio.is_number(obj):
        return np.full(length, float(obj))
    if complex_ok and isinstance(obj, list) and obj and isinstance(obj[0], list):
        return np.array([jsonio.decode_complex(e, field) for e in obj])
    if isinstance(obj, list) and all(map(jsonio.is_number, obj)):
        return np.asarray(obj, dtype=np.float64)
    raise SchemaError(f"field {field!r} must be a number or a list")


def _matrix_field(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise SchemaError(f"field {field!r} must be a matrix")
    rows = len(obj)
    cols = len(obj[0])
    return jsonio.decode_matrix(obj, field, (rows, cols))


def _write_csv(path, header, rows):
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _check_count(value: int, flag: str) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")


def cmd_build(args) -> int:
    payload = jsonio.load_json(args.spec)
    F = build_model(payload)
    jsonio.save_generator(F, args.out)
    report = classify(F, tol=args.tol)
    print(f"wrote {args.out}: dim_h={F.dim_h} dim_k={F.dim_k}")
    print(report.summary())
    return EXIT_OK


def cmd_check(args) -> int:
    F = jsonio.load_generator(args.generator)
    _check_count(args.samples, "--samples")
    report = classify(F, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    worst_form = 0.0
    for _ in range(args.samples):
        worst_form = max(worst_form, form_defect(F, random_state(F, rng)))
    rows = [
        ("contractivity_defect", report.contractivity_defect, report.is_contractive),
        ("c_norm", report.c_norm, report.c_contractive),
        ("drift_equality_defect", report.drift_equality_defect, report.drift_equality_defect <= args.tol),
        ("gauge_equality_defect", report.gauge_equality_defect, report.gauge_equality_defect <= args.tol),
        ("max_form_defect_sampled", worst_form, worst_form <= args.tol),
    ]
    if args.out:
        _write_csv(args.out, ("quantity", "value", "pass"), rows)
    print(report.summary())
    print(f"max sampled form defect over {args.samples} states: {worst_form:.3e}")
    return EXIT_OK if report.is_contractive else EXIT_VIOLATION


def cmd_evolve(args) -> int:
    F = jsonio.load_generator(args.generator)
    f = jsonio.load_step(args.f)
    g = jsonio.load_step(args.g)
    if not 0.0 <= args.t < np.inf:
        raise ValueError(f"--t must be a finite time >= 0, got {args.t}")
    _check_count(args.grid, "--grid")
    u = v = np.eye(F.dim_h, dtype=np.complex128)[0]
    times = np.linspace(0.0, args.t, args.grid + 1)
    values = full_matrix_element(F, u, f, v, g, times)
    rows = []
    header = ["t", "re", "im"]
    if args.oracle:
        header += ["oracle_re", "oracle_im", "abs_diff"]
    for t, val in zip(times, values):
        row = [f"{t:.12g}", f"{val.real:.17g}", f"{val.imag:.17g}"]
        if args.oracle:
            if t > 0:
                ora = toyfock.oracle_matrix_element(F, u, f, v, g, float(t), args.oracle)
            else:
                ora = complex(np.vdot(u, v) * exp_inner(f, g, 0.0, None))
            row += [f"{ora.real:.17g}", f"{ora.imag:.17g}", f"{abs(ora - val):.6g}"]
        rows.append(row)
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    return EXIT_OK


def cmd_schur(args) -> int:
    F = jsonio.load_generator(args.generator)
    reports = reconstruct.screen_family(
        F, n_max=args.n_max, samples=args.samples, seed=args.seed, tol=args.tol
    )
    rows = [
        (r.probe_id, r.n, f"{r.t:.12g}", f"{r.defect:.17g}", r.passed, r.skipped)
        for r in reports
    ]
    if args.out:
        _write_csv(args.out, ("probe_id", "n", "t", "defect", "pass", "skipped"), rows)
    violations = [r for r in reports if not r.skipped and not r.passed]
    skipped = sum(1 for r in reports if r.skipped)
    worst = reports[0]
    print(
        f"{len(reports)} probes, {len(violations)} violations, {skipped} skipped; "
        f"worst defect {worst.defect:.3e} (probe {worst.probe_id})"
    )
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_tk(args) -> int:
    F = jsonio.load_generator(args.generator)
    n_list = [int(x) for x in args.n_list.split(",")]
    report = reconstruct.trotter_kato_pipeline(
        F, n_list, T=args.t_horizon, grid_points=args.grid
    )
    rows = [
        (r.pair_index, r.n, f"{report.horizon:.12g}", f"{r.sup_error:.17g}",
         report.monotone)
        for r in report.rows
    ]
    if args.out:
        _write_csv(args.out, ("pair_index", "n", "horizon", "sup_error", "monotone"), rows)
    for r in report.rows:
        print(f"pair {r.pair_index}  n={r.n:<6d} sup error {r.sup_error:.6e}")
    print("monotone convergence" if report.monotone else "NON-MONOTONE convergence")
    return EXIT_OK if report.monotone else EXIT_VIOLATION


def cmd_coords(args) -> int:
    F = jsonio.load_generator(args.generator)
    grid = coords_from_f(F)
    back = coords_to_f(grid)
    err = max(
        op_norm(back.K - F.K), op_norm(back.L - F.L),
        op_norm(back.M - F.M), op_norm(back.C - F.C),
    )
    if args.out:
        payload = {
            "format": jsonio.FORMAT_VERSION,
            "kind": "slice_generators",
            "dim_h": F.dim_h,
            "dim_k": F.dim_k,
            "G": [[jsonio.encode_matrix(grid[a, b]) for b in range(F.dim_k + 1)]
                  for a in range(F.dim_k + 1)],
        }
        jsonio.dump_json(payload, args.out)
    print(f"round-trip error {err:.3e}")
    return EXIT_OK if err <= args.tol else EXIT_VIOLATION


def cmd_dual(args) -> int:
    F = jsonio.load_generator(args.generator)
    _check_count(args.samples, "--samples")
    dual = dual_generator(F)
    jsonio.save_generator(dual, args.out)
    fam = SemigroupFamily(F)
    dual_fam = SemigroupFamily(dual)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        c = rng.standard_normal(F.dim_k) + 1j * rng.standard_normal(F.dim_k)
        d = rng.standard_normal(F.dim_k) + 1j * rng.standard_normal(F.dim_k)
        t = float(rng.uniform(0.0, 2.0))
        worst = max(
            worst,
            op_norm(dual_fam.q(c, d, t) - np.conj(fam.q(d, c, t)).T),
        )
    print(f"wrote {args.out}; max dual-relation defect over {args.samples} probes: {worst:.3e}")
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def cmd_oracle_norm(args) -> int:
    F = jsonio.load_generator(args.generator)
    g = jsonio.load_step(args.g)
    v = np.eye(F.dim_h, dtype=np.complex128)[0]
    norm = toyfock.oracle_state_norm(F, v, g, args.t, args.steps, budget=args.budget)
    reference = float(np.sqrt(abs(exp_inner(g, g, 0.0, None))))
    print(f"discrete state norm  {norm:.12g}")
    print(f"|v| * |eps(g)|       {reference:.12g}")
    print(f"defect               {abs(norm - reference):.6g}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscocycle",
        description="Quantum stochastic cocycle numerics via associated semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="model spec JSON -> generator JSON")
    build.add_argument("spec", type=Path)
    build.add_argument("--out", type=Path, required=True)
    build.add_argument("--tol", type=float, default=1e-10)
    build.set_defaults(func=cmd_build)

    check = sub.add_parser("check", help="contractivity report for a generator")
    check.add_argument("generator", type=Path)
    check.add_argument("--tol", type=float, default=1e-10)
    check.add_argument("--samples", type=int, default=50)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--out", type=Path, default=None)
    check.set_defaults(func=cmd_check)

    evolve = sub.add_parser("evolve", help="matrix elements on a time grid")
    evolve.add_argument("generator", type=Path)
    evolve.add_argument("f", type=Path)
    evolve.add_argument("g", type=Path)
    evolve.add_argument("--t", type=float, required=True)
    evolve.add_argument("--grid", type=int, default=10)
    evolve.add_argument("--oracle", type=int, default=0,
                        help="also evaluate the repeated-interaction oracle with N steps")
    evolve.add_argument("--out", type=Path, default=None)
    evolve.set_defaults(func=cmd_evolve)

    schur = sub.add_parser("schur", help="Schur-criterion probe screen")
    schur.add_argument("generator", type=Path)
    schur.add_argument("--samples", type=int, default=200)
    schur.add_argument("--n-max", type=int, default=3)
    schur.add_argument("--seed", type=int, default=0)
    schur.add_argument("--tol", type=float, default=reconstruct.PASS_TOL)
    schur.add_argument("--out", type=Path, default=None)
    schur.set_defaults(func=cmd_schur)

    tk = sub.add_parser("tk", help="resolvent-regularization convergence report")
    tk.add_argument("generator", type=Path)
    tk.add_argument("--n-list", type=str, default="10,100,1000")
    tk.add_argument("--T", dest="t_horizon", type=float, default=1.0)
    tk.add_argument("--grid", type=int, default=11)
    tk.add_argument("--out", type=Path, default=None)
    tk.set_defaults(func=cmd_tk)

    coords = sub.add_parser("coords", help="slice-generator grid and round trip")
    coords.add_argument("generator", type=Path)
    coords.add_argument("--out", type=Path, default=None)
    coords.add_argument("--tol", type=float, default=1e-12)
    coords.set_defaults(func=cmd_coords)

    dual = sub.add_parser("dual", help="write the dual generator and verify the relation")
    dual.add_argument("generator", type=Path)
    dual.add_argument("--out", type=Path, required=True)
    dual.add_argument("--samples", type=int, default=25)
    dual.add_argument("--seed", type=int, default=0)
    dual.add_argument("--tol", type=float, default=1e-12)
    dual.set_defaults(func=cmd_dual)

    norm = sub.add_parser("oracle-norm", help="discrete state norm vs isometric limit")
    norm.add_argument("generator", type=Path)
    norm.add_argument("g", type=Path)
    norm.add_argument("--t", type=float, required=True)
    norm.add_argument("--steps", type=int, required=True)
    norm.add_argument("--budget", type=int, default=toyfock.DEFAULT_STATE_BUDGET)
    norm.set_defaults(func=cmd_oracle_norm)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, toyfock.MemoryBudgetError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())
