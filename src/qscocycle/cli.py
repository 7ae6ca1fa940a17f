"""Command-line front end: build, check, evolve, schur, tk, coords, dual,
oracle-norm.

Exit codes: 0 pass, 2 I/O, usage or JSON field failure, 3 validation failure
(a flag value that fails its type included), 4 property violation.  Commands
are deterministic given their flags; only ``schur`` draws random probes, from
its ``--seed``.  CSV reports are emitted with stable ordering so fixed seeds
give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import jsonio, models, reconstruct, toyfock
from .cocycle import StepFunction, exp_inner, full_matrix_element
from .generator import BlockGenerator, classify, from_hlc
from .opcore import adjoint, op_norm, op_norm_stack
from .semigroups import coordinate_cells, coords_from_f, coords_to_f, dual_generator, q_stack

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VIOLATION = 4


def build_model(payload: dict) -> BlockGenerator:
    """Construct a generator from a model-spec payload."""
    if "format" in payload:
        jsonio.check_format(payload)
    read = functools.partial(jsonio.read_field, payload)
    name = payload.get("model")
    if name == "oscillator":
        dim = read("dim", "count")
        lam, mu = read("lam", "complexes", dim + 1), read("mu", "reals", dim)
        return models.inverse_oscillator(models.OscillatorSpec(dim=dim, lam=lam, mu=mu))
    if name == "birth_death":
        dim = read("dim", "count")
        return models.birth_death(dim, read("birth", "reals", dim), read("death", "reals", dim))
    if name == "random":
        mode = payload.get("mode", "unitary_C")
        if mode not in models.RANDOM_MODES:
            raise jsonio.SchemaError(
                f"field 'mode' must be {' or '.join(models.RANDOM_MODES)}, got {mode!r}"
            )
        return models.random_contractive(
            read("dim_h", "count"), read("dim_k", "count"), read("seed", "count"), mode
        )
    if name == "zero":
        dh, dk = read("dim_h", "count"), read("dim_k", "count")
        return BlockGenerator(
            dim_h=dh, dim_k=dk,
            K=np.zeros((dh, dh)), L=np.zeros((dh * dk, dh)),
            M=np.zeros((dh, dh * dk)), C=np.eye(dh * dk),
        )
    if name == "hlc":
        return from_hlc(read("H", "matrix"), read("L", "matrix"), read("C", "matrix"))
    raise jsonio.SchemaError(f"field 'model' must name a known model, got {name!r}")


def _write_csv(path, header, rows):
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _flag_type(parse, ok, expected: str):
    """An argparse ``type=``: ``parse`` the text and require ``ok`` of the value."""

    def convert(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")

    return convert


TOLERANCE = _flag_type(float, lambda x: 0.0 <= x < np.inf, "a finite tolerance >= 0")
TIME = _flag_type(float, lambda x: 0.0 <= x < np.inf, "a finite time >= 0")
HORIZON = _flag_type(float, lambda x: 0.0 < x < np.inf, "a finite horizon > 0")
COUNT = _flag_type(int, lambda n: n >= 0, ">= 0")
POSITIVE = _flag_type(int, lambda n: n >= 1, ">= 1")
INT_LIST = _flag_type(lambda text: [int(x) for x in text.split(",")],
                      lambda ns: 1 <= ns[0] and all(a < b for a, b in zip(ns, ns[1:])),
                      "a comma-separated, strictly increasing list of integers >= 1")


def cmd_build(args) -> int:
    F = build_model(jsonio.load_json(args.spec))
    jsonio.save_generator(F, args.out)
    report = classify(F, tol=args.tol)
    print(f"wrote {args.out}: dim_h={F.dim_h} dim_k={F.dim_k}")
    print(report.summary())
    return EXIT_OK


def cmd_check(args) -> int:
    F = jsonio.load_generator(args.generator)
    report = classify(F, tol=args.tol)
    rows = [
        ("contractivity_defect", report.contractivity_defect, report.is_contractive),
        ("c_norm", report.c_norm, report.c_contractive),
        ("drift_equality_defect", report.drift_equality_defect, report.drift_equality_defect <= args.tol),
        ("gauge_equality_defect", report.gauge_equality_defect, report.gauge_equality_defect <= args.tol),
    ]
    if args.out:
        _write_csv(args.out, ("quantity", "value", "pass"), rows)
    print(report.summary())
    return EXIT_OK if report.is_contractive else EXIT_VIOLATION


def cmd_evolve(args) -> int:
    F = jsonio.load_generator(args.generator)
    f = jsonio.load_step(args.f)
    g = jsonio.load_step(args.g)
    u = v = np.eye(F.dim_h, dtype=np.complex128)[0]
    times = np.linspace(0.0, args.t, args.grid + 1)
    values = full_matrix_element(F, u, f, v, g, times)
    rows = []
    header = ["t", "re", "im"]
    if args.oracle:
        header += ["oracle_re", "oracle_im", "abs_diff"]
    # Python floats and complexes format faster than numpy scalars, to the same text.
    for t, val in zip(times.tolist(), values.tolist()):
        row = [f"{t:.12g}", f"{val.real:.17g}", f"{val.imag:.17g}"]
        if args.oracle:
            if t > 0:
                ora = toyfock.oracle_matrix_element(F, u, f, v, g, t, args.oracle)
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
    if args.out:
        rows = [(r.probe_id, r.n, f"{r.t:.12g}", f"{r.defect:.17g}", r.passed, r.skipped) for r in reports]
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
    report = reconstruct.trotter_kato_pipeline(
        F, args.n_list, T=args.t_horizon, grid_points=args.grid
    )
    table = [(p, n, err) for n, errs in zip(report.n_list, report.errors) for p, err in enumerate(errs)]
    if args.out:
        rows = [(p, n, f"{args.t_horizon:.12g}", f"{err:.17g}", report.monotone) for p, n, err in table]
        _write_csv(args.out, ("pair_index", "n", "horizon", "sup_error", "monotone"), rows)
    for p, n, err in table:
        print(f"pair {p}  n={n:<6d} sup error {err:.6e}")
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
            "G": jsonio.encode_matrix(grid),
        }
        jsonio.dump_json(payload, args.out)
    print(f"round-trip error {err:.3e}")
    return EXIT_OK if err <= args.tol else EXIT_VIOLATION


def _dual_defect(F: BlockGenerator, dual: BlockGenerator) -> float:
    """Largest |Q~^{c,d}_t - (Q^{d,c}_t)*| over the coordinate cells, which fix
    the generator, at the core probes' times."""
    cells = coordinate_cells(F.dim_k)
    c, d, t = cells[:, None, None], cells[None, :, None], np.array(reconstruct.CORE_TIMES)
    return float(op_norm_stack(q_stack(dual, c, d, t) - adjoint(q_stack(F, d, c, t))).max())


def cmd_dual(args) -> int:
    F = jsonio.load_generator(args.generator)
    dual = dual_generator(F)
    jsonio.save_generator(dual, args.out)
    worst = _dual_defect(F, dual)
    print(
        f"wrote {args.out}; max dual-relation defect over the {(F.dim_k + 1) ** 2} coordinate "
        f"cells at t = {', '.join(f'{t:g}' for t in reconstruct.CORE_TIMES)}: {worst:.3e}"
    )
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATION


def cmd_oracle_norm(args) -> int:
    F = jsonio.load_generator(args.generator)
    g = jsonio.load_step(args.g)
    v = np.eye(F.dim_h, dtype=np.complex128)[0]
    norm = toyfock.oracle_state_norm(F, v, g, args.t, args.steps)
    # The lattice covers [0, t): |eps(g 1_[0,t))| = exp(int_0^t |g|^2 / 2) is exp int_0^t |h|^2
    # for h = g / sqrt(2), and taken so it overflows only where it is not a double.
    h = StepFunction(g.breakpoints, g.values / np.sqrt(2.0), g.support_end)
    reference = float(abs(exp_inner(h, h, 0.0, args.t)))
    if not np.isfinite(reference):
        raise OverflowError(
            "reference |v| * |eps(g 1_[0,t))| overflowed: exp(int_0^t |g|^2 / 2) is not "
            "finite in double precision"
        )
    print(f"discrete state norm      {norm:.12g}")
    print(f"|v| * |eps(g 1_[0,t))|   {reference:.12g}")
    print(f"defect                   {abs(norm - reference):.6g}")
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it as it was."""
    new_parser = functools.partial(argparse.ArgumentParser, exit_on_error=False)
    parser = new_parser(
        prog="qscocycle",
        description="Quantum stochastic cocycle numerics via associated semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

    build = sub.add_parser("build", help="model spec JSON -> generator JSON")
    build.add_argument("spec", type=Path)
    build.add_argument("--out", type=Path, required=True)
    build.add_argument("--tol", type=TOLERANCE, default=1e-10)
    build.set_defaults(func=cmd_build)

    check = sub.add_parser("check", help="contractivity report for a generator")
    check.add_argument("generator", type=Path)
    check.add_argument("--tol", type=TOLERANCE, default=1e-10)
    check.add_argument("--out", type=Path, default=None)
    check.set_defaults(func=cmd_check)

    evolve = sub.add_parser("evolve", help="matrix elements on a time grid")
    evolve.add_argument("generator", type=Path)
    evolve.add_argument("f", type=Path)
    evolve.add_argument("g", type=Path)
    evolve.add_argument("--t", type=TIME, required=True)
    evolve.add_argument("--grid", type=POSITIVE, default=10)
    evolve.add_argument("--oracle", type=COUNT, default=0,
                        help="also evaluate the repeated-interaction oracle with N steps")
    evolve.add_argument("--out", type=Path, default=None)
    evolve.set_defaults(func=cmd_evolve)

    schur = sub.add_parser("schur", help="Schur-criterion probe screen")
    schur.add_argument("generator", type=Path)
    schur.add_argument("--samples", type=POSITIVE, default=200)
    schur.add_argument("--n-max", type=POSITIVE, default=3)
    schur.add_argument("--seed", type=COUNT, default=0)
    schur.add_argument("--tol", type=TOLERANCE, default=reconstruct.PASS_TOL)
    schur.add_argument("--out", type=Path, default=None)
    schur.set_defaults(func=cmd_schur)

    tk = sub.add_parser("tk", help="resolvent-regularization convergence report")
    tk.add_argument("generator", type=Path)
    tk.add_argument("--n-list", type=INT_LIST, default="10,100,1000")
    tk.add_argument("--T", dest="t_horizon", type=HORIZON, default=1.0)
    tk.add_argument("--grid", type=POSITIVE, default=11)
    tk.add_argument("--out", type=Path, default=None)
    tk.set_defaults(func=cmd_tk)

    coords = sub.add_parser("coords", help="slice-generator grid and round trip")
    coords.add_argument("generator", type=Path)
    coords.add_argument("--out", type=Path, default=None)
    coords.add_argument("--tol", type=TOLERANCE, default=1e-12)
    coords.set_defaults(func=cmd_coords)

    dual = sub.add_parser("dual", help="write the dual generator and verify the relation")
    dual.add_argument("generator", type=Path)
    dual.add_argument("--out", type=Path, required=True)
    dual.add_argument("--tol", type=TOLERANCE, default=1e-12)
    dual.set_defaults(func=cmd_dual)

    norm = sub.add_parser("oracle-norm", help="discrete state norm vs isometric limit")
    norm.add_argument("generator", type=Path)
    norm.add_argument("g", type=Path)
    norm.add_argument("--t", type=HORIZON, required=True)
    norm.add_argument("--steps", type=POSITIVE, required=True)
    norm.set_defaults(func=cmd_oracle_norm)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        # A flag value that fails its type exits 3; other argument errors exit 2.
        if not isinstance(exc.__context__, argparse.ArgumentTypeError):
            parser.error(str(exc))
        print(f"error: {exc.argument_name} {exc.message}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        # An input that overflows ends in a named error below, not in numpy's
        # warnings (which ``-W error`` would raise).
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (OSError, json.JSONDecodeError, RecursionError, jsonio.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    raise SystemExit(main())
