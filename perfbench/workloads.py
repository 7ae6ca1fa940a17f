"""The three benchmark workloads: inputs made from a seed, one cycle of ops,
and the correctness gate each op must pass.

A workload builder returns the list of ops that make one cycle.  The run
loop repeats whole cycles, so every run does the same mix of work and the
per-op counts of a traced run repeat exactly for a given seed.  Each op is a
``call`` (the only part that is timed) and a ``check`` that returns ``None``
when the output is correct and a short reason otherwise.

Ops reach the package through module attributes (``cli.main``,
``toyfock.oracle_matrix_element``) so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qscocycle import cli, cocycle, generator, jsonio, models, opcore, toyfock


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------------------
# schur_screen: randomized Schur-criterion screens on small generators.

SCHUR_SAMPLES = 200
SCHUR_N_MAX = 3
# (dim_h, dim_k, mode): the shapes of acceptance criterion 3, both C modes.
SCHUR_SHAPES = tuple(
    (dh, dk, mode)
    for mode in ("unitary_C", "strict_C")
    for dh in (2, 3)
    for dk in (1, 2)
)
_SCHUR_SUMMARY = re.compile(
    r"(\d+) probes, (\d+) violations, (\d+) skipped"
)


def planted_violation() -> generator.BlockGenerator:
    """dim_h = 2, dim_k = 1 with C = 1.5 I: Q^{c,c} grows for |c| = 1."""
    zero = np.zeros((2, 2))
    return generator.BlockGenerator(dim_h=2, dim_k=1, K=zero, L=zero, M=zero, C=1.5 * np.eye(2))


def _core_probe_count(F) -> int:
    return (F.dim_k + 1) * F.dim_h * 3


def build_schur_screen(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    cases = [
        (f"{mode}-h{dh}k{dk}", models.random_contractive(dh, dk, int(rng.integers(2**31)), mode), False)
        for dh, dk, mode in SCHUR_SHAPES
    ]
    cases.append(("planted", planted_violation(), True))
    for label, F, planted in cases:
        path = workdir / f"schur-{label}.gen.json"
        jsonio.save_generator(F, path)
        argv = [
            "schur", str(path), "--samples", str(SCHUR_SAMPLES),
            "--n-max", str(SCHUR_N_MAX), "--seed", str(int(rng.integers(2**31))),
        ]
        report = None
        if planted:
            # Only the per-probe report shows which probe flagged the violation.
            report = workdir / f"schur-{label}.csv"
            argv += ["--out", str(report)]
        ops.append(Op(label, lambda argv=argv: _run_cli(argv), _schur_gate(F, report)))
    return ops


def _schur_gate(F, planted_report: "Path | None"):
    """A contractive generator passes every probe (exit 0); the planted one
    exits 4 with a violation flagged by a deterministic core probe."""
    probes = _core_probe_count(F) + SCHUR_SAMPLES
    core = _core_probe_count(F)

    def check(result) -> "str | None":
        code, text = result
        found = _SCHUR_SUMMARY.search(text)
        if found is None:
            return f"exit {code} without a summary line"
        count, violations = int(found[1]), int(found[2])
        if count != probes:
            return f"{count} probes, expected {probes}"
        if planted_report is None:
            if code != cli.EXIT_OK or violations:
                return f"contractive generator flagged (exit {code}, {violations} violations)"
            return None
        if code != cli.EXIT_VIOLATION or violations == 0:
            return f"planted violation not flagged (exit {code}, {violations} violations)"
        with planted_report.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        if not any(int(r["probe_id"]) < core and r["pass"] == "False" and r["skipped"] == "False"
                   for r in rows):
            return "planted violation missed by every core probe"
        return None

    return check


# --------------------------------------------------------------------------
# evolve_grid: matrix elements on a 201-point grid, through the CLI.

EVOLVE_T = 4.0
EVOLVE_GRID = 200
EVOLVE_PIECES = 16
EVOLVE_CHECK_EVERY = 25
EVOLVE_RTOL = 1e-9


def evolve_models() -> list[tuple[str, generator.BlockGenerator]]:
    osc = models.inverse_oscillator(
        models.OscillatorSpec(dim=24, lam=np.ones(25), mu=np.linspace(0.0, 1.0, 24))
    )
    bd = models.birth_death(12, np.ones(12), np.linspace(0.5, 1.5, 12))
    return [("oscillator-24", osc), ("birth-death-12", bd)]


def seeded_step(rng, dim_k: int, pieces: int, end: float) -> cocycle.StepFunction:
    """``pieces`` values on [0, end); inner breakpoints on a 1/64 grid."""
    slots = rng.choice(np.arange(1, int(end * 64)), size=pieces - 1, replace=False)
    bps = np.concatenate(([0.0], np.sort(slots) / 64.0))
    values = 0.5 * (rng.standard_normal((pieces, dim_k)) + 1j * rng.standard_normal((pieces, dim_k)))
    return cocycle.StepFunction(bps, values, end)


def _step_value(f: cocycle.StepFunction, s: float) -> np.ndarray:
    if s >= f.support_end:
        return np.zeros(f.values.shape[1], dtype=np.complex128)
    return f.values[int(np.searchsorted(f.breakpoints, s, side="right")) - 1]


def _refinement(f, g, a: float, b: float) -> list[float]:
    pts = {a, b}
    for fn in (f, g):
        pts.update(float(x) for x in fn.breakpoints if a < x < b)
        if a < fn.support_end < b:
            pts.add(float(fn.support_end))
    return sorted(pts)


def reference_element(F, f, g, t: float) -> complex:
    """<e_0, P-product e_0> * exp(int_t^inf <f, g>) from scipy's expm.

    H_{c,d} = K + E^c L + M E_d + E^c C E_d is assembled here from the
    blocks, so neither ``opcore`` nor ``generator.component`` is involved.
    """
    import scipy.linalg

    dh, dk = F.dim_h, F.dim_k
    L = F.L.reshape(dk, dh, dh)
    M = F.M.reshape(dh, dk, dh).transpose(1, 0, 2)
    C = F.C.reshape(dk, dh, dk, dh).transpose(0, 2, 1, 3)
    prod = np.eye(dh, dtype=np.complex128)
    cuts = _refinement(f, g, 0.0, t) if t > 0 else [0.0]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c, d = _step_value(f, lo), _step_value(g, lo)
        H = (
            F.K
            + np.einsum("a,apq->pq", np.conj(c), L)
            + np.einsum("b,bpq->pq", d, M)
            + np.einsum("a,b,abpq->pq", np.conj(c), d, C)
        )
        prod = prod @ scipy.linalg.expm((hi - lo) * H)
    end = max(f.support_end, g.support_end)
    tail = 0.0 + 0.0j
    if end > t:
        cuts = _refinement(f, g, t, end)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            tail += np.vdot(_step_value(f, lo), _step_value(g, lo)) * (hi - lo)
    return complex(prod[0, 0] * np.exp(tail))


def build_evolve_grid(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, EVOLVE_T, EVOLVE_GRID + 1)
    checked = list(range(0, EVOLVE_GRID + 1, EVOLVE_CHECK_EVERY))
    ops = []
    for label, F in evolve_models():
        f = seeded_step(rng, F.dim_k, EVOLVE_PIECES, EVOLVE_T)
        g = seeded_step(rng, F.dim_k, EVOLVE_PIECES, EVOLVE_T)
        paths = [workdir / f"evolve-{label}.{name}.json" for name in ("gen", "f", "g")]
        jsonio.save_generator(F, paths[0])
        jsonio.save_step(f, paths[1])
        jsonio.save_step(g, paths[2])
        out = workdir / f"evolve-{label}.csv"
        refs = {i: reference_element(F, f, g, float(times[i])) for i in checked}
        argv = ["evolve", *map(str, paths), "--t", str(EVOLVE_T),
                "--grid", str(EVOLVE_GRID), "--out", str(out)]
        ops.append(Op(label, lambda argv=argv: _run_cli(argv)[0], _evolve_gate(out, times, refs)))
    return ops


def _evolve_gate(out: Path, times: np.ndarray, refs: dict[int, complex]):
    scale = max(abs(z) for z in refs.values())

    def check(code) -> "str | None":
        if code != cli.EXIT_OK:
            return f"exit {code}"
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        if len(rows) != len(times):
            return f"{len(rows)} rows, expected {len(times)}"
        for i, ref in refs.items():
            t, re_, im_ = (float(x) for x in rows[i][:3])
            value = complex(re_, im_)
            if abs(t - times[i]) > 1e-9:
                return f"row {i} has t={t}, expected {times[i]}"
            if not abs(value - ref) <= EVOLVE_RTOL * (abs(ref) + 1e-6 * scale):
                return f"t={t}: {value} differs from reference {ref}"
        return None

    return check


# --------------------------------------------------------------------------
# oracle_lattice: one oracle cross-check per op, bypassing the CLI.

ORACLE_T = 1.0
ORACLE_N = 65536
# (dim_k, state-norm slots, breakpoint spacing).  The spacing puts every jump
# on a lattice point of both N = ORACLE_N and the state-norm slot count.  The
# two shapes cost different amounts, so a cycle holds them 2:1; with an even
# split the median op would fall in the gap between the two costs.
ORACLE_SHAPES = ((1, 16, 0.25), (2, 10, 0.5), (1, 16, 0.25))
# |oracle - engine| <= ORACLE_ELEMENT_C / N * max(1, |engine|).  Over 400
# seeded cases the constant needed was at most 3.4.
ORACLE_ELEMENT_C = 10.0
# |norm - |v| |eps(g)|| <= ORACLE_NORM_C * tau * rate * |v| |eps(g)|, with the
# first-order rate |K| + |L|^2 + 2 |L| |g|_max + |g|_max^2.  Over 300 seeded
# cases the constant needed was at most 0.94.
ORACLE_NORM_C = 3.0


def aligned_step(rng, dim_k: int, spacing: float, end: float) -> cocycle.StepFunction:
    pieces = int(round(end / spacing))
    values = 0.5 * (rng.standard_normal((pieces, dim_k)) + 1j * rng.standard_normal((pieces, dim_k)))
    return cocycle.StepFunction(spacing * np.arange(pieces), values, end)


def _unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def build_oracle_lattice(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, (dk, slots, spacing) in enumerate(ORACLE_SHAPES):
        F = models.random_contractive(2, dk, int(rng.integers(2**31)), "unitary_C")
        f = aligned_step(rng, dk, spacing, ORACLE_T)
        g = aligned_step(rng, dk, spacing, ORACLE_T)
        u, v = _unit(rng, 2), _unit(rng, 2)
        engine = cocycle.full_matrix_element(F, u, f, v, g, ORACLE_T)
        limit = math.sqrt(abs(cocycle.exp_inner(g, g, 0.0, None)))
        g_max = max(float(np.linalg.norm(x)) for x in g.values)
        L_norm = opcore.op_norm(F.L)
        rate = opcore.op_norm(F.K) + L_norm**2 + 2 * L_norm * g_max + g_max**2

        def call(F=F, u=u, f=f, v=v, g=g, slots=slots):
            element = toyfock.oracle_matrix_element(F, u, f, v, g, ORACLE_T, ORACLE_N)
            norm = toyfock.oracle_state_norm(F, v, g, ORACLE_T, slots)
            return element, norm

        ops.append(Op(f"k{dk}-N{slots}-{i}", call, _oracle_gate(engine, limit, ORACLE_T / slots * rate)))
    return ops


def _oracle_gate(engine: complex, limit: float, first_order: float):
    def check(result) -> "str | None":
        element, norm = result
        err = abs(element - engine)
        if not err <= ORACLE_ELEMENT_C / ORACLE_N * max(1.0, abs(engine)):
            return f"element {element} is {err:.3g} from engine value {engine}"
        defect = norm - limit
        if not abs(defect) <= ORACLE_NORM_C * first_order * limit:
            return f"state norm {norm} vs isometric limit {limit}: defect {defect:.3g}"
        return None

    return check


BUILDERS = {
    "schur_screen": build_schur_screen,
    "evolve_grid": build_evolve_grid,
    "oracle_lattice": build_oracle_lattice,
}
