#!/usr/bin/env python3
"""qscocycle benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``schur_screen``, ``evolve_grid``,
``oracle_lattice``.  Each op starts when the previous one has finished, and
the loop repeats whole cycles of ops until ``--seconds`` have passed.  Every
op passes a correctness gate or counts as failed.

``--trace 0`` reports the end-to-end metrics: ops_per_s, op_p50_ms,
op_tail_ms (the highest whole percentile with at least ten ops beyond it),
setup_s (the median time of a fresh ``import qscocycle.cli`` in a child
interpreter that has numpy loaded, plus the median time of building the
inputs, their files and the references) and peak_rss_mb.  The failed share
is the result's ``failed``/``attempted`` pair and is printed beside them.

Op times are reported at a reference host speed.  On a shared host the
speed of one unchanged op drifts by a quarter or more over tens of seconds,
which would bury any change worth measuring.  So after every op the run
times a fixed kernel (``SpeedProbe``) built from the kinds of work the ops
spend their time in; on a 2-core shared host its time tracked the ops' with
correlation 0.92-0.96.  Each op's time is scaled by PROBE_REF_S over the
median probe time of the PROBE_WINDOW ops around it, and each import and
build of the set-up by the probe run beside it.  The probe is the
benchmark's own code, so a change to the package cannot move it.  The
unscaled figures are printed in the detail line.

``--trace 1`` wraps the package's layers (``tracing.py``).  It runs half the
time untraced and half traced, reports the per-layer metrics of the traced
half, and the tracing overhead as the ratio of the two (scaled) op rates
minus one.  Per-layer times are not scaled.

The last line of standard output is the JSON result.  All six end-to-end
metrics of every workload:

    for w in schur_screen evolve_grid oracle_lattice; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 10 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("schur_screen", "evolve_grid", "oracle_lattice")
SETUP_REPEATS = 7
TAIL_BEYOND = 10
PROBE_REF_S = 0.004
PROBE_WINDOW = 9

# Metrics a traced run must see nonzero on each workload (every other
# per-layer metric may read 0 there), and those that must stay 0.
EXPECTED_NONZERO = {
    "schur_screen": (
        "opcore.mat_exp.calls", "opcore.mat_exp.self_s", "opcore.mat_exp.us_per_call",
        "opcore.mat_exp.gflop_computed", "opcore.psd_inv_sqrt.calls",
        "opcore.psd_inv_sqrt.self_s", "opcore.op_norm.calls", "opcore.op_norm.self_s",
        "generator.component.calls", "generator.component.self_s",
        "semigroups.lookups", "semigroups.misses", "semigroups.hit_ratio",
        "semigroups.entries_max", "semigroups.self_s", "reconstruct.probes",
        "reconstruct.live_ratio", "reconstruct.make_probe.self_s",
        "reconstruct.schur_criterion_check.self_s", "reconstruct.us_per_probe",
        "jsonio.load.self_s", "cli.self_s", "models.build_s",
    ),
    "evolve_grid": (
        "opcore.mat_exp.calls", "opcore.mat_exp.self_s", "opcore.mat_exp.us_per_call",
        "opcore.mat_exp.gflop_computed", "generator.component.calls",
        "generator.component.self_s", "semigroups.lookups", "semigroups.misses",
        "semigroups.hit_ratio", "semigroups.entries_max", "semigroups.self_s",
        "cocycle.sliced_element.calls", "cocycle.sliced_element.self_s",
        "cocycle.p_factors", "cocycle.us_per_factor", "cocycle.exp_inner.calls",
        "cocycle.exp_inner.self_s", "jsonio.load.self_s", "cli.self_s", "models.build_s",
    ),
    "oracle_lattice": (
        "toyfock.oracle_matrix_element.self_s", "toyfock.ns_per_slot",
        "toyfock.oracle_state_norm.self_s", "toyfock.state_dim_max",
        "toyfock.state_mb_computed", "kernels.element_chain.self_s",
        "kernels.slot_apply.self_s", "cocycle.exp_inner.calls", "models.build_s",
    ),
}
# The oracle must stay independent of the engine's matrix exponential.
EXPECTED_ZERO = {"oracle_lattice": ("opcore.mat_exp.calls",)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> str:
    cap = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap
    return cap


# numpy is imported first and untimed: its import is file-system work that
# varies by a third between runs here, and the package cannot change it.
# The child runs the speed probe beside the timed import, since its core's
# speed is not the parent's.
IMPORT_PROBE = (
    "import numpy; from run import SpeedProbe; from time import perf_counter; "
    "probe = SpeedProbe(); probe(); before = probe(); start = perf_counter(); "
    "import qscocycle.cli; took = perf_counter() - start; print(took, (before + probe()) / 2)"
)


def import_package():
    """Put the package from ``src/`` and the benchmark modules on the path."""
    src = ROOT / "src"
    if not (src / "qscocycle" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'qscocycle'}")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_seconds() -> list[tuple[float, float]]:
    """(import time, probe time) of a fresh ``import qscocycle.cli`` in each
    of SETUP_REPEATS child interpreters; an import happens once per process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        took, probe_s = (float(x) for x in done.stdout.split())
        runs.append((took, probe_s))
    return runs


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed: int, threads: str) -> dict:
    import numpy as np
    from qscocycle import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc(),
        "kernels_backend": _kernels.backend_name(),
        "seed": seed,
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND ops beyond it
    (nearest rank); the median when there are too few ops for that."""
    if n <= 2 * TAIL_BEYOND:
        return 50
    return int(math.floor(100.0 * (n - TAIL_BEYOND) / n))


def nearest_rank(sorted_values, pct: int) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class SpeedProbe:
    """Times a fixed kernel with one part in the style of each workload's
    hot loop: a chain of 2x2 complex products, 3x3 ``eigh`` and 2-norms,
    byte-keyed dict lookups with ``searchsorted`` and 24x24 products, and a
    plain interpreter loop."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._m2 = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
        a3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self._h3 = a3 + a3.conj().T
        self._y = rng.standard_normal((6, 3)) + 0j
        self._m24 = (rng.standard_normal((24, 24)) + 0j) / 24
        self._bp = np.sort(rng.uniform(0.0, 4.0, 16))
        self._vec = rng.standard_normal(2) + 0j

    def __call__(self) -> float:
        np = self._np
        start = perf_counter()
        acc = np.eye(2, dtype=np.complex128)
        for _ in range(300):
            acc = acc @ self._m2
        for _ in range(15):
            np.linalg.eigh(self._h3)
            np.linalg.norm(self._y, 2)
        cache, x = {}, self._m24
        for i in range(100):
            key = (self._vec.tobytes(), np.float64(0.01 * i).tobytes())
            cache.get(key)
            int(np.searchsorted(self._bp, 0.04 * i, side="right"))
            x = x @ self._m24
            cache[key] = i
        table, total = {}, 0
        for i in range(8000):
            table[i & 255] = total
            total += (i * 7) % 13
        return perf_counter() - start


def speed_factors(probe_s: list[float]) -> list[float]:
    """PROBE_REF_S over the running median of the probe times, per sample."""
    half = PROBE_WINDOW // 2
    return [PROBE_REF_S / statistics.median(probe_s[max(0, i - half): i + half + 1])
            for i in range(len(probe_s))]


class Phase:
    """Closed loop over whole cycles of ops for at least ``seconds``; the
    speed probe runs after every op."""

    def __init__(self, ops, seconds: float, probe: SpeedProbe):
        self.latencies: list[float] = []
        self.busy: list[float] = []  # op and its gate
        self.failures: list[str] = []
        probe_s = []
        start = perf_counter()
        while True:
            for op in ops:
                begin = perf_counter()
                try:
                    out = op.call()
                    elapsed = perf_counter() - begin
                    reason = op.check(out)
                except Exception as exc:  # an op that raises is a failed op
                    elapsed = perf_counter() - begin
                    reason = f"{type(exc).__name__}: {exc}"
                self.busy.append(perf_counter() - begin)
                self.latencies.append(elapsed)
                if reason is not None:
                    self.failures.append(f"{op.label}: {reason}")
                probe_s.append(probe())
            if perf_counter() - start >= seconds:
                break
        self.factors = speed_factors(probe_s)
        self.probe_s = probe_s

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies, self.factors)]

    def ops_per_s(self, scaled: bool = True) -> float:
        busy = sum(t * k for t, k in zip(self.busy, self.factors)) if scaled else sum(self.busy)
        return (self.attempted - len(self.failures)) / busy


def build(workload: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.BUILDERS[workload](seed, workdir)


def scaled_median(runs: list[tuple[float, float]]) -> float:
    """Median of (time, probe time) pairs, each time at the reference speed."""
    return statistics.median(t * PROBE_REF_S / probe_s for t, probe_s in runs)


def run_untraced(workload, seed, seconds, workdir, probe):
    imports = import_seconds()
    builds = []
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        ops = build(workload, seed, workdir / f"setup{i}")
        builds.append((perf_counter() - start, probe()))
    ops[0].check(ops[0].call())  # warm-up: lazy imports and first-call costs
    phase = Phase(ops, seconds, probe)
    lat = sorted(phase.scaled_latencies())
    raw = sorted(phase.latencies)
    pct = tail_percentile(len(lat))
    metrics = {
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * nearest_rank(lat, pct), "ms"),
        "setup_s": (scaled_median(imports) + scaled_median(builds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "op_tail_percentile": pct, "ops_per_percentile": len(lat),
        "unscaled": {"ops_per_s": phase.ops_per_s(scaled=False),
                     "op_p50_ms": 1e3 * statistics.median(raw),
                     "op_tail_ms": 1e3 * nearest_rank(raw, pct),
                     "setup_s": statistics.median(t for t, _ in imports)
                     + statistics.median(t for t, _ in builds)},
        "probe_ms_median": 1e3 * statistics.median(phase.probe_s),
        "import_and_probe_s": imports, "build_and_probe_s": builds,
    }
    return metrics, [phase], detail


def run_traced(workload, seed, seconds, workdir, probe):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        ops = build(workload, seed, workdir)
        setup_s = perf_counter() - start
        models_s = tracer.total("models.build")
    finally:
        tracer.uninstall()
    ops[0].check(ops[0].call())
    plain = Phase(ops, seconds / 2, probe)
    tracer.reset()
    tracer.install()
    try:
        traced = Phase(ops, seconds / 2, probe)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced.attempted)
    metrics["models.build_s"] = (models_s, "s")
    overhead = plain.ops_per_s() / traced.ops_per_s() - 1.0 if traced.ops_per_s() else 0.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    gaps = [f"{name} reads 0" for name in EXPECTED_NONZERO[workload] if metrics[name][0] == 0]
    gaps += [f"{name} reads {metrics[name][0]}, expected 0"
             for name in EXPECTED_ZERO.get(workload, ()) if metrics[name][0] != 0]
    detail = {"traced_ops": traced.attempted, "untraced_ops": plain.attempted,
              "setup_s": setup_s, "coverage_failures": gaps}
    return metrics, [plain, traced], detail


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and gate one workload; return the printed result."""
    threads = cap_blas_threads()
    import_package()
    probe = SpeedProbe()
    workdir = ROOT / f".perfbench_work-{workload}-{os.getpid()}"
    try:
        if trace:
            metrics, phases, detail = run_traced(workload, seed, seconds, workdir, probe)
        else:
            metrics, phases, detail = run_untraced(workload, seed, seconds, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    detail.update(
        workload=workload,
        fail_share=len(failures) / attempted,
        failures=failures[:10],
        provenance=provenance(seed, threads),
    )
    correct = not failures and not detail.get("coverage_failures")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"{'fail_share':<42} {detail['fail_share']:>14.6g} ratio")
    print(json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
