#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Each workload runs one cycle of ops, untraced and traced.  The test checks
that every metric named in BENCHMARK.json is emitted with its unit, and that
a wrong result injected into the package's output is counted as a failed op.
Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_package()

from qscocycle import cli, reconstruct, toyfock  # noqa: E402

SEED = 7


def tiny(workload: str, trace: bool) -> tuple[dict, dict]:
    """One cycle of ``workload``; returns the result and the detail line."""
    out = io.StringIO()
    with redirect_stdout(out):
        result = run.run(workload, SEED, 0.0, trace)
    lines = out.getvalue().splitlines()
    return result, json.loads(lines[-2])


def _violating_check(original):
    def check(family, probe, tol=reconstruct.PASS_TOL):
        report = original(family, probe, tol)
        if probe.probe_id == 0:
            return reconstruct.ProbeReport(probe.probe_id, report.n, report.t, 1.0, False, False)
        return report

    return check


def _shifted_element(original):
    def element(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 1e-6)

    return element


def _shifted_oracle(original):
    def element(*args, **kwargs):
        return original(*args, **kwargs) + 1e-2

    return element


# Per workload: the module attribute to corrupt and how.  Each corruption
# changes a result the gate reads: a probe verdict, a CSV value, an oracle value.
INJECTIONS = {
    "schur_screen": (reconstruct, "schur_criterion_check", _violating_check),
    "evolve_grid": (cli, "full_matrix_element", _shifted_element),
    "oracle_lattice": (toyfock, "oracle_matrix_element", _shifted_oracle),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, detail = tiny(workload, trace)
            tag = f"{workload} trace={int(trace)}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {[n for n in got if got[n] != wanted[trace].get(n, got[n])]}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{tag}: a metric is not finite")
            if not result["correct"] or result["failed"] or detail["fail_share"] != 0:
                problems.append(f"{tag}: clean run not correct: {detail['failures']} "
                                f"{detail.get('coverage_failures')}")

        module, attr, corrupt = INJECTIONS[workload]
        original = getattr(module, attr)
        setattr(module, attr, corrupt(original))
        try:
            result, detail = tiny(workload, False)
        finally:
            setattr(module, attr, original)
        share = result["failed"] / result["attempted"]
        if result["correct"] or result["failed"] == 0 or not math.isclose(detail["fail_share"], share):
            problems.append(f"{workload}: injected wrong result not counted "
                            f"(failed {result['failed']} of {result['attempted']}, "
                            f"fail_share {detail['fail_share']})")
        print(f"{workload}: metrics complete; injected fault gave "
              f"{result['failed']}/{result['attempted']} failed ops")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
