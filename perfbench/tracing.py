"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each layer where they are
called.  The package binds functions by name (``semigroups`` holds its own
``mat_exp``, ``cli`` its own ``full_matrix_element``), so a wrapper replaces
every binding of the original function across the loaded ``qscocycle``
modules; methods are wrapped on their class.  ``uninstall`` puts every
original back.

Spans are aggregated as they close instead of being stored: per span name
the call count, inclusive time and self time (inclusive time minus the time
covered by child spans).  Observers add counters at the same boundaries;
their own cost is charged to no span.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from qscocycle import opcore

COMPLEX_BYTES = 16


def _mat_exp_flops(a) -> tuple[float, int]:
    """Computed real flops of ``opcore.mat_exp(a)`` and its scaling exponent.

    Mirrors the degree choice in ``opcore``: the first Pade degree m whose
    theta_m bounds max(|a|_1, |a|_inf), else m = 13 with s squarings chosen
    against theta_13.  A complex n x n product counts 8 n^3 real flops and the
    final solve 32/3 n^3; additions and scalings are left out.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if n == 0:
        return 0.0, 0
    mu = max(float(np.linalg.norm(a, 1)), float(np.linalg.norm(a, np.inf)))
    if mu == 0.0:
        return 0.0, 0
    thetas = opcore._PADE_THETA
    degree, s = 13, 0
    for m, theta in thetas:
        if mu <= theta:
            degree = m
            break
    else:
        s = max(0, int(math.ceil(math.log2(mu / thetas[-1][1]))))
    products = 6 if degree == 13 else degree // 2 + 1
    return 8.0 * n**3 * (products + s) + 32.0 / 3.0 * n**3, s


def _observe_mat_exp(counters, parent, args, kwargs, result):
    flops, s = _mat_exp_flops(args[0])
    counters["opcore.mat_exp.flops"] += flops
    counters["opcore.mat_exp.scaled"] += s > 0
    counters["opcore.mat_exp.s_max"] = max(counters["opcore.mat_exp.s_max"], s)
    if parent == "semigroups.lookup":
        counters["semigroups.misses"] += 1


def _observe_lookup(counters, parent, args, kwargs, result):
    size = len(args[0]._cache)
    counters["semigroups.entries_max"] = max(counters["semigroups.entries_max"], size)
    # ``family.p`` is a one-line forward to ``_exp`` and is left unwrapped, so
    # a P-factor of the cocycle product is a lookup made by sliced_element.
    if parent == "cocycle.sliced_element":
        counters["cocycle.p_factors"] += 1


def _observe_probe(counters, parent, args, kwargs, result):
    counters["reconstruct.probes_skipped"] += bool(result.skipped)


def _observe_element(counters, parent, args, kwargs, result):
    counters["toyfock.slots"] += args[6] if len(args) > 6 else kwargs["N"]


def _observe_slot_apply(counters, parent, args, kwargs, result):
    size = np.asarray(args[0]).size
    counters["toyfock.state_dim_max"] = max(counters["toyfock.state_dim_max"], size)


# (module, attribute, span name, observer).  "Class.method" wraps a method.
SPANS = (
    ("opcore", "mat_exp", "opcore.mat_exp", _observe_mat_exp),
    ("opcore", "psd_inv_sqrt", "opcore.psd_inv_sqrt", None),
    ("opcore", "op_norm", "opcore.op_norm", None),
    ("generator", "component", "generator.component", None),
    ("semigroups", "SemigroupFamily._exp", "semigroups.lookup", _observe_lookup),
    ("semigroups", "SemigroupFamily.slice_generators", "semigroups.slice_generators", None),
    ("semigroups", "g_generator", "semigroups.g_generator", None),
    ("cocycle", "full_matrix_element", "cocycle.full_matrix_element", None),
    ("cocycle", "sliced_element", "cocycle.sliced_element", None),
    ("cocycle", "exp_inner", "cocycle.exp_inner", None),
    ("reconstruct", "screen_family", "reconstruct.screen_family", None),
    ("reconstruct", "make_probe", "reconstruct.make_probe", None),
    ("reconstruct", "schur_criterion_check", "reconstruct.schur_criterion_check", _observe_probe),
    ("toyfock", "oracle_matrix_element", "toyfock.oracle_matrix_element", _observe_element),
    ("toyfock", "oracle_state_norm", "toyfock.oracle_state_norm", None),
    ("_kernels", "element_chain", "kernels.element_chain", None),
    ("_kernels", "slot_apply", "kernels.slot_apply", _observe_slot_apply),
    ("jsonio", "load_json", "jsonio.load", None),
    ("jsonio", "load_generator", "jsonio.load", None),
    ("jsonio", "load_step", "jsonio.load", None),
    ("cli", "main", "cli", None),
    ("models", "random_contractive", "models.build", None),
    ("models", "inverse_oscillator", "models.build", None),
    ("models", "birth_death", "models.build", None),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "qscocycle" or name.startswith("qscocycle."))]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    def _wrap(self, name, fn, observe):
        stack, stats, counters = self._stack, self.stats, self.counters

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record = stats[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                start = perf_counter()
                observe(counters, stack[-1][0] if stack else None, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - start
            return result

        return traced

    def install(self):
        modules = _package_modules()
        for module_name, attr, name, observe in SPANS:
            module = sys.modules.get(f"qscocycle.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is not None:
                    self._patches.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original, observe))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, prefix):
        """Self time of span ``prefix`` and of every span named ``prefix.*``."""
        return sum(rec[2] for key, rec in self.stats.items()
                   if key == prefix or key.startswith(prefix + "."))

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the ops traced since the last reset.

        Counts and self times are per op; a ratio whose base is 0 reads 0.
        """
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        def per_op(value):
            return value / ops

        exp_calls = self.calls("opcore.mat_exp")
        lookups = self.calls("semigroups.lookup")
        probes = self.calls("reconstruct.schur_criterion_check")
        factors = c["cocycle.p_factors"]
        dim_max = c["toyfock.state_dim_max"]
        return {
            "opcore.mat_exp.calls": (per_op(exp_calls), "count/op"),
            "opcore.mat_exp.self_s": (per_op(self.self_time("opcore.mat_exp")), "s/op"),
            "opcore.mat_exp.us_per_call": (1e6 * ratio(self.total("opcore.mat_exp"), exp_calls), "us"),
            "opcore.mat_exp.s_max": (c["opcore.mat_exp.s_max"], "count"),
            "opcore.mat_exp.scaled_share": (ratio(c["opcore.mat_exp.scaled"], exp_calls), "ratio"),
            "opcore.mat_exp.gflop_computed": (per_op(c["opcore.mat_exp.flops"]) / 1e9, "GFLOP/op"),
            "opcore.psd_inv_sqrt.calls": (per_op(self.calls("opcore.psd_inv_sqrt")), "count/op"),
            "opcore.psd_inv_sqrt.self_s": (per_op(self.self_time("opcore.psd_inv_sqrt")), "s/op"),
            "opcore.op_norm.calls": (per_op(self.calls("opcore.op_norm")), "count/op"),
            "opcore.op_norm.self_s": (per_op(self.self_time("opcore.op_norm")), "s/op"),
            "generator.component.calls": (per_op(self.calls("generator.component")), "count/op"),
            "generator.component.self_s": (per_op(self.self_time("generator.component")), "s/op"),
            "semigroups.lookups": (per_op(lookups), "count/op"),
            "semigroups.misses": (per_op(c["semigroups.misses"]), "count/op"),
            "semigroups.hit_ratio": (ratio(lookups - c["semigroups.misses"], lookups), "ratio"),
            "semigroups.entries_max": (c["semigroups.entries_max"], "count"),
            "semigroups.self_s": (per_op(self.self_time("semigroups")), "s/op"),
            "cocycle.sliced_element.calls": (per_op(self.calls("cocycle.sliced_element")), "count/op"),
            "cocycle.sliced_element.self_s": (per_op(self.self_time("cocycle.sliced_element")), "s/op"),
            "cocycle.p_factors": (per_op(factors), "count/op"),
            "cocycle.us_per_factor": (1e6 * ratio(self.total("cocycle.sliced_element"), factors), "us"),
            "cocycle.exp_inner.calls": (per_op(self.calls("cocycle.exp_inner")), "count/op"),
            "cocycle.exp_inner.self_s": (per_op(self.self_time("cocycle.exp_inner")), "s/op"),
            "reconstruct.probes": (per_op(probes), "count/op"),
            "reconstruct.probes_skipped": (per_op(c["reconstruct.probes_skipped"]), "count/op"),
            "reconstruct.live_ratio": (ratio(probes - c["reconstruct.probes_skipped"], probes), "ratio"),
            "reconstruct.make_probe.self_s": (per_op(self.self_time("reconstruct.make_probe")), "s/op"),
            "reconstruct.schur_criterion_check.self_s": (
                per_op(self.self_time("reconstruct.schur_criterion_check")), "s/op"),
            "reconstruct.us_per_probe": (1e6 * ratio(self.total("reconstruct.screen_family"), probes), "us"),
            "toyfock.oracle_matrix_element.self_s": (
                per_op(self.self_time("toyfock.oracle_matrix_element")), "s/op"),
            "toyfock.ns_per_slot": (
                1e9 * ratio(self.total("toyfock.oracle_matrix_element"), c["toyfock.slots"]), "ns"),
            "toyfock.oracle_state_norm.self_s": (per_op(self.self_time("toyfock.oracle_state_norm")), "s/op"),
            "toyfock.state_dim_max": (dim_max, "count"),
            "toyfock.state_mb_computed": (COMPLEX_BYTES * dim_max / 1e6, "MB"),
            "kernels.element_chain.self_s": (per_op(self.self_time("kernels.element_chain")), "s/op"),
            "kernels.slot_apply.self_s": (per_op(self.self_time("kernels.slot_apply")), "s/op"),
            "jsonio.load.self_s": (per_op(self.self_time("jsonio.load")), "s/op"),
            "cli.self_s": (per_op(self.self_time("cli")), "s/op"),
        }
