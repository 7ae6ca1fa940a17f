"""Package hygiene: every public name and every name the benchmark tracer
wraps resolves, no module imports a name it never uses, no function assigns a
local it never reads, no guard lets NaN through a comparison with a number,
and no module reads another package module's private names, only the
semigroup module exponentiates or builds the coordinate cells, only the
modules that cache semigroups name ``SemigroupFamily``, only the cocycle
sweep and the Schur screen build one (so a cache lives for one call), only
the sweep and the single-probe Schur check read it through ``factors``,
``q_stack`` is the one public map to Q, only ``mat_exp_stack`` evaluates the
Pade approximant, only ``make_probe`` builds a Schur probe, only the random
models and the Schur screen draw random numbers, and only ``opcore`` checks
counts (it alone imports ``operator``, for ``check_count``) and refuses a
count under its bound or an array where one time is expected.
Only ``jsonio`` imports ``gc``, to pause the collector while a file is
decoded, never around numerical code.  The CLI builds and evolves a model
with numpy as its only third-party package, as ``pyproject.toml`` declares."""

import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qscocycle
from qscocycle import StepFunction, jsonio

PACKAGE = Path(qscocycle.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a function's own body, not of the functions or classes in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source: str) -> list[str]:
    """``function.name`` for each name a function assigns and never reads.

    A read anywhere in the function counts, nested functions included, since
    they may close over it; ``_`` and global or nonlocal names are exempt.
    """
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, _SCOPES):
            continue
        own = list(_own_nodes(scope))
        exempt = {"_"}.union(*(n.names for n in own if isinstance(n, (ast.Global, ast.Nonlocal))))
        stored = [n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        label = getattr(scope, "name", "<lambda>")
        found += [f"{label}.{name}" for name in sorted(set(stored))
                  if name not in read and name not in exempt]
    return found


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def nan_blind_guards(source: str) -> list[int]:
    """Lines of each ``if`` that raises and tests ``x < k`` or ``x <= k`` for
    a numeric literal k.

    Every comparison with NaN is false, so such a guard lets NaN through;
    ``not x >= k`` (or ``not 0 <= x < inf``) rejects it.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        if any(
            isinstance(op, (ast.Lt, ast.LtE)) and _is_number(right)
            for cmp in ast.walk(node.test) if isinstance(cmp, ast.Compare)
            for op, right in zip(cmp.ops, cmp.comparators)
        ):
            found.append(node.lineno)
    return found


def private_reads(source: str) -> list[str]:
    """Underscore-prefixed names that ``source`` reads from other package
    modules: ``module._name`` after ``from . import module``, and
    ``from .module import _name``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    found += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    return found


def mentions(source: str, name: str) -> bool:
    """Whether ``source`` imports (under any alias), defines, assigns or reads
    ``name``, as a plain name or an attribute; strings do not count."""
    return any(
        name in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
        for node in ast.walk(ast.parse(source))
    )


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules that ``source`` imports absolutely,
    by ``import m`` or ``from m import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def shifted_eyes(source: str) -> list[int]:
    """Lines of each ``eye`` call with diagonal offset k = -1, given by keyword
    or as the third argument: the rows 0, e_1, ..., e_n of the coordinate cells."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "func", None)
        if "eye" not in (getattr(name, "attr", None), getattr(name, "id", None)):
            continue
        for k in [kw.value for kw in node.keywords if kw.arg == "k"] + node.args[2:3]:
            try:
                if ast.literal_eval(k) == -1:
                    found.append(node.lineno)
            except ValueError:
                pass
    return found


# A count-bound or single-time refusal: ">= 1", ">= {low}", "positive integer"
# or "single time" in the expression of a raise statement.
BOUND_REFUSAL = re.compile(r">= ?[\d{]|positive integer|single time")


def bound_refusals(source: str) -> list[int]:
    """Line numbers of the ``raise`` statements whose source matches ``BOUND_REFUSAL``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None
            and BOUND_REFUSAL.search(ast.unparse(node.exc))]


def call_scopes(source: str, name: str) -> list[str]:
    """The scope of each ``name(...)`` call: the name of the function or class
    whose own body makes it, or ``<module>``."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, (*_SCOPES, ast.ClassDef)))]:
        for node in _own_nodes(scope):
            func = getattr(node, "func", None)
            if name in (getattr(func, "attr", None), getattr(func, "id", None)):
                found.append(getattr(scope, "name", "<module>"))
    return found


def method_calls(source: str, attr: str) -> list[str]:
    """The top-level function, or method of a top-level class, whose body
    (nested functions included) makes each ``x.attr(...)`` call, or
    ``<module>``."""
    found = []
    for node in ast.parse(source).body:
        for scope in node.body if isinstance(node, ast.ClassDef) else [node]:
            found += [getattr(scope, "name", "<module>") for call in ast.walk(scope)
                      if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == attr]
    return found


def test_public_names_resolve():
    assert [name for name in qscocycle.__all__ if not hasattr(qscocycle, name)] == []


def test_all_lists_every_public_name():
    # The converse of test_public_names_resolve: a name dropped from
    # ``__all__`` but still imported by the package, or imported and never
    # listed, fails here.  Imported submodules are attributes, not exports.
    public = [
        name for name, value in vars(qscocycle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(qscocycle.__all__) == sorted(public)


def test_traced_names_resolve():
    # ``Tracer.install`` skips a name it cannot find without an error, so a
    # renamed or deleted boundary would silently drop out of the per-layer
    # metrics.  ``run_path`` compiles the file in memory and caches nothing.
    missing = []
    for module_name, attr, _, _ in runpy.run_path(str(TRACING))["SPANS"]:
        module = importlib.import_module(f"qscocycle.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


# ``python -m qscocycle ARGS`` in an interpreter where importing scipy or
# hypothesis (the test extras) fails.
NUMPY_ONLY = """
import runpy, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None
sys.argv = ["qscocycle", *sys.argv[1:]]
runpy.run_module("qscocycle", run_name="__main__", alter_sys=True)
"""


def test_cli_runs_on_numpy_alone(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"format": 1, "model": "random", "dim_h": 2, "dim_k": 1, "seed": 0}))
    jsonio.save_step(StepFunction([0.0, 0.5], [[0.5], [-0.25j]], 1.0), tmp_path / "f.json")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    for argv in (["build", "spec.json", "--out", "gen.json"],
                 ["evolve", "gen.json", "f.json", "f.json", "--t", "1.0", "--grid", "4", "--out", "ev.csv"]):
        proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert len((tmp_path / "ev.csv").read_text().splitlines()) == 6


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


def test_dead_local_is_found():
    source = (
        "def f(x):\n"
        "    a, b = x\n"
        "    for _ in a:\n"
        "        c = 1\n"
        "    def g():\n"
        "        return a\n"
        "    return g\n"
        "def h():\n"
        "    global d\n"
        "    d = 2\n"
    )
    assert dead_locals(source) == ["f.b", "f.c"]


def test_nan_blind_guard_is_found():
    source = (
        "def f(t, xs, n):\n"
        "    if t < 0:\n"
        "        raise ValueError(t)\n"
        "    if np.any(np.diff(xs) <= 0.0):\n"
        "        raise ValueError(xs)\n"
        "    if not 0 <= t < np.inf:\n"
        "        raise ValueError(t)\n"
        "    if not n >= 0:\n"
        "        raise ValueError(n)\n"
        "    if n < 1:\n"
        "        raise ValueError(n)\n"
        "    if t < 0:\n"
        "        t = 0\n"
        "    return t\n"
    )
    assert nan_blind_guards(source) == [2, 4, 10]


def test_private_read_is_found():
    source = "from . import a, b as c\nfrom .d import _e, f\na._x\nc._y\nc.z\nobj._w\n"
    assert private_reads(source) == ["d._e", "a._x", "c._y"]


def test_mention_is_found():
    sources = (
        "from .opcore import mat_exp as expm\n",
        "from . import opcore\nopcore.mat_exp(a)\n",
        "def mat_exp(a):\n    return a\n",
        "'uses no mat_exp'\nexpm(a)\n",
    )
    assert [mentions(s, "mat_exp") for s in sources] == [True, True, True, False]


def test_imported_module_is_found():
    source = "import os.path, operator as op\nfrom math import inf\nfrom . import opcore\nfrom .a import b\n"
    assert imported_modules(source) == {"os", "operator", "math"}


def test_bound_refusal_is_found():
    source = (
        "raise ValueError(f'{name} must be >= {low}, got {value}')\n"
        "raise ValueError('N must be >= 1')\n"
        "raise ValueError('n must be a positive integer')\n"
        "raise ValueError(f't must be a single time, got {shape}')\n"
        "raise ValueError(f'support_end {end} must be >= last breakpoint')\n"
        "message = 'dim must be >= 2'\n"
        "raise\n"
    )
    assert bound_refusals(source) == [1, 2, 3, 4]


def test_shifted_eye_is_found():
    source = (
        "np.eye(3, 2, k=-1)\n"
        "np.eye(3, 2, -1, dtype=complex)\n"
        "eye(n + 1, n, k=-1)\n"
        "np.eye(3, k=1)\n"
        "np.eye(3, 2, k=shift)\n"
        "np.eye(3)\n"
    )
    assert shifted_eyes(source) == [1, 2, 3]


def test_family_build_is_found():
    source = (
        "fam = SemigroupFamily(F)\n"
        "def f(F):\n"
        "    def g():\n"
        "        return semigroups.SemigroupFamily(F)\n"
        "    return SemigroupFamily\n"
        "class A:\n"
        "    def q(self):\n"
        "        return SemigroupFamily(self.F).factors\n"
        "'SemigroupFamily(F)'\n"
    )
    assert call_scopes(source, "SemigroupFamily") == ["<module>", "g", "q"]


def test_method_call_is_found():
    source = (
        "fam.factors(c, d, t)\n"
        "def f(fam):\n"
        "    def g():\n"
        "        return fam.factors(c, d, t)\n"
        "    return factors(c, d, t), fam.factors\n"
        "class A:\n"
        "    def q(self):\n"
        "        return self.fam.factors(c, d, t)\n"
    )
    assert method_calls(source, "factors") == ["<module>", "f", "q"]


def test_only_semigroups_build_the_coordinate_cells():
    # semigroups.coordinate_cells is the one place {0, e_1, ..., e_dk} is built.
    found = sorted(p.stem for p in PACKAGE.glob("*.py") if shifted_eyes(p.read_text()))
    assert found == ["semigroups"]


def test_only_opcore_checks_counts():
    # opcore.check_count is the one place a count goes through operator.index,
    # and opcore (check_count and check_time) the one that refuses a count
    # under its bound or an array where one time is expected.
    found = sorted(
        p.stem for p in PACKAGE.glob("*.py") if "operator" in imported_modules(p.read_text())
    )
    assert found == ["opcore"]
    refusing = sorted(p.stem for p in PACKAGE.glob("*.py") if bound_refusals(p.read_text()))
    assert refusing == ["opcore"]


def test_only_jsonio_imports_gc():
    # The loaders pause the cyclic collector while a file is decoded; no
    # numerical code may run with it paused, or switch it at all.
    found = sorted(p.stem for p in PACKAGE.glob("*.py") if "gc" in imported_modules(p.read_text()))
    assert found == ["jsonio"]


def test_only_semigroup_caches_name_the_family():
    # The cocycle product and the single-probe Schur check read cached Q;
    # tk, dual, coords and the Schur groups read stacks through q_stack.
    found = sorted(
        p.stem for p in PACKAGE.glob("*.py") if mentions(p.read_text(), "SemigroupFamily")
    )
    assert found == ["__init__", "cocycle", "reconstruct", "semigroups"]


def test_one_key_path_into_the_family():
    # SemigroupFamily.slice_generators cuts every cache key, for factors and q
    # alike, so the key format lives in one method.
    found = sorted({
        f"{p.stem}.{name}" for p in PACKAGE.glob("*.py") for name in call_scopes(p.read_text(), "tobytes")
    })
    assert found == ["semigroups.slice_generators"]


def test_one_public_q():
    # q_stack is the package's one map (c, d, t) -> Q.  A family keeps only
    # its cache seam, which the cocycle sweep and the single-probe Schur check
    # read through factors.
    family = qscocycle.SemigroupFamily(qscocycle.random_contractive(2, 1, seed=0))
    assert [name for name in dir(family) if not name.startswith("_")] == ["factors", "slice_generators", "source"]
    assert "q_stack" in qscocycle.__all__
    found = {
        attr: sorted(f"{p.stem}.{name}" for p in PACKAGE.glob("*.py") for name in method_calls(p.read_text(), attr))
        for attr in ("factors", "q")
    }
    assert found == {"factors": ["cocycle.sliced_element", "reconstruct.schur_criterion_check"], "q": []}


def test_only_the_sweep_and_the_screen_build_a_family():
    # A SemigroupFamily caches Q for one call: the cocycle product's sweep, or
    # the core probes of one Schur screen.  No family is shared across calls.
    found = sorted(
        f"{p.stem}.{name}" for p in PACKAGE.glob("*.py")
        for name in call_scopes(p.read_text(), "SemigroupFamily")
    )
    assert found == ["cocycle.sliced_element", "reconstruct.screen_family"]


def test_only_make_probe_builds_a_probe():
    # A probe is a row of a per-n stack below schur_criterion_check; a Probe
    # object is made, validated and rescaled in make_probe alone.
    found = sorted(
        f"{p.stem}.{name}" for p in PACKAGE.glob("*.py") for name in call_scopes(p.read_text(), "Probe")
    )
    assert found == ["reconstruct.make_probe"]


def test_one_exponential_path():
    # mat_exp is mat_exp_stack of one matrix: the Pade approximant, and so
    # every scaling and squaring, is reached from mat_exp_stack alone.
    found = sorted(
        f"{p.stem}.{name}" for p in PACKAGE.glob("*.py") for name in call_scopes(p.read_text(), "_pade_approx")
    )
    assert found == ["opcore.mat_exp_stack"]


def test_only_semigroups_exponentiate():
    # Q is the only semigroup in the package: opcore defines mat_exp and its
    # stacked form, SemigroupFamily and q_stack form exp(t G_{c,d}) with
    # them, and __init__ re-exports mat_exp.
    found = {
        name: sorted(p.stem for p in PACKAGE.glob("*.py") if mentions(p.read_text(), name))
        for name in ("mat_exp", "mat_exp_stack")
    }
    assert found == {"mat_exp": ["__init__", "opcore", "semigroups"], "mat_exp_stack": ["opcore", "semigroups"]}


def test_only_random_models_and_the_schur_screen_draw():
    # Every other verdict is exact: models seeds random_contractive, and
    # reconstruct draws the Schur screen's probes.
    found = sorted(p.stem for p in PACKAGE.glob("*.py") if mentions(p.read_text(), "default_rng"))
    assert found == ["models", "reconstruct"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_dead_locals(module):
    assert dead_locals((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_nan_blind_guards(module):
    assert nan_blind_guards((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_private_reads_across_modules(module):
    assert private_reads((PACKAGE / module).read_text()) == []
