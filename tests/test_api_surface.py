"""The public names other code relies on: the benchmark tracer's spans and
load factories, `anfem.__all__`, and the imports of the shipped scripts;
only a load takes a viscosity; and the package's source holds no `assert`
statement, no unused import and no annotation that names an unbound
class."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from functools import cached_property
from pathlib import Path

import pytest

import anfem

ROOT = Path(__file__).resolve().parents[1]

DELETED = ("MarkingParams", "ContractionParams", "FineFunction", "patches",
           "reentrant_corner", "edge_mean", "broken_l2_error_sq",
           "l2_norm_sq", "energy_norm_sq", "broken_div_norm_sq",
           "compute_stress", "eta_K", "oscillation", "eta_set",
           "error_rate_fit", "edge_dof_map", "_local_dofs",
           "_exact_velocity_inner", "_exact_pressure_inner",
           "_lshape_singular_callables", "_smooth1_callables",
           "_add_mode", "_mode_partial", "_corner_tables", "_mode_matrix",
           "_CORNER_COEF", "rotational_load", "MIDPOINT_WEIGHTS",
           "_lshape_pressure_mean", "MIDPOINT_BARY",
           "discrete_reliability_check", "marking_threshold_check",
           "residual_functional", "pairing_constant", "_pairing",
           "write_mesh", "p1_to_cr", "contraction_monitor", "zero_load",
           "cr_values", "broken_div", "classify_fine_edges",
           "coarse_jump_term", "cmd_verify", "EXIT_VERIFY_FAILED",
           "_suite_operators", "_suite_estimator", "_suite_qo",
           "_suite_counterexample", "estimator_from_grads",
           "refinement_ratio", "values_at", "modified_eta",
           "edge_means_of_field", "MarkingError", "interior_dofs",
           "gauss_edge", "consistency_error", "EXIT_TRUNCATED")
# (class, attribute) pairs deleted from the public classes
DELETED_MEMBERS = (("counterexample.CrissCrossFamily", "coarse"),
                   ("mesh.Triangulation", "min_angle"),
                   ("mesh.Triangulation", "level"),
                   ("mesh.Triangulation", "root"),
                   ("mesh.Triangulation", "edge_normal"),
                   ("mesh.NestingSets", "common"),
                   ("mesh.NestingSets", "region_c"),
                   ("adaptive.LoopParams", "reduction_slack"),
                   ("adaptive.AdaptiveTrace", "final_mesh"),
                   ("estimator.EstimatorReport", "beta1"),
                   ("estimator.EstimatorReport", "volume"),
                   ("estimator.EstimatorReport", "jump_sq"),
                   ("estimator.EstimatorReport", "to_csv"),
                   ("spaces.DiscreteSolution", "velocity_coeffs"),
                   ("spaces.SaddleSystem", "load"),
                   ("spaces.SaddleSystem", "nu"),
                   ("problems.LoadFunction", "name"),
                   ("estimator.EstimatorReport", "mesh"),
                   ("problems.LoadFunction", "stress"),
                   ("adaptive.LoopParams", "mu"),
                   ("spaces.SaddleSystem", "mu"),
                   ("spaces.DiscreteSolution", "mu"),
                   ("adaptive.LoopParams", "beta1"),
                   ("adaptive.LoopParams", "gamma1"),
                   ("adaptive.LoopParams", "gamma2"),
                   ("estimator.EstimatorReport", "total_eta_sq"),
                   ("estimator.EstimatorReport", "total_osc_sq"),
                   ("estimator.EstimatorReport", "total_vol_sq"),
                   ("problems.PointValues", "at_points"),
                   ("problems.PointValues", "volume_terms"),
                   ("adaptive.AdaptiveTrace", "truncated"))
# the constructors of a load: the only public callables or dataclasses that
# take or hold a viscosity `mu`, as the load is its one owner
LOAD_CONSTRUCTORS = {"LoadFunction", "smooth1", "lshape_singular",
                     "constant_load", "get_solution"}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load(ROOT / "perfbench" / "tracer.py", "_anfem_tracer_probe")
    for module_name, attr, _, _ in tracer.SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"
    for attr in tracer.LOAD_FACTORIES:
        assert callable(getattr(anfem.problems, attr)), attr


def test_all_resolves_without_deleted_names():
    for name in anfem.__all__:
        assert hasattr(anfem, name), name
    assert not set(DELETED) & set(anfem.__all__)
    modules = ("adaptive", "cli", "counterexample", "domains", "estimator",
               "mesh", "problems", "quadrature", "spaces", "transfer")
    for mod in modules:
        module = importlib.import_module(f"anfem.{mod}")
        for name in DELETED:
            assert not hasattr(module, name), f"anfem.{mod}.{name}"
    for owner, name in DELETED_MEMBERS:
        module, cls = owner.split(".")
        cls = getattr(importlib.import_module(f"anfem.{module}"), cls)
        assert not hasattr(cls, name), f"{owner}.{name}"
        # a dataclass field without a default is no class attribute
        if dataclasses.is_dataclass(cls):
            assert name not in {f.name for f in dataclasses.fields(cls)}, name


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_imports(script):
    # loaded under a name other than __main__, so main() does not run
    module = _load(ROOT / "scripts" / script, f"_anfem_script_{script[:-3]}")
    assert callable(module.main)


def _public_members():
    """(qualified name, object) of each public function, class and method
    the package's modules define."""
    for info in pkgutil.iter_modules(anfem.__path__):
        module = importlib.import_module(f"anfem.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            yield name, obj
            if inspect.isclass(obj):
                yield from ((f"{name}.{attr}", member)
                            for attr, member in vars(obj).items()
                            if not attr.startswith("_")
                            and inspect.isfunction(member))


def test_only_a_load_takes_a_viscosity():
    """No public function, method or dataclass of the package takes a
    parameter or holds a field named `mu` except the load constructors, so
    a run cannot state a second viscosity that disagrees with its load's."""
    found = set()
    for name, obj in _public_members():
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue        # no signature to read; takes a message only
        if callable(obj) and "mu" in inspect.signature(obj).parameters:
            found.add(name)
        if dataclasses.is_dataclass(obj) and "mu" in {
                f.name for f in dataclasses.fields(obj)}:
            found.add(name)
    assert found == LOAD_CONSTRUCTORS


def test_runtime_does_not_import_sympy():
    """sympy is a test-only oracle: building both manufactured solutions and
    evaluating them imports none of it."""
    code = ("import sys, anfem\n"
            "from anfem.problems import lshape_singular\n"
            "for load in (lshape_singular(), anfem.smooth1()):\n"
            "    load.g(0.5, 0.25), load.grad_velocity(0.5, 0.25)\n"
            "assert 'sympy' not in sys.modules, 'sympy imported'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_has_no_assert_statements():
    """`python -O` strips `assert`, so every invariant check in the package
    raises explicitly and runs under any interpreter flag."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "anfem").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_package_has_no_unused_imports():
    """Every name a module of the package imports is used in it. The
    package's `__init__.py` imports to re-export, so it is not checked."""
    found = []
    for path in sorted((ROOT / "src" / "anfem").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def _annotated(cls):
    """The functions of a class's own methods and properties."""
    for member in vars(cls).values():
        if isinstance(member, (staticmethod, classmethod)):
            yield member.__func__
        elif isinstance(member, property):
            yield from (f for f in (member.fget, member.fset) if f)
        elif isinstance(member, cached_property):
            yield member.func
        elif inspect.isfunction(member):
            yield member


def test_annotations_resolve():
    """With `from __future__ import annotations` no annotation is evaluated
    on import, so one that names a class its module does not bind would
    pass every other test: resolve them all."""
    checked = []
    for info in pkgutil.iter_modules(anfem.__path__):
        module = importlib.import_module(f"anfem.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                checked += [obj, *_annotated(obj)]
            elif inspect.isfunction(obj):
                checked.append(obj)
    for obj in checked:
        typing.get_type_hints(obj)
    assert len(checked) > 100
