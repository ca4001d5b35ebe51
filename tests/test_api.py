"""The public API: ``armcal.__all__`` is spelled out here so any change shows in a diff.

Also the import rules: the package imports only the standard library and numpy, and each
module uses every name it imports; the README's table of error codes is the set the
package and the command line can print; each checked constructor keeps its own copies
of the arrays its caller can write and shares read-only ones; no module builds an
object past its constructor's checks but ``forward_kinematics``; only ``Study`` orders rows by key;
and only ``estimator._factor`` calls a numpy factorization or names ``LinAlgError``.
"""

import ast
import importlib
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import armcal
from armcal import errors

PUBLIC_API = [
    "BucketMatchError",
    "CalibrationError",
    "ComplianceParameterMap",
    "ComplianceVector",
    "DEFAULT_SIGMA0",
    "EstimationResult",
    "IterationSnapshot",
    "Joint",
    "ManipulatorModel",
    "MeasurementFormatError",
    "MissingNoiseError",
    "ModelFormatError",
    "MonteCarloReport",
    "NoiseFormatError",
    "NoiseModel",
    "Pose",
    "RankDeficientError",
    "ReplicateCountError",
    "StackedSystem",
    "Study",
    "StudyDesign",
    "build_sigma",
    "elastostatic_regressor",
    "forward_kinematics",
    "irls",
    "joint_jacobian",
    "monte_carlo_compare",
    "ols_estimate",
    "optimal_weights",
    "parameter_jacobian",
    "perturbed",
    "robust_weights",
    "simulate_measurements",
    "stack_system",
    "transform",
    "wls_estimate",
]


def test_public_names_are_exactly_the_listed_ones():
    assert len(PUBLIC_API) == 36
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(armcal.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in armcal.__all__:
        assert getattr(armcal, name, None) is not None, name


def test_readme_errors_table_lists_exactly_the_codes_printed():
    # every concrete CalibrationError's code, and the command line's own E_USAGE, E_IO and E_MEMORY, once each
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n### Errors\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `(E_[A-Z_]+)` \|", table, flags=re.MULTILINE)
    raised = [cls.code for cls in vars(errors).values() if isinstance(cls, type)
              and issubclass(cls, errors.CalibrationError) and cls is not errors.CalibrationError]
    assert sorted(listed) == sorted(raised + ["E_USAGE", "E_IO", "E_MEMORY"])


CHECKED_INPUTS = {  # each checked constructor with input arrays its caller can still write
    "Study": lambda: (armcal.Study, dict(
        config=np.array([1]), marker=np.array([0]), rep=np.array([0]), q=np.zeros((1, 6)),
        force=np.array([[0.0, 0.0, -9.8]]), fmarker=np.array([0]), p0=np.zeros((1, 3)), p=np.ones((1, 3)))),
    "NoiseModel": lambda: (armcal.NoiseModel, dict(
        config=np.array([2, 1]), sigma=np.ones((2, 3)), se=np.full((2, 3), 0.5))),
    "ManipulatorModel": lambda: (armcal.ManipulatorModel, dict(
        joints=(armcal.Joint("revolute", 0.1, 0.0, 0.0, 0.0),), base=np.eye(4), tool=np.eye(4),
        markers=(np.zeros(3), np.ones(3)))),
    "Pose": lambda: (armcal.Pose, dict(position=np.zeros(3), rotation=np.eye(3))),
    "ComplianceVector": lambda: (armcal.ComplianceVector, dict(values=np.array([1.0, 2.0]))),
    "StudyDesign": lambda: (armcal.StudyDesign, dict(
        configurations=(np.zeros(6), np.ones(6)), cmap=armcal.ComplianceParameterMap(tail_joints=(0,)),
        noise=armcal.NoiseModel.uniform([1, 2], 1e-5), ground_truth=armcal.ComplianceVector([1e-6]))),
    "StackedSystem": lambda: (armcal.StackedSystem, dict(
        B=np.ones((3, 1)), dp=np.zeros(6), sigma=np.ones(3), config=np.ones(3, dtype=int),
        marker=np.zeros(3, dtype=int), axis=np.arange(3), columns=("k1",), row_class=np.tile(np.arange(3), 2))),
}


@pytest.mark.parametrize("name", CHECKED_INPUTS)
def test_checked_constructors_keep_their_own_copies(name):
    # the caller's arrays stay writeable, and writing them changes nothing in the object
    cls, kwargs = CHECKED_INPUTS[name]()
    obj = cls(**kwargs)
    given = {key: value if isinstance(value, tuple) else (value,) for key, value in kwargs.items()}
    given = {key: arrays for key, arrays in given.items() if isinstance(arrays[0], np.ndarray)}
    before = {key: np.array(getattr(obj, key)) for key in given}
    for arrays in given.values():
        for a in arrays:
            a += 1
    for key, value in before.items():
        assert_array_equal(np.array(getattr(obj, key)), value, err_msg=f"{name}.{key}")


def arrays_of(value) -> tuple:
    """``value`` as a tuple of its arrays: a tuple argument's items, or ``value`` alone."""
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", CHECKED_INPUTS)
def test_checked_constructors_copy_what_a_caller_can_write_and_share_the_rest(name):
    # a read-only view of an array its caller can still write is copied, so writing that array
    # changes nothing in the object; an input nobody can write, such as the object's own arrays, is shared
    cls, kwargs = CHECKED_INPUTS[name]()
    writable = {key: arrays_of(value) for key, value in kwargs.items() if isinstance(arrays_of(value)[0], np.ndarray)}
    for key, arrays in writable.items():
        views = tuple(a[...] for a in arrays)
        for view in views:
            view.setflags(write=False)
        kwargs[key] = views if isinstance(kwargs[key], tuple) else views[0]
    obj = cls(**kwargs)
    before = {key: [np.array(a) for a in arrays_of(getattr(obj, key))] for key in writable}
    for arrays in writable.values():
        for a in arrays:
            a += 1
    for key, values in before.items():
        for stored, value in zip(arrays_of(getattr(obj, key)), values, strict=True):
            assert_array_equal(stored, value, err_msg=f"{name}.{key}")
    again = replace(obj)
    for key in writable:
        for shared, stored in zip(arrays_of(getattr(again, key)), arrays_of(getattr(obj, key)), strict=True):
            assert np.shares_memory(shared, stored), f"{name}.{key}"


def imported_packages(source: str) -> set[str]:
    """Top-level names of every package that ``import`` and ``from ... import`` lines of ``source``
    name, ``armcal`` for relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("armcal" if node.level else node.module)
    return {name.partition(".")[0] for name in names}


def test_imported_packages_are_found_at_any_depth():
    source = "import os.path, numpy as np\nfrom . import x\ndef f():\n    from scipy.linalg import svd\n"
    assert imported_packages(source) == {"os", "numpy", "armcal", "scipy"}


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "armcal"}
    modules = sorted(Path(armcal.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        assert imported_packages(path.read_text(encoding="utf-8")) <= allowed, path.name


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never references, as ``line <n>: <name>``.  A name
    counts as referenced when it is read anywhere or listed in ``__all__``; an import on a line
    marked ``# noqa: F401`` is exempt, and so are ``__future__`` imports."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\nfrom .a import (\n    b,\n"
              "    c,  # noqa: F401\n)\nfrom .d import e\n__all__ = ['e']\nnp.zeros(os.sep)\n")
    assert unused_imports(source) == ["line 4: b"]


def test_package_modules_use_every_import():
    modules = sorted(Path(armcal.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def direct_new_calls(source: str) -> list[str]:
    """The innermost function around each call of some ``<name>.__new__(...)`` in ``source``, an
    object made without running its class's checks, in source order; ``<module>`` outside any."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "__new__":
                sites.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_direct_new_calls_are_found():
    source = ("x = object.__new__(A)\nclass B:\n    def f(self):\n        def g():\n"
              "            return B.__new__(B)\n        return g, object.__setattr__\n")
    assert direct_new_calls(source) == ["<module>", "g"]


def test_only_forward_kinematics_makes_an_object_past_its_checks():
    # forward_kinematics does not check the rotation it composes from a model's checked base and tool
    # again (tests/test_regressor.py::test_rotations_are_checked_where_they_enter); every other object
    # is made by its constructor
    modules = sorted(Path(armcal.__file__).parent.glob("*.py"))
    assert modules
    sites = {path.name: direct_new_calls(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: calls for name, calls in sites.items() if calls} == {"kinematics.py": ["forward_kinematics"]}


def name_sites(source: str, called=(), named=()) -> list[str]:
    """The top-level class or function around each call of a name in ``called`` (``np.lexsort(...)``,
    ``np.linalg.svd(...)`` or a bare ``svd(...)``) and each use of a name in ``named`` (``LinAlgError`` or
    ``np.linalg.LinAlgError``) in ``source``, in source order; ``<module>`` outside any."""
    found, name = [], lambda node: getattr(node, "attr", None) or getattr(node, "id", None)
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and name(node.func) in called) or name(node) in named:
                found.append(where)
    return found


def test_lexsort_calls_are_found():
    source = ("from numpy import lexsort\nk = lexsort((a,))\nclass S:\n    def f(self):\n"
              "        return np.lexsort((b, a))\ndef g():\n    return np.sort(a), np.lexsort\n")
    assert name_sites(source, called={"lexsort"}) == ["<module>", "S"]


def test_only_study_orders_rows():
    # a Study keeps its rows in (config, marker, rep) order, so no other code sorts a study again
    modules = sorted(Path(armcal.__file__).parent.glob("*.py"))
    assert modules
    found = {path.name: name_sites(path.read_text(encoding="utf-8"), called={"lexsort"}) for path in modules}
    assert {name: calls for name, calls in found.items() if calls} == {"regressor.py": ["Study"]}


#: The numpy factorizations, any of which can raise ``LinAlgError``.
FACTORIZATIONS = {"qr", "svd", "inv", "solve", "lstsq", "pinv", "cholesky"}


def test_solve_fault_sites_are_found():
    source = ("from numpy.linalg import LinAlgError, svd\nU = svd(a)\ndef f():\n    try:\n"
              "        return np.linalg.inv(a)\n    except np.linalg.LinAlgError:\n        raise LinAlgError('x')\n"
              "class S:\n    solver = np.linalg.qr\ndef g():\n    return np.linalg.det(a), _solve(a)\n")
    assert name_sites(source, FACTORIZATIONS, {"LinAlgError"}) == ["<module>", "f", "f", "f"]


def test_only_factor_factorizes():
    # one solve path: every factorization, and every LinAlgError it can raise, is in estimator._factor,
    # which turns each trial's fault into that trial's RankDeficientError
    modules = sorted(Path(armcal.__file__).parent.glob("*.py"))
    assert modules
    found = {path.name: name_sites(path.read_text(encoding="utf-8"), FACTORIZATIONS, {"LinAlgError"})
             for path in modules}
    assert {name: set(where) for name, where in found.items() if where} == {"estimator.py": {"_factor"}}


def traced_targets() -> dict[str, tuple[str, ...]]:
    """The ``TARGETS`` literal of ``bench/tracing.py``: the functions the benchmark wraps, per module."""
    source = (Path(__file__).parents[1] / "bench" / "tracing.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no TARGETS")


def test_benchmark_traced_names_exist():
    # a traced name the package lost stops the benchmark's --trace run with AttributeError
    targets = traced_targets()
    assert targets
    for module, names in targets.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"armcal.{module}"), name, None)), f"{module}.{name}"
