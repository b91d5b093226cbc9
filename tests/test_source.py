"""Rules about the package source itself."""

import ast
import importlib
from pathlib import Path

import kripkit

PUBLIC = [
    "Formula",
    "ParseError",
    "LanguageError",
    "parse",
    "print_formula",
    "godel_translate",
    "star_translate",
    "corpus",
    "Relation",
    "IntFrame",
    "MS4Frame",
    "BoundExceeded",
    "InvalidFrameError",
    "validate_int_frame",
    "validate_ms4_frame",
    "er",
    "qe",
    "has_clean_clusters",
    "grz_max_check",
    "is_finite_mgrz",
    "Valuation",
    "Countermodel",
    "truth_set",
    "frame_validates",
    "countermodel",
    "QuotientMap",
    "skeleton",
    "skeleton_map",
    "sigma",
    "FrameMap",
    "is_p_morphism",
    "is_mipc_morphism",
    "condition4_eform",
    "is_ms4_morphism",
    "is_reduction",
    "enumerate_reductions",
    "lift_reduction",
    "EnumerationConfig",
    "enumerate_frames",
    "ExperimentReport",
    "experiment_ids",
    "run_experiment",
    "run_all",
    "load_frame",
    "save_frame",
    "__version__",
]


def test_source_has_no_assert():
    # `python -O` strips assert statements, so contract checks must raise.
    found = []
    for path in sorted(Path(kripkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_no_function_local_imports():
    # Imports belong at module top.  The one exception is a real cycle:
    # functors imports morphisms, so lift_reduction imports sigma at call time.
    allowed = {("morphisms.py", "lift_reduction", "from .functors import sigma")}
    found = set()
    for path in sorted(Path(kripkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.add((path.name, func.name, ast.unparse(node)))
    assert found == allowed


def test_no_private_imports_across_modules():
    # A module uses another's `_` names only where listed here; a new
    # reach-in must be added to this list, or made public.
    allowed = {
        ("functors.py", "morphisms", "_image_of"),
        ("morphisms.py", "frames", "_check_mask"),
        ("workbench.py", "morphisms", "_lift"),
        ("workbench.py", "morphisms", "_may_reduce"),
        ("workbench.py", "morphisms", "_reduction_shape"),
        ("workbench.py", "morphisms", "_rows_match"),
    }
    found = set()
    for path in sorted(Path(kripkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found |= {
                    (path.name, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                }
    assert found == allowed


def test_public_surface():
    assert kripkit.__all__ == PUBLIC
    assert all(hasattr(kripkit, name) for name in kripkit.__all__)
    # The benchmark's tracer patches these names in their defining modules.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"kripkit.{layer}"), name)
    ]
    assert not missing, missing


def test_syntax_passes_do_not_recurse():
    # Formulas built in Python have no depth cap, so a pass over one must
    # walk with an explicit stack.  The recursions allowed are bounded:
    # `_Parser.unary` by MAX_NESTING, `random_formula` by its `max_depth`,
    # and `_corpus` goes one level down.
    allowed = {"_Parser.unary", "random_formula", "_corpus"}
    path = Path(kripkit.__file__).parent / "syntax.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    # (qualified name, definition, how a call to itself is written)
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node, node.name))
        elif isinstance(node, ast.ClassDef):
            functions += [
                (f"{node.name}.{method.name}", method, f"self.{method.name}")
                for method in node.body
                if isinstance(method, ast.FunctionDef)
            ]
    found = {
        name
        for name, func, itself in functions
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == itself
    }
    assert found == allowed
