"""Every function, class and method in the library has a caller outside the
tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _references(path: pathlib.Path) -> set[str]:
    """Names the file loads, reads as attributes or spells as a whole string
    constant (perfbench/spans.py wraps functions by name); a def is none."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _definitions(path: pathlib.Path) -> set[str]:
    """Top-level functions and classes, and the methods of those classes
    except the dunders Python calls itself."""
    defs = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.add(node.name)
        if isinstance(node, ast.ClassDef):
            defs.update(sub.name for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))
    return defs


def test_every_public_function_has_a_caller_outside_the_tests():
    src = sorted((ROOT / "src" / "convexspectra").glob("*.py"))
    files = [p for p in src if p.name != "__init__.py"]
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")]
    used = set().union(*map(_references, files))
    defined = set().union(*map(_definitions, src))
    assert sorted(defined - used) == []
