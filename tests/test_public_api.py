"""Every public function has a caller outside the tests."""

import ast
import inspect
import pathlib

import convexspectra

ROOT = pathlib.Path(__file__).resolve().parent.parent

# only tests reach these until `spectrum-check --points` gives them a caller
# (ROADMAP item 14)
TEST_ONLY = {"dual_lattice", "parseval_deficiency"}


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


def test_every_public_function_has_a_caller_outside_the_tests():
    files = [p for p in sorted((ROOT / "src" / "convexspectra").glob("*.py"))
             if p.name != "__init__.py"]
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")]
    used = set().union(*map(_references, files))
    public = {name for name in convexspectra.__all__
              if inspect.isfunction(getattr(convexspectra, name))}
    assert TEST_ONLY <= public
    assert sorted(public - used - TEST_ONLY) == []
    assert sorted(TEST_ONLY & used) == [], "give up the allowance once used"
