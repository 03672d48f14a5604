"""Every function, class, method and module-level constant in the library has
a reader outside the tests, and every CLI option is read by its subcommand."""

import argparse
import ast
import inspect
import pathlib
import textwrap

from convexspectra import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _references(path: pathlib.Path) -> set[str]:
    """Names the file loads, reads as attributes or spells as a whole string
    constant (perfbench/spans.py wraps functions by name); a def or an
    assignment is none."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def _constants(path: pathlib.Path) -> set[str]:
    """Names assigned at the top level, except dunders such as __all__."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


SRC = sorted((ROOT / "src" / "convexspectra").glob("*.py"))
# the library without its re-exports, and the benchmark without its tests
READERS = [p for p in SRC if p.name != "__init__.py"] + [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]


def test_every_public_function_has_a_caller_outside_the_tests():
    used = set().union(*map(_references, READERS))
    defined = set().union(*map(_definitions, SRC))
    assert sorted(defined - used) == []


def test_every_constant_has_a_reader_outside_the_tests():
    used = set().union(*map(_references, READERS))
    defined = set().union(*map(_constants, SRC))
    assert sorted(defined - used) == []


def _args_read(func) -> set[str]:
    """The attributes a handler reads from its `args` parameter."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_cli_option_is_read_by_its_command():
    # an option its handler never reads is a knob that does nothing, and a
    # read of an option the subcommand does not define fails only when run
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 11
    for name, sp in sub.choices.items():
        options = {a.dest for a in sp._actions if a.dest != "help"} - {"body", "out"}
        assert _args_read(sp.get_default("func")) == options, name
