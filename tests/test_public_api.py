"""Every function, class and method in the library has a caller outside the
tests, and every CLI option is read by its subcommand."""

import argparse
import ast
import inspect
import pathlib
import textwrap

from convexspectra import cli

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
