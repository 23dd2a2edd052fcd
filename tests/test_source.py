"""Source hygiene checks over the ``ctmar`` package."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctmar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_modules_found():
    assert "simulate.py" in [p.name for p in MODULES]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_imports(scope):
    """The import statements in ``scope`` outside any function nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    """Every name an import binds is read in its scope: a module-level
    import somewhere in its module, an import inside a function in that
    function (nested functions and lambdas included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    unused = []
    for scope in scopes:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{name} (line {node.lineno})")
    assert not unused, f"{path.name} imports names it never uses: {', '.join(sorted(unused))}"


def module_level_names(tree):
    """The names a module's top-level statements bind by assignment, def or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_dead_private_names(path):
    """Every module-level ``_name`` is read somewhere in the package, as a
    name or as a module attribute (``tio._atomic_write``)."""
    read = set()
    for module in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    dead = sorted({name for name in module_level_names(tree)
                   if name.startswith("_") and not name.startswith("__") and name not in read})
    assert not dead, f"{path.name} defines private names nothing reads: {', '.join(dead)}"


def test_exceptions_reach_the_cli_as_one_line():
    """Every exception class ``ctmar`` defines derives from ValueError or
    RuntimeError, the classes ``cli.main`` reports as one ``error:`` line,
    so a new error type cannot reach a user as a traceback."""
    defined = [obj for path in MODULES
               for obj in vars(importlib.import_module(f"ctmar.{path.stem}")).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"ctmar.{path.stem}"]
    assert len(defined) >= 6
    leaks = [f"{cls.__module__}.{cls.__name__}" for cls in defined
             if not issubclass(cls, (ValueError, RuntimeError))]
    assert not leaks, f"exception classes cli.main does not report: {', '.join(leaks)}"
