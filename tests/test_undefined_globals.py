"""Every global a function reads is bound, every import is read, and
every private helper is used.

Stdlib stand-ins for linter checks, so tier-1 catches what would
otherwise wait for CI (or never come):

* undefined names (pyflakes F821), which only fail when their line
  finally runs: each ``src/repro/**/*.py`` is compiled to its symbol
  tables, and every name any scope reads as a global must be assigned,
  imported, defined or declared ``global`` and assigned in that module,
  or be a builtin;
* unused imports (pyflakes F401): every module-level import, those under
  ``if TYPE_CHECKING:`` included, must bind a name the module reads,
  in code or in a string annotation. Package ``__init__.py`` files, names
  listed in ``__all__`` and lines marked ``# noqa: F401`` are exempt;
* orphaned private helpers: every module-level function, class or
  assignment whose name starts with ``_`` (dunders aside) must be read
  in its own module or imported by another ``src/repro`` module;
* the environment knobs: the ``REPRO_*`` names that string literals
  under ``src/repro`` spell are exactly the fault injector's two, so a
  new environment variable shows up as an edit to this file.
"""

from __future__ import annotations

import ast
import builtins
import functools
import pathlib
import re
import symtable

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

_MODULE_NAMES = frozenset(dir(builtins)) | {
    "__file__", "__name__", "__doc__", "__spec__", "__loader__",
    "__package__", "__path__", "__builtins__",
}


def _tables(table: symtable.SymbolTable):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def undefined_globals(source: str, filename: str) -> list[str]:
    """``scope: name`` for every global read that nothing binds."""
    top = symtable.symtable(source, filename, "exec")
    tables = list(_tables(top))
    bound = set(_MODULE_NAMES)
    for table in tables:
        for symbol in table.get_symbols():
            if table is top and (symbol.is_assigned() or symbol.is_imported()):
                bound.add(symbol.get_name())
            elif symbol.is_declared_global() and symbol.is_assigned():
                bound.add(symbol.get_name())
    missing = []
    for table in tables:
        for symbol in table.get_symbols():
            name = symbol.get_name()
            reads_global = symbol.is_referenced() and (
                symbol.is_global() if table is not top else True
            )
            if reads_global and name not in bound:
                missing.append(f"{table.get_name()}: {name}")
    return missing


def _module_imports(body: list[ast.stmt]):
    """The import statements of a module body, through ``if``/``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_imports(block)
            for handler in node.handlers:
                yield from _module_imports(handler.body)


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations parsed too."""
    read: set[str] = set()

    def annotation(node: ast.expr | None) -> None:
        for sub in ast.walk(node) if node is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(_names_read(parsed))

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotation(node.annotation)
    return read


def unused_imports(source: str, filename: str) -> list[str]:
    """``line: name`` for every module-level import nothing reads."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    used = _names_read(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(
            "# noqa: F401" in line
            for line in lines[node.lineno - 1:node.end_lineno]
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def orphaned_privates(
    source: str, filename: str, imported: frozenset[str] = frozenset()
) -> list[str]:
    """``line: name`` for every module-level private function, class or
    assignment the module never reads and no name in ``imported`` (what
    other modules import from it) covers."""
    tree = ast.parse(source, filename)
    used = _names_read(tree) | imported
    orphans = []
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names = [node.target.id]
        else:
            continue
        orphans.extend(
            f"{node.lineno}: {name}"
            for name in names
            if _is_private(name) and name not in used
        )
    return orphans


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.cache
def _imported_from() -> dict[str, frozenset[str]]:
    """module -> the names other ``src/repro`` modules import from it."""
    imported: dict[str, set[str]] = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names
                )
    return {module: frozenset(names) for module, names in imported.items()}


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC.parent))
)
def test_module_reads_no_unbound_global(path):
    assert undefined_globals(path.read_text(), str(path)) == []


def test_the_check_sees_an_unbound_name():
    source = (
        "import os\n"
        "LIMIT = 3\n"
        "def f(items):\n"
        "    global counter\n"
        "    counter = len(items)\n"
        "    return [os.sep * LIMIT for item in items if item in chain]\n"
        "def g():\n"
        "    return counter\n"
    )
    assert undefined_globals(source, "<probe>") == ["listcomp: chain"]


@pytest.mark.parametrize(
    "path",
    [path for path in MODULES if path.name != "__init__.py"],
    ids=lambda path: str(path.relative_to(SRC.parent)),
)
def test_module_imports_are_read(path):
    assert unused_imports(path.read_text(), str(path)) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json, sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Iterable, Mapping\n"
        "from collections import deque as ring\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "__all__ = ['ring']\n"
        "def f(items: 'Mapping[str, Decimal]') -> int:\n"
        "    return len(os.path.sep)\n"
    )
    assert unused_imports(source, "<probe>") == [
        "4: Iterable", "8: Fraction",
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC.parent))
)
def test_module_private_names_are_read(path):
    imported = _imported_from().get(_module_name(path), frozenset())
    assert orphaned_privates(path.read_text(), str(path), imported) == []


def test_the_check_sees_an_orphaned_private_name():
    source = (
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "_EXPORTED: int = 3\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    _UNUSED = 4\n"
        "    return _helper()\n"
        "class _Hidden:\n"
        "    pass\n"
        "def public(item: '_Annotated') -> None:\n"
        "    pass\n"
        "class _Annotated:\n"
        "    pass\n"
    )
    assert orphaned_privates(
        source, "<probe>", frozenset({"_EXPORTED"})
    ) == ["2: _UNUSED", "7: _orphan", "10: _Hidden"]


#: Every environment variable ``src/repro`` may read.
ENV_KNOBS = frozenset({"REPRO_FAULTS", "REPRO_FAULTS_SEED"})


def env_knobs(source: str, filename: str) -> set[str]:
    """The ``REPRO_*`` names spelled in the module's string literals
    (docstrings included)."""
    return {
        name
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for name in re.findall(r"REPRO_[A-Z0-9_]+", node.value)
    }


def test_environment_knobs_are_pinned():
    spelled = set()
    for path in MODULES:
        spelled |= env_knobs(path.read_text(), str(path))
    assert spelled == ENV_KNOBS


def test_the_check_sees_an_environment_knob():
    source = (
        '"""Reads ``REPRO_DOC``."""\n'
        "import os\n"
        "LIMIT = os.environ.get('REPRO_LIMIT_2', 'REPRO_lower')\n"
        "# REPRO_COMMENT\n"
    )
    assert env_knobs(source, "<probe>") == {"REPRO_DOC", "REPRO_LIMIT_2"}
