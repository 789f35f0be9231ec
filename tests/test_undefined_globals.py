"""Every global a function reads is bound somewhere in its module.

A stdlib stand-in for a linter's undefined-name check (pyflakes F821),
so tier-1 catches a name that only fails when its line finally runs:
each ``src/repro/**/*.py`` is compiled to its symbol tables, and every
name any scope reads as a global must be assigned, imported, defined or
declared ``global`` and assigned in that module, or be a builtin.
"""

from __future__ import annotations

import builtins
import pathlib
import symtable

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

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


@pytest.mark.parametrize(
    "path",
    sorted(SRC.rglob("*.py")),
    ids=lambda path: str(path.relative_to(SRC.parent)),
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
