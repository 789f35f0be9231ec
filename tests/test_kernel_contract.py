"""The kernel contract table in ``repro/exec/kernels.py`` is exact.

Read statically (no kernel is imported, so the numpy rows are checked
where numpy is absent too): both kernel modules define every row not
marked ``(optional)``, numpy defines the optional rows as well, and
every ``kernel.<name>`` the package reads off a kernel module is a row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
EXEC = SRC / "exec"


def _table() -> dict[str, bool]:
    """Each row's name, mapped to whether the row is ``(optional)``."""
    doc = ast.get_docstring(ast.parse((EXEC / "kernels.py").read_text()))
    body = doc.split("\n======")[1]  # the rows, after the top rule
    rows = {}
    for line in body.splitlines()[1:]:
        match = re.match(r"``(\w+)[^`]*``( \(optional\))?", line)
        if match:
            rows[match.group(1)] = match.group(2) is not None
    return rows


def _defined(module: str) -> set[str]:
    """The names a module binds at top level."""
    names = set()
    for node in ast.parse((EXEC / module).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            )
    return names


def _read_off_kernels() -> set[str]:
    """Every ``<name>`` read as ``kernel.<name>`` or ``<x>.kernel.<name>``
    under the package (a fault-site string such as ``"kernel.op"`` is no
    attribute read)."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "kernel") or (
                isinstance(owner, ast.Attribute) and owner.attr == "kernel"
            ):
                names.add(node.attr)
    return names


def test_the_table_parses():
    rows = _table()
    assert {"NAME", "difference", "release"} <= set(rows)
    assert {name for name, optional in rows.items() if optional} == {
        "compose", "closure",
    }


def test_both_kernels_define_every_required_row():
    required = {name for name, optional in _table().items() if not optional}
    for module in ("kernels_python.py", "kernels_numpy.py"):
        assert required - _defined(module) == set(), module


def test_numpy_defines_every_optional_row():
    optional = {name for name, optional in _table().items() if optional}
    assert optional - _defined("kernels_numpy.py") == set()


def test_every_kernel_attribute_the_package_reads_is_a_row():
    read = _read_off_kernels()
    assert read, "no kernel.<name> read found: the scan is broken"
    assert read - set(_table()) == set()
