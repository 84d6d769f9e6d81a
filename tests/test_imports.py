"""Every imported name in the package and its tests is used, and each
error message the package raises is written once.

A stdlib-only stand-in for a linter's unused-import rule.  Skipped: imports
from __future__, star imports, names the module lists in __all__, and
imports on a line marked ``# noqa: F401`` (or a bare ``# noqa``).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "braidcong").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)
NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _noqa_f401(line: str) -> bool:
    match = NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper().replace(" ", "").split(",")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                if _noqa_f401(lines[alias.lineno - 1]) or _noqa_f401(lines[node.lineno - 1]):
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return [(line, name) for line, name in imported if name not in used | exported]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as j\n"
        "from math import pi, tau\n"
        "from re import *\n"
        "from sys import argv  # noqa: F401\n"
        "from sys import (\n"
        "    path,\n"
        "    stdin,  # noqa: F401\n"
        ")\n"
        "from typing import Any  # noqa: F403\n"
        "from string import digits\n"
        "__all__ = ['digits']\n"
        "print(j.dumps(pi))\n"
    )
    assert unused_imports(source) == [
        (2, "os"),
        (3, "os"),
        (5, "tau"),
        (9, "path"),
        (12, "Any"),
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _referenced_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def orphan_helpers(sources: dict[str, str]) -> list[str]:
    """file:name of each module-level _name function or class that no other
    top-level statement of the sources reads.  Dunder names such as
    __getattr__ are called by the interpreter, so they are not helpers."""
    helpers: list[tuple[str, ast.stmt]] = []
    references: list[tuple[ast.stmt, set[str]]] = []
    for filename, source in sources.items():
        for node in ast.parse(source).body:
            references.append((node, _referenced_names(node)))
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ):
                helpers.append((f"{filename}:{node.name}", node))
    return [
        label
        for label, definition in helpers
        if not any(
            definition.name in names for node, names in references if node is not definition
        )
    ]


def test_orphan_scan_flags_only_unreferenced_helpers():
    sources = {
        "a.py": (
            "def __getattr__(name):\n"
            "    return _used(name)\n"
            "def __dir__():\n"
            "    return []\n"
            "def _used(name):\n"
            "    return name\n"
            "def _helper():\n"
            "    return _helper()\n"
            "class _Lone:\n"
            "    pass\n"
        ),
        "b.py": "class _Shared:\n    pass\n",
        "c.py": "import b\nshared = b._Shared\n",
    }
    assert orphan_helpers(sources) == ["a.py:_helper", "a.py:_Lone"]


def test_every_private_helper_is_referenced_in_the_package():
    """Each module-level _name function or class in the package is read by
    some package code outside its own definition; tests do not count."""
    paths = sorted((ROOT / "src" / "braidcong").glob("*.py"))
    sources = {path.name: path.read_text() for path in paths}
    assert orphan_helpers(sources) == []
    probe = {**sources, "probe.py": "def _probe():\n    pass\n"}
    assert orphan_helpers(probe) == ["probe.py:_probe"]


def _imported_modules(module: str) -> list[str]:
    # each module a package module imports, and each module.name it imports
    tree = ast.parse((ROOT / "src" / "braidcong" / f"{module}.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert modules
    return modules


def test_burau_imports_nothing_from_smith():
    """The invariant form is a closed formula, so the representation module
    needs no integer solver."""
    modules = _imported_modules("burau")
    assert [name for name in modules if "smith" in name.split(".")] == []


def test_cryst_imports_nothing_from_smith():
    """Torsion candidates are decided by the pair orbits in closed form, so
    the crystallographic group law needs no integer solver."""
    modules = _imported_modules("cryst")
    assert [name for name in modules if "smith" in name.split(".")] == []


def test_cryst_imports_nothing_from_congruence():
    """The relators are words, so the crystallographic group law needs no
    image enumeration or abelianization."""
    modules = _imported_modules("cryst")
    assert [name for name in modules if "congruence" in name.split(".")] == []


def test_smith_imports_nothing_from_words():
    """The integer and length rules live in matrices, so the Smith normal
    form needs nothing from the braid-word module."""
    modules = _imported_modules("smith")
    assert [name for name in modules if "words" in name.split(".")] == []


def raise_templates(source: str) -> list[tuple[int, str]]:
    """(line, message) of each raise E("...") or raise E(f"..."), with every
    f-string field written as {}."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        args = node.exc.args
        first = args[0] if args else None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            out.append((node.lineno, first.value))
        elif isinstance(first, ast.JoinedStr):
            parts = (p.value if isinstance(p, ast.Constant) else "{}" for p in first.values)
            out.append((node.lineno, "".join(parts)))
    return out


def test_raise_templates_normalize_fields():
    source = (
        "def f(n, k):\n"
        "    if n:\n"
        "        raise ValueError(f'bad {n} vs {k!r:>3}' ' here')\n"
        "    if k:\n"
        "        raise KeyError('plain')\n"
        "    raise RuntimeError\n"
        "    raise ValueError(message)\n"
    )
    assert raise_templates(source) == [(3, "bad {} vs {} here"), (5, "plain")]


def test_no_raise_message_is_written_twice():
    """A check that two places need is one helper, so its message is one string."""
    seen: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "braidcong").glob("*.py")):
        for line, template in raise_templates(path.read_text()):
            seen.setdefault(template, []).append(f"{path.name}:{line}")
    assert seen
    assert {t: where for t, where in seen.items() if len(where) > 1} == {}


# a lower bound or a range worded by hand instead of by matrices.check_integer
BOUND_WORDING = re.compile(r"must be (?:positive|non-negative|at least)|out of range \S+\.\.\S+")


def _worded_outside(sources: dict[str, str], rule: str, wording: re.Pattern) -> list[str]:
    """file:line of each raise template that wording matches, other than
    those of the function named rule in matrices.py."""
    found = []
    for filename, source in sources.items():
        exempt = {
            node.lineno
            for function in ast.parse(source).body
            if filename == "matrices.py"
            and isinstance(function, ast.FunctionDef)
            and function.name == rule
            for node in ast.walk(function)
            if isinstance(node, ast.Raise)
        }
        found += [
            f"{filename}:{line}"
            for line, template in raise_templates(source)
            if line not in exempt and wording.search(template)
        ]
    return found


def hand_written_bounds(sources: dict[str, str]) -> list[str]:
    """file:line of each raise template worded as a bound or range check,
    other than those of the function check_integer in matrices.py."""
    return _worded_outside(sources, "check_integer", BOUND_WORDING)


def test_bound_scan_flags_hand_written_bounds_only():
    check = (
        "def check_integer(what, value, low):\n"
        "    if value < low:\n"
        "        raise ValueError(f'{what} must be at least {low}, got {value}')\n"
    )
    sources = {
        "matrices.py": check,
        "a.py": (
            check
            + "def f(k, n):\n"
            "    if k < 1:\n"
            "        raise ValueError(f'k must be positive, got {k}')\n"
            "    if not 0 <= k < n:\n"
            "        raise ValueError(f'k {k} out of range 0..{n - 1}')\n"
            "    raise ValueError(f'letter {k} is out of range for {n} strands')\n"
        ),
    }
    assert hand_written_bounds(sources) == ["a.py:3", "a.py:6", "a.py:8"]


def test_integer_bounds_are_worded_only_by_check_integer():
    """Every integer parameter's bound or range is checked by
    matrices.check_integer, so no other raise words one."""
    paths = sorted((ROOT / "src" / "braidcong").glob("*.py"))
    assert hand_written_bounds({path.name: path.read_text() for path in paths}) == []


# a length check worded by hand instead of by matrices.check_length
LENGTH_WORDING = re.compile(
    r"entries, expected|has \{\} entries|length mismatch|shape mismatch|coordinates for"
)


def hand_written_lengths(sources: dict[str, str]) -> list[str]:
    """file:line of each raise template worded as a length mismatch, other
    than those of the function check_length in matrices.py."""
    return _worded_outside(sources, "check_length", LENGTH_WORDING)


def test_length_scan_flags_hand_written_lengths_only():
    check = (
        "def check_length(what, values, n):\n"
        "    if len(values) != n:\n"
        "        raise ValueError(f'{what} has {len(values)} entries, expected {n}')\n"
    )
    sources = {
        "matrices.py": check,
        "a.py": (
            check
            + "def f(row, v, n):\n"
            "    raise ValueError(f'row has {len(row)} entries, the matrix has {n} rows')\n"
            "    raise ValueError(f'length mismatch: {n} rows vs {len(v)} entries')\n"
            "    raise ValueError(f'expected {n} coordinates for {n} strands')\n"
            "    raise ValueError(f'shape mismatch: {n} vs {len(v)}')\n"
            "    raise ValueError(f'{n} entries is too many')\n"
        ),
    }
    found = sorted(hand_written_lengths(sources))
    assert found == ["a.py:3", "a.py:5", "a.py:6", "a.py:7", "a.py:8"]


def test_lengths_are_worded_only_by_check_length():
    """Every row or vector length is checked by matrices.check_length, so no
    other raise words a length mismatch."""
    paths = sorted((ROOT / "src" / "braidcong").glob("*.py"))
    assert hand_written_lengths({path.name: path.read_text() for path in paths}) == []


def chained_range_guards(sources: dict[str, str]) -> list[str]:
    """file:function of each raise under an if whose test holds a chained
    comparison such as 1 <= i < j <= n, other than in the function
    check_integer in matrices.py."""
    found = []
    for filename, source in sources.items():
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, ast.FunctionDef) or (
                filename == "matrices.py" and function.name == "check_integer"
            ):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.If)
                    and any(
                        isinstance(c, ast.Compare) and len(c.ops) > 1 for c in ast.walk(node.test)
                    )
                    and any(isinstance(r, ast.Raise) for s in node.body for r in ast.walk(s))
                ):
                    found.append(f"{filename}:{function.name}")
    return found


def test_chained_guard_scan_flags_hand_written_ranges_only():
    check = (
        "def check_integer(what, value, low, high):\n"
        "    if not low <= value <= high:\n"
        "        raise ValueError(what)\n"
    )
    sources = {
        "matrices.py": check,
        "a.py": (
            check
            + "def f(i, j, n):\n"
            "    if not (1 <= i < j <= n):\n"
            "        raise ValueError('need 1 <= i < j <= n')\n"
            "    if i < n:\n"
            "        raise ValueError('one comparison')\n"
            "    if 0 <= i < n:\n"
            "        return i\n"
        ),
    }
    assert chained_range_guards(sources) == ["a.py:check_integer", "a.py:f"]


def test_ranges_are_checked_only_by_check_integer():
    """A range written as a chained comparison belongs in matrices.check_integer,
    which also refuses floats and bools."""
    paths = sorted((ROOT / "src" / "braidcong").glob("*.py"))
    assert chained_range_guards({path.name: path.read_text() for path in paths}) == []


def test_cli_import_loads_neither_the_verify_suite_nor_the_crystallographic_calculus():
    """image and abelianization start without running claims or cryst; the
    handlers that need them import them when they run."""
    code = (
        "import sys, braidcong.cli\n"
        "print(sorted({'braidcong.claims', 'braidcong.cryst'} & set(sys.modules)))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]
