"""The package's export list is the concatenation of its modules' lists,
its submodules load on first use, and each package name is the defining
module's current binding."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidcong
from braidcong import burau, claims, congruence, cryst, smith, words

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = [words, burau, smith, congruence, cryst, claims]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_the_module_lists_in_order():
    assert braidcong.__all__ == [
        "__version__",
        *words.__all__,
        *burau.__all__,
        *smith.__all__,
        *congruence.__all__,
        *cryst.__all__,
        *claims.__all__,
    ]


def test_each_public_name_is_declared_once():
    names = braidcong.__all__
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_package_exports_appear_in_their_defining_module():
    wrong = []
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if getattr(obj, "__module__", module.__name__) != module.__name__:
                wrong.append(f"{module.__name__}.{name} is defined in {obj.__module__}")
            if getattr(braidcong, name) is not obj:
                wrong.append(f"braidcong.{name} is not {module.__name__}.{name}")
    assert wrong == []


def _fresh(statement: str) -> subprocess.CompletedProcess:
    """Run statement after ``import braidcong`` in a new interpreter; its last
    output line is the sorted list of braidcong submodules then loaded."""
    code = (
        "import json, sys, braidcong\n"
        f"{statement}\n"
        "print(json.dumps(sorted(n.split('.', 1)[1] for n in sys.modules"
        " if n.startswith('braidcong.'))))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("pass", []),
        ("braidcong.enumerate_image", ["burau", "congruence", "matrices", "smith", "words"]),
        ("braidcong.CrystElement", ["cryst", "matrices", "words"]),
        ("braidcong.cryst", ["cryst", "matrices", "words"]),
        ("braidcong.matrices", ["matrices"]),
        ("braidcong.smith_normal_form", ["matrices", "smith"]),
    ],
)
def test_a_name_loads_only_its_module_and_what_that_imports(statement, loaded):
    result = _fresh(statement)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == loaded


def test_an_unknown_name_raises_the_standard_attribute_error_and_loads_nothing():
    result = _fresh("try:\n    braidcong.nope\nexcept AttributeError as err:\n    print(err)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["module 'braidcong' has no attribute 'nope'", "[]"]


def test_the_export_list_and_dir_load_no_module():
    result = _fresh("braidcong.__all__\ndir(braidcong)")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_a_name_loads_only_its_module_without_sources():
    """The exporter comes from the package's table, so an install whose
    loaders give no source text keeps the lazy split."""
    result = _fresh(
        "from importlib.machinery import SourceFileLoader\n"
        "SourceFileLoader.get_source = lambda self, fullname: None\n"
        "braidcong.CrystElement"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == ["cryst", "matrices", "words"]


def test_package_names_follow_the_module_binding(monkeypatch):
    original = cryst.normal_form

    def patched(word):
        return original(word)

    monkeypatch.setattr(cryst, "normal_form", patched)
    assert braidcong.normal_form is patched
    monkeypatch.undo()
    assert braidcong.normal_form is original


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from braidcong import *", namespace)
    assert [n for n in braidcong.__all__ if namespace.get(n) is not getattr(braidcong, n)] == []


def test_dir_lists_the_submodules_and_the_exports():
    listed = set(dir(braidcong))
    assert {module.__name__.split(".")[1] for module in MODULES} <= listed
    assert set(braidcong.__all__) <= listed
