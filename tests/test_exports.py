"""The package's export list is the concatenation of its modules' lists."""

import pytest

import braidcong
from braidcong import burau, claims, congruence, cryst, smith, words

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
