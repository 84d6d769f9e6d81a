"""The package's export lists agree with the modules that define the names."""

import sys

import pytest

import braidcong
from braidcong import burau, congruence, cryst


@pytest.mark.parametrize("module", [burau, congruence, cryst], ids=lambda m: m.__name__)
def test_module_exports_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_appear_in_their_defining_module():
    unlisted = []
    for name in braidcong.__all__:
        home = getattr(getattr(braidcong, name), "__module__", None)
        if home is None:
            continue  # a plain value such as __version__
        module = sys.modules[home]
        if hasattr(module, "__all__") and name not in module.__all__:
            unlisted.append(f"{home}.{name}")
    assert unlisted == []
