"""Every name that the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import specrisk

EXPORTING = sorted(
    m.name
    for m in pkgutil.iter_modules(specrisk.__path__)
    if hasattr(importlib.import_module(f"specrisk.{m.name}"), "__all__")
)


def test_package_exports_resolve():
    assert [name for name in specrisk.__all__ if not hasattr(specrisk, name)] == []


@pytest.mark.parametrize("name", EXPORTING)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"specrisk.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
