"""Every public name of a module, and every ``tx.<name>`` the README cites,
is importable from the package; every public name of the package is listed
in exactly one module's ``__all__``."""

import importlib
import pkgutil
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import texent

MODULES = sorted(m.name for m in pkgutil.iter_modules(texent.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES)
def test_module_public_names_are_reexported(module):
    names = getattr(importlib.import_module(f"texent.{module}"), "__all__", ())
    assert [n for n in names if not hasattr(texent, n)] == []


def test_package_names_come_from_one_module_each():
    listed = Counter(n for m in MODULES
                     for n in getattr(importlib.import_module(f"texent.{m}"), "__all__", ()))
    public = [n for n in dir(texent) if not n.startswith("_")
              and not isinstance(getattr(texent, n), types.ModuleType)]
    assert public
    assert {n: listed[n] for n in public if listed[n] != 1} == {}


def test_readme_names_exist():
    cited = set(re.findall(r"\btx\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert cited
    assert sorted(n for n in cited if not hasattr(texent, n)) == []
