"""Every public name of a module, and every ``tx.<name>`` the README cites,
is importable from the package; every public name of the package is listed
in exactly one module's ``__all__``; every integer argument follows one rule."""

import importlib
import pkgutil
import re
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import texent
from conftest import noise_image
from texent import (
    CORRELATION,
    EntropyMeasure,
    GrayImage,
    SpacingVector,
    SplitMix64,
    SplitSpec,
    build_feature_sets,
    compute_fbim,
    entropy_bounds,
    extract_feature,
    tile,
)

MODULES = sorted(m.name for m in pkgutil.iter_modules(texent.__path__))
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


IMG = noise_image(8, 8, seed=1)
SHANNON = EntropyMeasure("shannon")

# Every integer argument, as (name in the message, lo, hi, an accepted value,
# call): the call returns the int the site keeps, or None where it keeps none.
INTEGER_SITES = {
    "GrayImage": ("levels", 2, 256, 16, lambda v: GrayImage(IMG.pixels // 16, v).levels),
    "GrayImage.quantize": ("levels", 2, 256, 16, lambda v: IMG.quantize(v).levels),
    "SpacingVector": ("d", 1, None, 3, lambda v: SpacingVector(v, 45).d),
    "compute_fbim.d_max": ("d_max", 1, None, 2,
                           lambda v: compute_fbim(IMG, CORRELATION, d_max=v).d_max),
    "compute_fbim.threads": ("threads", 1, None, 2,
                             lambda v: compute_fbim(IMG, CORRELATION, 2, threads=v) and None),
    "build_feature_sets.threads": (
        "threads", 1, None, 2,
        lambda v: build_feature_sets([("a", "t", IMG)], {"h": SHANNON}, 1, threads=v) and None),
    "tile": ("tile size", 1, None, 4, lambda v: tile(IMG, v)[0].width),
    "extract_feature": ("distance", 1, None, 2,
                        lambda v: extract_feature(IMG, SHANNON, [1, v]) and None),
    "entropy_bounds": ("n", 1, None, 3, lambda v: entropy_bounds(v) and None),
    "SplitSpec": ("seed", None, None, 7, lambda v: SplitSpec(seed=v).seed),
    "SplitMix64": ("seed", None, None, 7, lambda v: SplitMix64(v).next() and None),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_arguments_share_one_rule(site):
    name, lo, hi, good, call = INTEGER_SITES[site]
    for value in (good, np.int64(good), np.uint8(good)):
        got = call(value)
        assert got is None or (type(got) is int and got == good)
    domain = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    bad = [1.5, 2.0, 2.5, "3", None]
    bad += ([] if lo is None else [lo - 1]) + ([] if hi is None else [hi + 1])
    for value in bad:
        message = f"{name} must be an integer{domain}, got {value!r}"
        with pytest.raises(texent.DomainError, match=f"^{re.escape(message)}$"):
            call(value)


def test_integer_rule_lives_in_errors_only():
    sources = sorted((ROOT / "src" / "texent").glob("*.py"))
    assert "errors.py" in [p.name for p in sources]
    assert [p.name for p in sources
            if p.name != "errors.py" and "numbers.Integral" in p.read_text(encoding="utf-8")] == []
