"""The package namespace, loaded on first use, and the result records."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperind as hi

SUBMODULES = ("core", "properties", "bounds", "algorithms", "generators")
LOOSE = hi.Hypergraph(5, [(0, 1, 2), (2, 3, 4)])


# --- namespace ---------------------------------------------------------------


def _fresh_modules(code: str) -> str:
    """The hyperind modules a fresh interpreter holds after import hyperind; code."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, hyperind; {code}; "
            "print(*sorted(m for m in sys.modules if 'hyperind' in m))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    assert _fresh_modules("pass") == "hyperind\n"


@pytest.mark.parametrize("name", ["cli", "bounds"])
def test_submodule_attribute_loads_only_that_submodule(name):
    # the package attribute, read first, imports the submodule and what
    # it imports itself, no more
    loaded = _fresh_modules(f"hyperind.{name}")
    assert f"hyperind.{name}" in loaded.split()
    assert loaded == _fresh_modules(f"import hyperind.{name}")


def test_public_names_are_their_home_modules_objects():
    modules = [importlib.import_module(f"hyperind.{m}") for m in SUBMODULES]
    for name in hi.__all__:
        if name in ("errors", "__version__"):
            continue
        homes = [mod for mod in modules if name in mod.__all__]
        assert len(homes) == 1, name
        assert getattr(hi, name) is getattr(homes[0], name), name


def test_submodules_and_version_resolve():
    for m in (*SUBMODULES, "errors"):
        assert getattr(hi, m) is importlib.import_module(f"hyperind.{m}")
    assert hi.errors.BadSpec is importlib.import_module("hyperind.errors").BadSpec
    assert hi.__version__ == "0.1.0"


def test_star_import_binds_all():
    ns: dict = {}
    exec("from hyperind import *", ns)
    assert set(hi.__all__) <= set(ns)
    assert ns["potential"] is hi.bounds.potential


def test_dir_covers_all():
    assert set(hi.__all__) <= set(dir(hi))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hi.no_such_name
    for name in ("shearer_s2", "slot_partition", "SlotPartition", "BoundValue"):
        assert not hasattr(hi, name), name
    for name in ("IsolatedVertex", "NotUniform"):
        assert not hasattr(hi.errors, name), name
    with pytest.raises(ImportError):
        exec("from hyperind import no_such_name", {})


# --- records -----------------------------------------------------------------


def _records():
    row = hi.bound_table(3, 1)[1]
    cert = hi.greedy_extract(LOOSE, 3)
    return [
        hi.property_report(LOOSE),
        row,
        cert.steps[0],
        cert,
        hi.exact_alpha(LOOSE),
        hi.InstanceSpec("random", n=5, r=3, m=2),
    ]


def test_records_are_the_six_public_records():
    assert [type(rec).__name__ for rec in _records()] == [
        "PropertyReport",
        "TableRow",
        "Step",
        "ExtractionCertificate",
        "AlphaResult",
        "InstanceSpec",
    ]


@pytest.mark.parametrize("rec", _records(), ids=lambda rec: type(rec).__name__)
def test_record_fields_cannot_be_assigned(rec):
    for field in type(rec).__match_args__:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_record_repr_pinned():
    assert repr(hi.bound_table(3, 1)[1]) == (
        "TableRow(d=1, f_lz=0.33333333343709326, f_czpi=0.5707963267948966, "
        "f_ct=Fraction(2, 3), f_r=Fraction(2, 3))"
    )
    assert repr(hi.exact_alpha(hi.loose_path(2, 3))) == (
        "AlphaResult(alpha=4, independent_set=(0, 1, 3, 4), exact=True, nodes=1)"
    )


def test_records_are_named_tuples():
    spec = hi.InstanceSpec("random", n=5, r=3, m=2)
    assert spec == ("random", 5, 3, 2, 0)
    assert hash(spec) == hash(("random", 5, 3, 2, 0))
    family, n, r, m, seed = spec
    assert (family, seed) == ("random", 0)
    assert spec._replace(seed=7).seed == 7
