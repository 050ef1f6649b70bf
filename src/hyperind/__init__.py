"""Independent sets in uniform linear triangle-free hypergraphs.

Library surface:

* ``core`` -- Hypergraph, the .hg text format
* ``properties`` -- structural predicates with failure witnesses
* ``bounds`` -- exact and integral-form degree-sequence bounds
* ``algorithms`` -- certified greedy extraction, exact independence number
* ``generators`` -- seeded random and named instance families
* ``cli`` -- the ``hyperind`` command

Submodules load on first use (PEP 562): ``import hyperind`` imports
none of them, and ``hyperind.potential`` imports ``hyperind.bounds``
the first time it is read.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides at package level; a
# submodule's own name is public too.  This is the one list: the
# __all__ of core, properties, bounds, algorithms and generators is
# their entry here, read without importing any other submodule.
# errors and cli export no name here and keep their own __all__.
_EXPORTS = {
    "core": (
        "Hypergraph",
        "format_hg",
        "parse_hg",
        "read_hg",
        "write_hg",
    ),
    "properties": (
        "VACUOUS",
        "PropertyReport",
        "has_uniformity",
        "is_double_linear",
        "is_linear",
        "is_triangle_free",
        "is_uniform",
        "neighborhood_max_degree",
        "property_report",
    ),
    "bounds": (
        "TableRow",
        "as_ratio",
        "bound_table",
        "caro_tuza",
        "caro_tuza_total",
        "chishti",
        "chishti_bound",
        "convexity_minorant",
        "li_zang",
        "potential",
        "potential_weight",
        "shearer_s1",
        "table_to_csv",
        "table_to_json",
    ),
    "algorithms": (
        "AlphaResult",
        "ExtractionCertificate",
        "Step",
        "exact_alpha",
        "greedy_extract",
        "verify_independent",
    ),
    "generators": (
        "FAMILIES",
        "InstanceSpec",
        "SplitMix64",
        "fano",
        "generate",
        "loose_cycle",
        "loose_path",
        "matching",
        "random_linear_triangle_free",
    ),
    "errors": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "errors", "__version__"]


def __getattr__(name: str):
    """Import the submodule that provides name, and keep the value here."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)  # binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
