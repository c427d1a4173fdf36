"""Worst-case disclosure of sensitive values in bucketized tables.

A bucketized table hides who has which sensitive value inside each bucket.
This package computes, exactly, the highest posterior an attacker can reach
on any single person-value assertion when armed with a bounded number of
implication-shaped background facts: a polynomial dynamic program for real
sizes, a brute-force enumeration oracle to verify it at small sizes, and a
search over generalization lattices for the least-general safe publication.
"""

import importlib

# Each public name, under the layer that defines it. errors and table, the
# layers that load and bucketize a table, are imported with the package.
# Every other layer is imported the first time one of its names, or the
# submodule itself, is read from the package, so loading and bucketizing a
# table compiles only those two. Each command of the command line imports the
# layers it runs when it runs (see cli.py).
_EXPORTS = {
    "errors": (
        "DEFAULT_BUDGET",
        "BucketRiskError",
        "BudgetExceededError",
        "InconsistentKnowledgeError",
        "ParseError",
        "ValidationError",
    ),
    "table": (
        "Bucket",
        "Bucketization",
        "Table",
        "buckets_at",
        "histograms",
        "load_table",
        "make_bucket",
        "partition",
        "read_assignment",
        "read_domain",
    ),
    "curves": (
        "CurvePoint",
        "SkewedSingleBucketFamily",
        "disclosure_vs_k",
        "emit_csv",
        "entropy_vs_disclosure",
    ),
    "engine": (
        "DisclosureReport",
        "Engine",
        "Placement",
        "avoidance_probability",
        "disclosure_at",
        "disclosure_by_k",
        "disclosure_reaches",
        "max_disclosure",
        "max_disclosure_negated_atoms",
        "minimize_across_buckets",
        "minimize_within_bucket",
    ),
    "knowledge": (
        "Atom",
        "BasicImplication",
        "Knowledge",
        "knowledge_holds",
        "negation_as_implication",
        "parse_atom",
        "parse_knowledge",
        "simple_implication",
    ),
    "lattice": (
        "Hierarchy",
        "SafetyThreshold",
        "all_minimal_safe",
        "apply",
        "binary_search_chain",
        "is_safe",
        "load_hierarchy",
    ),
    "oracle": (
        "brute_force_max_disclosure",
        "exact_posterior",
        "knowledge_probability",
        "world_count",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

globals().update(
    (name, getattr(importlib.import_module(f".{layer}", __name__), name))
    for layer in ("errors", "table")
    for name in _EXPORTS[layer]
)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAYER_OF:
        value = getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_LAYER_OF})


__version__ = "0.1.0"

__all__ = sorted(_LAYER_OF)
