"""Worst-case disclosure of sensitive values in bucketized tables.

A bucketized table hides who has which sensitive value inside each bucket.
This package computes, exactly, the highest posterior an attacker can reach
on any single person-value assertion when armed with a bounded number of
implication-shaped background facts: a polynomial dynamic program for real
sizes, a brute-force enumeration oracle to verify it at small sizes, and a
search over generalization lattices for the least-general safe publication.
"""

import importlib

from .errors import (
    DEFAULT_BUDGET,
    BucketRiskError,
    BudgetExceededError,
    InconsistentKnowledgeError,
    ParseError,
    ValidationError,
)
from .table import (
    Bucket,
    Bucketization,
    Table,
    buckets_at,
    dump_table,
    histograms,
    load_table,
    make_bucket,
    min_bucket_entropy,
    partition,
    read_assignment,
    read_domain,
)

# Every other layer is imported the first time one of its names, or the
# submodule itself, is read from the package, so loading and bucketizing a
# table compiles only the two layers above. The command line imports
# knowledge and engine itself, before click (see cli.py).
_LAZY = {
    "curves": (
        "CurvePoint",
        "SkewedSingleBucketFamily",
        "disclosure_vs_k",
        "emit_csv",
        "entropy_vs_disclosure",
        "read_csv",
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
        "format_knowledge",
        "holds",
        "implication_holds",
        "knowledge_holds",
        "negation_as_implication",
        "parse_atom",
        "parse_knowledge",
        "simple_implication",
        "validate_atom",
        "validate_knowledge",
    ),
    "lattice": (
        "Hierarchy",
        "SafetyThreshold",
        "all_minimal_safe",
        "apply",
        "binary_search_chain",
        "height_utility",
        "is_safe",
        "leq",
        "load_hierarchy",
        "select_by_utility",
    ),
    "oracle": (
        "brute_force_max_disclosure",
        "exact_posterior",
        "knowledge_probability",
        "world_count",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BasicImplication",
    "Bucket",
    "BucketRiskError",
    "Bucketization",
    "BudgetExceededError",
    "CurvePoint",
    "DEFAULT_BUDGET",
    "DisclosureReport",
    "Engine",
    "Hierarchy",
    "InconsistentKnowledgeError",
    "Knowledge",
    "ParseError",
    "Placement",
    "SafetyThreshold",
    "SkewedSingleBucketFamily",
    "Table",
    "ValidationError",
    "all_minimal_safe",
    "apply",
    "avoidance_probability",
    "binary_search_chain",
    "brute_force_max_disclosure",
    "buckets_at",
    "disclosure_at",
    "disclosure_by_k",
    "disclosure_reaches",
    "disclosure_vs_k",
    "dump_table",
    "emit_csv",
    "entropy_vs_disclosure",
    "exact_posterior",
    "format_knowledge",
    "height_utility",
    "histograms",
    "holds",
    "implication_holds",
    "is_safe",
    "knowledge_holds",
    "knowledge_probability",
    "leq",
    "load_hierarchy",
    "load_table",
    "make_bucket",
    "max_disclosure",
    "max_disclosure_negated_atoms",
    "min_bucket_entropy",
    "minimize_across_buckets",
    "minimize_within_bucket",
    "negation_as_implication",
    "parse_atom",
    "parse_knowledge",
    "partition",
    "read_assignment",
    "read_csv",
    "read_domain",
    "select_by_utility",
    "simple_implication",
    "validate_atom",
    "validate_knowledge",
    "world_count",
]
