"""Generalization hierarchies and the search for safe nodes.

A hierarchy gives each quasi-identifier attribute a chain of levels: level 0
is the raw value, higher levels map raws to coarser labels, and each level
must refine the next (values sharing a label keep sharing one level up).
A lattice node picks one level per attribute; applying it buckets the table
by the generalized tuples. Coarser nodes can only merge buckets, so
worst-case disclosure never increases going up, which is what makes binary
search on chains and bottom-up minimal-node search correct.

Safety depends only on each bucket's histogram, so the searches never
materialize members. Each search groups the table once by raw
quasi-identifier tuple (a row's values on the hierarchy's attributes)
into sensitive-value tallies, the bottom node. A node is rolled up from a
node below it by relabelling that node's group keys and summing the tallies
of keys that meet (the rollup of Incognito, LeFevre, DeWitt and
Ramakrishnan, SIGMOD 2005): O(tally entries) per node, not O(rows).
``all_minimal_safe`` rolls each node up from an evaluated child, relabelling
one attribute; ``binary_search_chain`` rolls each node up from the bottom,
labelling each distinct raw value once per attribute. ``is_safe`` takes the
resulting count tuples and stops its sweep at the first bucket that proves
a node unsafe. ``apply`` is what builds buckets with members, and
it labels rows with the same routine as the bottom rollup. The table
module tallies the bottom node, with the routine ``histograms`` uses, and
sums tallies for every rollup; ``apply`` buckets rows with the routine
``partition`` uses. The searches import the engine when they run, so
loading a hierarchy and applying a node do not compile it.
"""

from __future__ import annotations

import itertools
import json
import numbers
from collections import abc
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Union

from .errors import BudgetExceededError, ValidationError, _check_count
from .table import (Bucketization, Source, Table, Tallies, _bucketize, _count_tuples,
                    _Frozen, _open_text, _regroup, _tallies)

if TYPE_CHECKING:
    from .engine import Engine, Histograms

Node = tuple[int, ...]

SUPPRESSED = "*"

# a declared level is "suppress", "identity", or a raw -> label map
Level = Union[str, dict]


class _ReadOnlyDict(dict):
    """A dict that refuses every change; it pickles and copies as a dict does."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{self.__class__.__name__} does not support changes")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return self.__class__, (dict(self),)


class Hierarchy(_Frozen):
    """Per-attribute generalization levels, level 0 (identity) implicit.

    ``levels[attribute]`` lists levels 1..L in order; each is a string to
    string dict, the keyword "suppress" (everything becomes "*"), or
    "identity". Attribute order fixes the meaning of node vectors. The
    constructor checks every level's type first, and keeps read-only copies
    of ``levels`` and its maps, so no later change can undo its checks.
    """

    __slots__ = _fields = ("attributes", "levels")

    def __init__(self, attributes: tuple[str, ...], levels: dict[str, tuple[Level, ...]]):
        if not isinstance(levels, abc.Mapping):
            raise ValidationError(f"levels must be a mapping, not {type(levels).__name__}")
        for attribute, declared in levels.items():
            if not isinstance(declared, (list, tuple)):
                raise ValidationError(f"attribute {attribute!r}: expected a list of levels")
            for index, level in enumerate(declared, start=1):
                if isinstance(level, dict):
                    if not all(isinstance(raw, str) and isinstance(label, str)
                               for raw, label in level.items()):
                        raise ValidationError(f"attribute {attribute!r} level {index}: raw "
                                              "values and labels must be strings")
                elif level not in ("suppress", "identity"):
                    raise ValidationError(f"attribute {attribute!r} level {index}: expected "
                                          "a map, 'suppress', or 'identity'")
        copy = lambda level: _ReadOnlyDict(level) if isinstance(level, dict) else level
        levels = _ReadOnlyDict((a, tuple(map(copy, declared))) for a, declared in levels.items())
        super().__init__(attributes, levels)
        if not self.attributes:
            raise ValidationError("hierarchy needs at least one attribute")
        if set(self.levels) != set(self.attributes):
            raise ValidationError("levels and attributes disagree")
        for attribute in self.attributes:
            declared = self.levels[attribute]
            key_sets = [frozenset(lv) for lv in declared if isinstance(lv, dict)]
            if key_sets and any(ks != key_sets[0] for ks in key_sets):
                raise ValidationError(
                    f"attribute {attribute!r}: levels disagree on the raw values"
                )
            for depth in range(len(declared) - 1):
                self._check_refines(attribute, depth + 1)

    def _check_refines(self, attribute: str, depth: int) -> None:
        # equal labels at `depth` must stay equal at depth+1
        lower, upper = self.levels[attribute][depth - 1 : depth + 1]
        if lower == "identity" or upper == "suppress":
            return  # singleton groups below, or one group above

        def split(label: str) -> ValidationError:
            return ValidationError(
                f"attribute {attribute!r}: values labeled {label!r} at level "
                f"{depth} split apart at level {depth + 1}"
            )

        if lower == "suppress":
            # one group of every raw value, which identity labels apart
            if upper == "identity":
                raise split(SUPPRESSED)
            lower = dict.fromkeys(upper, SUPPRESSED)
        groups: dict[str, list[str]] = {}
        for raw, label in lower.items():
            groups.setdefault(label, []).append(raw)
        for label, raws in groups.items():
            if len({self._label(attribute, depth + 1, raw) for raw in raws}) > 1:
                raise split(label)

    def max_level(self, attribute: str) -> int:
        try:
            return len(self.levels[attribute])
        except KeyError:
            raise ValidationError(f"hierarchy has no attribute {attribute!r}") from None

    def _label(self, attribute: str, level: int, raw: str) -> str:
        """Generalize one raw value to a checked level; unknown raws at a map
        level are errors."""
        if level == 0:
            return raw
        spec = self.levels[attribute][level - 1]
        if spec == "suppress":
            return SUPPRESSED
        if spec == "identity":
            return raw
        try:
            return spec[raw]
        except KeyError:
            raise ValidationError(
                f"attribute {attribute!r}: value {raw!r} missing from level {level}"
            ) from None

    def bottom(self) -> Node:
        return (0,) * len(self.attributes)

    def nodes(self) -> Iterable[Node]:
        """Every lattice node, in no particular order."""
        return itertools.product(
            *(range(self.max_level(a) + 1) for a in self.attributes)
        )

    def size(self) -> int:
        total = 1
        for a in self.attributes:
            total *= self.max_level(a) + 1
        return total

    def check_node(self, node: Sequence[int]) -> Node:
        if len(node) != len(self.attributes):
            raise ValidationError(
                f"node has {len(node)} components, hierarchy has "
                f"{len(self.attributes)} attributes"
            )
        for attribute, level in zip(self.attributes, node):
            _check_count(level, f"level of attribute {attribute!r}", least=None)
            if not 0 <= level <= self.max_level(attribute):
                raise ValidationError(
                    f"level {level} out of range for attribute {attribute!r} "
                    f"(0..{self.max_level(attribute)})"
                )
        return tuple(node)


def load_hierarchy(source: Source) -> Hierarchy:
    """Read a hierarchy from JSON: {attribute: [level1, level2, ...]}.

    Each level is an object mapping raw values to labels, or one of the
    keywords "suppress" and "identity"; ``Hierarchy`` checks them. Level 0 is
    implicit.
    """
    with _open_text(source) as stream:
        text = stream.read()
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ValidationError(f"hierarchy is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not data:
        raise ValidationError("hierarchy must be a non-empty JSON object")
    return Hierarchy(tuple(data), data)


def _qi_columns(table: Table, hierarchy: Hierarchy) -> list[tuple[str, ...]]:
    """The table's columns for the hierarchy's attributes, in its order."""
    for attribute in hierarchy.attributes:
        if attribute not in table.attributes:
            raise ValidationError(
                f"hierarchy attribute {attribute!r} not in table"
            )
    return [table.columns[table.attributes.index(a)] for a in hierarchy.attributes]


def _generalizer(
    hierarchy: Hierarchy, node: Node
) -> Callable[[Sequence[str]], tuple[str, ...]]:
    """Map raw quasi-identifier tuples to their labels at ``node``.

    Each distinct raw value is labelled once per attribute. Tuples are
    labelled attribute by attribute, so the first failing tuple raises the
    same error as the first failing row would.
    """
    columns = [(a, level, {}) for a, level in zip(hierarchy.attributes, node)]

    def generalize(raw: Sequence[str]) -> tuple[str, ...]:
        labels = []
        for (attribute, level, seen), value in zip(columns, raw):
            label = seen.get(value)
            if label is None:
                label = seen[value] = hierarchy._label(attribute, level, value)
            labels.append(label)
        return tuple(labels)

    return generalize


def apply(table: Table, hierarchy: Hierarchy, node: Sequence[int]) -> Bucketization:
    """Bucket the table by generalized quasi-identifier tuples."""
    node = hierarchy.check_node(node)
    raw = zip(*_qi_columns(table, hierarchy))
    return _bucketize(table, map(_generalizer(hierarchy, node), raw))


def _bottom_tallies(table: Table, hierarchy: Hierarchy) -> Tallies:
    """Sensitive-value tallies per raw quasi-identifier tuple, in row order."""
    return _tallies(table, zip(*_qi_columns(table, hierarchy)))


def _rollup(
    bottom: Tallies, hierarchy: Hierarchy, node: Node
) -> list[tuple[int, ...]]:
    """The count tuples of ``apply(table, hierarchy, node)``'s buckets, in order.

    Relabels the bottom node's keys and sums the tallies of keys that meet,
    in time proportional to the tallies' entries.
    """
    return _count_tuples(_regroup(bottom, map(_generalizer(hierarchy, node), bottom)))


def _step(
    hierarchy: Hierarchy, attribute: str, level: int, raws: Iterable[str]
) -> dict[str, str]:
    """Map ``attribute``'s labels at ``level - 1`` to its labels at ``level``.

    Labels ``raws``, the attribute's distinct raw values in row order, at
    both levels, so the first value that ``level`` lacks raises the error
    its first row would; a label at ``level - 1``, such as "*", need not
    name that value. Refinement makes the map well defined.
    """
    return {
        hierarchy._label(attribute, level - 1, raw): hierarchy._label(attribute, level, raw)
        for raw in raws
    }


class SafetyThreshold(_Frozen):
    """Disclosure must stay strictly below c against k knowledge units.

    c is kept as an exact ``Fraction``: a float or an int becomes its exact
    value.
    """

    __slots__ = _fields = ("c", "k")

    def __init__(self, c: Fraction, k: int):
        if not isinstance(c, numbers.Real):
            raise ValidationError("threshold c must be a real number")
        if not 0 <= c <= 1:  # also refuses NaN
            raise ValidationError("threshold c must be within [0, 1]")
        _check_count(k, "threshold k")
        super().__init__(Fraction(c), k)


def is_safe(
    histograms: Histograms, threshold: SafetyThreshold, *, engine: Engine | None = None
) -> bool:
    """True iff worst-case disclosure against k implications stays below c.

    The sweep stops at the first bucket that proves the disclosure reaches c
    (``disclosure_reaches``); a safe input sweeps every bucket.
    """
    from .engine import disclosure_reaches

    return not disclosure_reaches(histograms, threshold.k, threshold.c, engine=engine)


def _height(node: Node) -> tuple[int, Node]:
    """The searches' utility order: total generalization height, ties broken
    by the level vector."""
    return (sum(node), node)


def binary_search_chain(
    table: Table,
    hierarchy: Hierarchy,
    chain: Iterable[Sequence[int]],
    threshold: SafetyThreshold,
) -> Node | None:
    """Least safe node on a totally ordered chain, or None if even the top fails.

    Safety is monotone going up the lattice, so the safe nodes form a suffix
    of the chain and binary search finds its first element with O(log) safety
    evaluations, all in one engine session, each on rolled-up histograms.
    """
    from .engine import Engine

    nodes = sorted({hierarchy.check_node(n) for n in chain}, key=_height)
    if not nodes:
        raise ValidationError("empty chain")
    for below, above in zip(nodes, nodes[1:]):
        if any(b > a for b, a in zip(below, above)):
            raise ValidationError(
                f"chain nodes {below} and {above} are not ordered"
            )
    bottom, engine = _bottom_tallies(table, hierarchy), Engine()
    safe = lambda node: is_safe(_rollup(bottom, hierarchy, node), threshold, engine=engine)
    low, high = 0, len(nodes) - 1
    if not safe(nodes[high]):
        return None
    while low < high:
        mid = (low + high) // 2
        if safe(nodes[mid]):
            high = mid
        else:
            low = mid + 1
    return nodes[low]


def all_minimal_safe(
    table: Table,
    hierarchy: Hierarchy,
    threshold: SafetyThreshold,
    *,
    budget: int = 100_000,
) -> list[Node]:
    """Every safe node with no safe node strictly below it.

    Sweeps the lattice bottom-up by total generalization height. A node
    dominating an already-found safe node is skipped: whatever its safety, it
    cannot be minimal. The result is an antichain, sorted by (height, vector).
    All evaluated nodes share one engine session.

    The bottom node is one grouping of the table. Every other evaluated node
    is rolled up from a child, the same node with one attribute a level
    lower, so the search keeps the tallies of one height below only. Every
    child of an evaluated node was itself evaluated: a skipped child
    dominates a safe node, and so would its parent, which would have been
    skipped too. Only the relabelled attribute can fail to label on a node
    whose children all succeeded, so the search raises the error that
    labelling the node's rows would.
    """
    from .engine import Engine

    _check_count(budget, "budget")
    size = hierarchy.size()
    if size > budget:
        raise BudgetExceededError(size, budget)
    order = sorted(hierarchy.nodes(), key=_height)
    minimal: list[Node] = []
    # the evaluated nodes one height down, the bottom node before the sweep;
    # its keys give each attribute's distinct raws in first-row order
    below: dict[Node, Tallies] = {hierarchy.bottom(): _bottom_tallies(table, hierarchy)}
    raws = [dict.fromkeys(values) for values in zip(*below[hierarchy.bottom()])]
    engine = Engine()
    for height, layer in itertools.groupby(order, key=sum):
        evaluated: dict[Node, Tallies] = {}
        for node in layer:
            if any(all(n >= m for n, m in zip(node, found)) for found in minimal):
                continue
            if height == 0:
                tallies = below[node]
            else:
                # every child was evaluated; take the one a level lower in
                # the first raised attribute
                j = next(j for j, level in enumerate(node) if level)
                child = below[(*node[:j], node[j] - 1, *node[j + 1 :])]
                step = _step(hierarchy, hierarchy.attributes[j], node[j], raws[j])
                tallies = _regroup(
                    child, ((*key[:j], step[key[j]], *key[j + 1 :]) for key in child)
                )
            evaluated[node] = tallies
            if is_safe(_count_tuples(tallies), threshold, engine=engine):
                minimal.append(node)
        below = evaluated
    return minimal
