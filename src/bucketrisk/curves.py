"""Disclosure curves and plot-ready CSV emission.

Two experiment drivers: worst-case disclosure as the number of knowledge
units k grows (implications vs. the weaker negated-atoms class), and least
worst-case disclosure across a synthetic bucket family as its entropy
varies. Output is exact: every point carries a rational, and the CSV keeps
numerator and denominator alongside the decimal.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .engine import Histograms, disclosure_by_k
from .errors import _check_count, _check_sequence
from .table import Source, _Frozen, entropy


class CurvePoint(_Frozen):
    """One point of a series: disclosure ``value`` at ``x`` (k, or entropy in bits)."""

    __slots__ = _fields = ("series", "x", "value")


def disclosure_vs_k(histograms: Histograms, k_max: int) -> list[CurvePoint]:
    """Worst-case disclosure for k = 0..k_max, for both knowledge classes.

    ``histograms`` is a bucketization or its count tuples.
    """
    implications, negations = disclosure_by_k(histograms, k_max)
    points = [CurvePoint("implications", k, v) for k, v in enumerate(implications)]
    points += [CurvePoint("negations", k, v) for k, v in enumerate(negations)]
    return points


class SkewedSingleBucketFamily(_Frozen):
    """Single-bucket family sweeping entropy by skewing one value's count.

    Member t (t = 0..per_value) holds per_value + (domain_size-1)*t copies of
    the first value and per_value - t of each other, so the population stays
    fixed while entropy falls from log2(domain_size) (uniform, t=0) to 0
    (pure, t=per_value). Along this family disclosure rises as entropy falls
    for every k, which an unconstrained equal-entropy family does not
    guarantee. A member is its count tuple, descending, zero counts dropped.
    """

    __slots__ = _fields = ("domain_size", "per_value")

    def __init__(self, domain_size: int, per_value: int):
        super().__init__(domain_size, per_value)
        _check_count(domain_size, "domain_size", least=1)
        _check_count(per_value, "per_value", least=1)

    def members(self) -> Iterable[tuple[float, tuple[int, ...]]]:
        m, c = self.domain_size, self.per_value
        for t in range(c + 1):
            counts = tuple(filter(None, (c + (m - 1) * t,) + (c - t,) * (m - 1)))
            yield entropy(counts), counts


def entropy_vs_disclosure(family, k_list: Sequence[int]) -> list[CurvePoint]:
    """Least worst-case disclosure at each entropy value, one series per k."""
    _check_sequence(k_list, "k_list")
    for k in k_list:
        _check_count(k, "k")
    k_top = max(k_list, default=0)
    members = [(h, disclosure_by_k([counts], k_top)[0]) for h, counts in family.members()]
    points = []
    for k in k_list:
        best: dict[float, Fraction] = {}
        for h, curve in members:
            value = curve[k]
            if h not in best or value < best[h]:
                best[h] = value
        series = f"k={int(k)}"  # True is k = 1, and its series is "k=1"
        points += [CurvePoint(series, h, v) for h, v in best.items()]
    return points


def _format_x(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def emit_csv(points: Iterable[CurvePoint], destination: Source) -> None:
    """Write points as `series,x,num,den,decimal`, sorted, bit-exact."""
    ordered = sorted(points, key=lambda p: (p.series, p.x))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["series", "x", "num", "den", "decimal"])
    for p in ordered:
        writer.writerow(
            [
                p.series,
                _format_x(p.x),
                p.value.numerator,
                p.value.denominator,
                repr(float(p.value)),
            ]
        )
    text = buffer.getvalue()
    if isinstance(destination, (str, Path)):
        Path(destination).write_text(text, encoding="utf-8")
    else:
        destination.write(text)

