"""Fixed pure-Python work that gauges how fast the host runs Python right now.

    python3 -I reference.py

The timed run starts this child between rounds of the program's operations
and divides each operation's wall time by the reference's time around its
round (see ``run.timed_run``). It imports nothing from bucketrisk, and ``-I``
keeps ./src off its path, so no change to the program moves it. Its work is
shaped like the program's: parse CSV text, group rows into value histograms,
sort them, and compare exact fractions kept in a memo dict. It prints a
checksum that must equal EXPECTED.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

ROWS = 30_000
EXPECTED = "histograms 500 distinct 125 best 36/65 memo 625"


def work(rows: int = ROWS) -> str:
    text = "\n".join(
        f"P{(i * 7919) % 10**7:07d},{14850 + i % 25},{20 + (i // 25) % 20},"
        f"{'FM'[i % 2]},D{(i * 2654435761 % 2**32 >> 20) % 14:02d}"
        for i in range(rows)
    )
    groups: dict[tuple[str, str], dict[str, int]] = {}
    for _, zip_code, age, _, disease in csv.reader(io.StringIO(text)):
        tally = groups.setdefault((zip_code, age), {})
        tally[disease] = tally.get(disease, 0) + 1
    histograms = sorted(tuple(sorted(t.values(), reverse=True)) for t in groups.values())
    memo: dict[tuple[tuple[int, ...], int], Fraction] = {}
    best = Fraction(0)
    for h in histograms:
        for k in range(1, 6):
            key = (h, k)
            if key not in memo:
                memo[key] = Fraction(sum(h[:k]), sum(h) + k)
            best = max(best, memo[key])
    return (f"histograms {len(histograms)} distinct {len(set(histograms))} "
            f"best {best} memo {len(memo)}")


if __name__ == "__main__":
    print(work())
