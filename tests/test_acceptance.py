"""End-to-end acceptance gate.

Eight checks, one test function each, in order; ``pytest -v
tests/test_acceptance.py`` prints one pass or fail line per criterion.
Criteria 2 and 6 register every optimizer result they produce; criterion 8
replays those witnesses through the exact enumeration oracle, regenerating
them first when it is run in isolation.
"""

import itertools
import random
import time
from fractions import Fraction

from bucketrisk import (
    Atom,
    BasicImplication,
    Bucketization,
    Engine,
    Knowledge,
    SafetyThreshold,
    SkewedSingleBucketFamily,
    all_minimal_safe,
    apply,
    avoidance_probability,
    disclosure_vs_k,
    entropy_vs_disclosure,
    exact_posterior,
    knowledge_probability,
    make_bucket,
    max_disclosure,
    negation_as_implication,
    parse_knowledge,
    simple_implication,
    world_count,
)
from bucketrisk.errors import InconsistentKnowledgeError
from bucketrisk.oracle import COMMON_CONSEQUENT, SIMPLE, brute_force_max_disclosure
from helpers import random_bucketization, random_table_and_hierarchy

# (bucketization, report) pairs registered by criteria 2 and 6, replayed by 8
WITNESSES = []


def test_criterion_1_golden_posteriors(demo_bucketization):
    """Four pinned posteriors on the demo table, exact and under a second."""
    b = demo_bucketization
    started = time.perf_counter()
    ed = Atom("Ed", "Lung Cancer")
    not_mumps = negation_as_implication(Atom("Ed", "Mumps"), b.domain)
    not_flu = negation_as_implication(Atom("Ed", "Flu"), b.domain)
    assert exact_posterior(b, Knowledge(()), ed) == Fraction(2, 5)
    assert exact_posterior(b, Knowledge((not_mumps,)), ed) == Fraction(1, 2)
    assert exact_posterior(b, Knowledge((not_mumps, not_flu)), ed) == 1
    hannah = parse_knowledge("(Hannah=Flu) -> (Charlie=Flu)\n")
    assert exact_posterior(b, hannah, Atom("Charlie", "Flu")) == Fraction(10, 19)
    assert time.perf_counter() - started < 1.0


def _equivalence_instances():
    for i in range(200):
        rng = random.Random(4000 + i)
        if i % 4 == 3:
            yield random_bucketization(
                rng, max_tuples=8, max_buckets=3, max_values=4, min_values=2
            )
        else:
            yield random_bucketization(rng, max_tuples=6, max_buckets=3, max_values=3)


def test_criterion_2_oracle_dp_equivalence():
    """Optimizer equals exhaustive search, restricted or not, on 200 instances.

    For k in {0, 1, 2}: the polynomial optimizer, the exhaustive maximum over
    conjunctions of k simple implications, and the exhaustive maximum with all
    consequents forced equal must agree exactly.
    """
    checked = 0
    for b13n in _equivalence_instances():
        assert world_count(b13n) <= 100_000
        for k in (0, 1, 2):
            report = max_disclosure(b13n, k)
            unrestricted, _, _ = brute_force_max_disclosure(b13n, k, SIMPLE)
            shared, _, _ = brute_force_max_disclosure(b13n, k, COMMON_CONSEQUENT)
            assert report.disclosure == unrestricted
            assert report.disclosure == shared
            WITNESSES.append((b13n, report))
            checked += 1
    assert checked == 600


def _random_atom(rng, b13n):
    return Atom(rng.choice(sorted(b13n.bucket_of)), rng.choice(b13n.domain))


def _random_side_knowledge(rng, b13n):
    if rng.random() < 0.5:
        return ()
    return (simple_implication(_random_atom(rng, b13n), _random_atom(rng, b13n)),)


def test_criterion_3_replacement_inequalities():
    """Rewriting knowledge toward the queried atom never lowers its posterior."""
    # replacing every consequent disjunction with the queried atom itself
    rng = random.Random(3000)
    valid = attempts = 0
    while valid < 100:
        attempts += 1
        assert attempts < 3000, "too many degenerate samples"
        b13n = random_bucketization(rng, max_tuples=6, max_values=3)
        queried = _random_atom(rng, b13n)
        side = _random_side_knowledge(rng, b13n)
        k = rng.choice((1, 2))
        antecedents = [
            tuple(_random_atom(rng, b13n) for _ in range(rng.randint(1, 2)))
            for _ in range(k)
        ]
        consequents = [
            tuple(_random_atom(rng, b13n) for _ in range(rng.randint(1, 2)))
            for _ in range(k)
        ]
        arbitrary = Knowledge(
            side + tuple(BasicImplication(a, c) for a, c in zip(antecedents, consequents))
        )
        rewritten = Knowledge(
            side + tuple(BasicImplication(a, (queried,)) for a in antecedents)
        )
        try:
            lhs = exact_posterior(b13n, arbitrary, queried)
            rhs = exact_posterior(b13n, rewritten, queried)
        except InconsistentKnowledgeError:
            continue
        assert lhs <= rhs
        valid += 1

    # replacing conjunction antecedents with the best single atoms
    rng = random.Random(3500)
    valid = attempts = 0
    while valid < 100:
        attempts += 1
        assert attempts < 3000, "too many degenerate samples"
        b13n = random_bucketization(rng, max_tuples=5, max_values=3)
        target = _random_atom(rng, b13n)
        side = _random_side_knowledge(rng, b13n)
        k = rng.choice((1, 2))
        antecedents = [
            tuple(_random_atom(rng, b13n) for _ in range(rng.randint(1, 2)))
            for _ in range(k)
        ]
        conjunctions = Knowledge(
            side + tuple(BasicImplication(a, (target,)) for a in antecedents)
        )
        try:
            lhs = exact_posterior(b13n, conjunctions, target)
        except InconsistentKnowledgeError:
            continue
        atoms = [Atom(p, v) for p in sorted(b13n.bucket_of) for v in b13n.domain]
        best = None
        for combo in itertools.combinations_with_replacement(atoms, k):
            knowledge = Knowledge(
                side + tuple(simple_implication(a, target) for a in combo)
            )
            try:
                value = exact_posterior(b13n, knowledge, target)
            except InconsistentKnowledgeError:
                continue
            if best is None or value > best:
                best = value
        assert best is not None  # target -> target is always consistent
        assert lhs <= best
        valid += 1


def test_criterion_4_closed_form_vs_counting():
    """The product formula for avoiding top values equals direct world counting."""
    rng = random.Random(44)
    shapes = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    buckets = 0
    while buckets < 50:
        counts = sorted(
            (rng.randint(1, 4) for _ in range(rng.randint(2, 4))), reverse=True
        )
        n = sum(counts)
        if n > 8:
            continue
        values = [f"v{i}" for i, c in enumerate(counts) for _ in range(c)]
        bucket = make_bucket("b", [f"p{j}" for j in range(n)], values)
        domain = tuple(f"v{i}" for i in range(len(counts))) + ("zz",)
        b13n = Bucketization((bucket,), domain)
        for parts in shapes:
            if len(parts) > n:
                continue
            atoms = [
                Atom(bucket.members[i], value)
                for i, p in enumerate(parts)
                for value, _ in bucket.histogram[:p]
            ]
            negations = Knowledge(
                tuple(negation_as_implication(a, domain) for a in atoms)
            )
            assert avoidance_probability(bucket.counts, parts) == knowledge_probability(
                b13n, negations
            )
        buckets += 1


def test_criterion_5_lattice_monotonicity_and_search():
    """Coarser generalizations never disclose more; search equals a full sweep."""
    rng = random.Random(55)
    for _ in range(6):
        table, hierarchy = random_table_and_hierarchy(rng)
        nodes = list(hierarchy.nodes())
        applied = {n: apply(table, hierarchy, n) for n in nodes}
        for k in (0, 1, 2):
            disclosure = {n: max_disclosure(applied[n], k).disclosure for n in nodes}
            for low, high in itertools.product(nodes, repeat=2):
                if all(a <= b for a, b in zip(low, high)):
                    assert disclosure[low] >= disclosure[high]
            thresholds = (sorted(disclosure.values())[len(nodes) // 2], Fraction(1))
            for c in thresholds:
                got = all_minimal_safe(table, hierarchy, SafetyThreshold(c, k))
                safe = {n: disclosure[n] < c for n in nodes}
                expected = sorted(
                    (
                        n
                        for n in nodes
                        if safe[n]
                        and not any(
                            safe[m]
                            and m != n
                            and all(x <= y for x, y in zip(m, n))
                            for m in nodes
                        )
                    ),
                    key=lambda node: (sum(node), node),
                )
                assert got == expected


def _uniform_single_bucket(size):
    domain = tuple(f"s{i:02d}" for i in range(size))
    bucket = make_bucket("u", tuple(f"q{i:02d}" for i in range(size)), domain)
    return Bucketization((bucket,), domain)


def _curve_cases(demo_bucketization):
    cases = [(demo_bucketization, 5, None)]
    cases += [
        (_uniform_single_bucket(size), size - 1, size) for size in (3, 4, 5, 14)
    ]
    return cases


def test_criterion_6_saturation_and_ordering(demo_bucketization):
    """Curves rise with k, negations never beat implications, saturation is exact."""
    for b13n, k_max, size in _curve_cases(demo_bucketization):
        points = disclosure_vs_k(b13n, k_max)
        impl = {p.x: p.value for p in points if p.series == "implications"}
        neg = {p.x: p.value for p in points if p.series == "negations"}
        for k in range(k_max):
            assert impl[k] <= impl[k + 1]
            assert neg[k] <= neg[k + 1]
        for k in range(k_max + 1):
            assert neg[k] <= impl[k]
            WITNESSES.append((b13n, max_disclosure(b13n, k)))
        if size is not None:
            # a uniform bucket of d values saturates exactly at k = d - 1
            assert impl[size - 1] == 1
            assert impl[size - 2] < 1
            assert neg[size - 1] == 1

    family = SkewedSingleBucketFamily(domain_size=8, per_value=3)
    points = entropy_vs_disclosure(family, [0, 1, 3])
    for k in (0, 1, 3):
        data = {p.x: p.value for p in points if p.series == f"k={k}"}
        values = [data[h] for h in sorted(data)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


def test_criterion_7_complexity_scaling():
    """Ten thousand buckets, twelve knowledge units, well under ten seconds."""
    rng = random.Random(7)
    pool = []
    for _ in range(40):
        size = rng.randint(14, 17)
        counts = [1] * 14
        for _ in range(size - 14):
            counts[rng.randrange(14)] += 1
        pool.append(tuple(sorted(counts, reverse=True)))
    domain = tuple(f"v{j:02d}" for j in range(14))
    buckets = []
    for i in range(10_000):
        counts = pool[i % len(pool)]
        values = [domain[j] for j, c in enumerate(counts) for _ in range(c)]
        buckets.append(
            make_bucket(f"b{i}", [f"p{i}_{j}" for j in range(len(values))], values)
        )
    big = Bucketization(tuple(buckets), domain)

    session = Engine()
    started = time.perf_counter()
    report = max_disclosure(big, 12, engine=session)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    for entries in session.within_entries.values():
        assert entries <= 27 * 12**3
    assert session.across_entries <= 4 * len(big.buckets) * 12
    assert report.disclosure == Fraction(30, 31)  # non-degenerate optimum


def test_criterion_8_witness_soundness(demo_bucketization):
    """Every reported worst case replays exactly through the enumeration oracle."""
    if not WITNESSES:  # regenerate when this test runs alone
        for b13n in _equivalence_instances():
            for k in (0, 1, 2):
                WITNESSES.append((b13n, max_disclosure(b13n, k)))
        for b13n, k_max, _ in _curve_cases(demo_bucketization):
            for k in range(k_max + 1):
                WITNESSES.append((b13n, max_disclosure(b13n, k)))
    assert len(WITNESSES) >= 600
    for b13n, report in WITNESSES:
        got = exact_posterior(b13n, Knowledge(report.implications), report.target)
        assert got == report.disclosure
