import itertools
import random
from collections import Counter
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bucketrisk import (
    Atom,
    BasicImplication,
    BudgetExceededError,
    Bucketization,
    InconsistentKnowledgeError,
    Knowledge,
    ValidationError,
    exact_posterior,
    knowledge_holds,
    knowledge_probability,
    make_bucket,
    negation_as_implication,
    parse_knowledge,
    simple_implication,
    world_count,
)
from bucketrisk.oracle import (
    COMMON_CONSEQUENT,
    NEGATED_ATOMS,
    SIMPLE,
    _mentioned_sequences,
    _posterior_projected,
    _projected_size,
    brute_force_max_disclosure,
)
from helpers import child_env, random_bucketization, reference_brute_force


def imp(a, b):
    return simple_implication(Atom(*a), Atom(*b))


def test_world_counts(demo_bucketization):
    assert world_count(demo_bucketization) == 1800  # 30 male * 60 female
    male_only = Bucketization(
        (demo_bucketization.buckets[0],), demo_bucketization.domain
    )
    assert world_count(male_only) == 30
    single = Bucketization((make_bucket("b", ["p"], ["a"]),), ("a",))
    assert world_count(single) == 1


def test_posterior_anecdotes(demo_bucketization):
    b = demo_bucketization
    ed = Atom("Ed", "Lung Cancer")
    not_mumps = negation_as_implication(Atom("Ed", "Mumps"), b.domain)
    not_flu = negation_as_implication(Atom("Ed", "Flu"), b.domain)
    assert exact_posterior(b, Knowledge(()), ed) == Fraction(2, 5)
    assert exact_posterior(b, Knowledge((not_mumps,)), ed) == Fraction(1, 2)
    assert exact_posterior(b, Knowledge((not_mumps, not_flu)), ed) == 1
    hannah = parse_knowledge("(Hannah=Flu) -> (Charlie=Flu)\n")
    assert exact_posterior(b, hannah, Atom("Charlie", "Flu")) == Fraction(10, 19)


def test_empty_knowledge_is_bucket_frequency(demo_bucketization):
    b = demo_bucketization
    for bucket in b.buckets:
        for person in bucket.members:
            for value in b.domain:
                got = exact_posterior(b, Knowledge(()), Atom(person, value))
                assert got == Fraction(bucket.count(value), bucket.size)


def test_knowledge_probability(demo_bucketization):
    b = demo_bucketization
    assert knowledge_probability(b, Knowledge(())) == 1
    hannah = parse_knowledge("(Hannah=Flu) -> (Charlie=Flu)\n")
    assert knowledge_probability(b, hannah) == Fraction(19, 25)


def test_inconsistent_knowledge():
    b = Bucketization((make_bucket("b", ["p"], ["a"]),), ("a", "z"))
    forced = Knowledge((imp(("p", "a"), ("p", "z")),))
    with pytest.raises(InconsistentKnowledgeError):
        exact_posterior(b, forced, Atom("p", "a"))
    assert knowledge_probability(b, forced) == 0


def test_unknown_atom_rejected(demo_bucketization):
    with pytest.raises(ValidationError):
        exact_posterior(demo_bucketization, Knowledge(()), Atom("Nobody", "Flu"))
    with pytest.raises(ValidationError):
        exact_posterior(demo_bucketization, Knowledge(()), Atom("Bob", "Plague"))


def test_budget_exceeded(demo_bucketization):
    # tautologies mentioning everyone defeat the projection shortcut
    people = sorted(demo_bucketization.bucket_of)
    noisy = Knowledge(tuple(imp((p, "Flu"), (p, "Flu")) for p in people))
    with pytest.raises(BudgetExceededError) as e:
        exact_posterior(demo_bucketization, noisy, Atom("Bob", "Flu"), budget=1000)
    assert e.value.count == 1800
    assert e.value.budget == 1000
    # the same posterior is reachable by raising the budget
    got = exact_posterior(demo_bucketization, noisy, Atom("Bob", "Flu"), budget=1800)
    assert got == Fraction(2, 5)


def test_budget_refusal_is_counted_not_walked():
    # 9 of the 12 members of a bucket holding six values twice each
    members = [f"p{i:02d}" for i in range(12)]
    values = [v for v in "abcdef" for _ in range(2)]
    b = Bucketization((make_bucket("b", members, values),), tuple("abcdef"))
    noisy = Knowledge(tuple(imp((p, "a"), (p, "a")) for p in members[:9]))
    with pytest.raises(BudgetExceededError) as e:
        exact_posterior(b, noisy, Atom("p00", "a"), budget=1000)
    assert e.value.count == 1_587_600


@given(
    values=st.lists(st.sampled_from("abc"), min_size=1, max_size=7),
    q=st.integers(min_value=0, max_value=7),
)
def test_projected_size_counts_sequences(values, q):
    q = min(q, len(values))
    members = [f"p{i}" for i in range(len(values))]
    b = Bucketization((make_bucket("b", members, values),), tuple("abc"))
    expected = len(set(itertools.permutations(values, q)))
    assert _projected_size(b, set(members[:q])) == expected


@given(values=st.lists(st.sampled_from("abcd"), min_size=1, max_size=7))
def test_sequence_weights_count_the_completions_of_each_prefix(values):
    bucket = make_bucket("b", [f"p{i}" for i in range(len(values))], values)
    worlds = set(itertools.permutations(values))
    for q in range(len(values) + 1):
        sequences = _mentioned_sequences(bucket, q)
        # the weights sum to n_b! / prod_s c_s!, the bucket's world count
        assert sum(weight for _, weight in sequences) == len(worlds)
        completions = Counter(world[:q] for world in worlds)
        assert sequences == sorted(completions.items())


def random_knowledge(rng, bucketization, max_impls=2):
    persons = sorted(bucketization.bucket_of)
    domain = bucketization.domain

    def atom():
        return Atom(rng.choice(persons), rng.choice(domain))

    impls = []
    for _ in range(rng.randint(0, max_impls)):
        ants = tuple(atom() for _ in range(rng.randint(1, 2)))
        cons = tuple(atom() for _ in range(rng.randint(1, 2)))
        impls.append(BasicImplication(ants, cons))
    return Knowledge(tuple(impls))


def count_worlds(bucketization, knowledge, target):
    """(target-and-knowledge, knowledge, total) world counts, world by world."""
    buckets = bucketization.buckets
    per_bucket = [
        set(itertools.permutations([v for v, c in b.histogram for _ in range(c)]))
        for b in buckets
    ]
    num = den = total = 0
    for world in itertools.product(*per_bucket):
        assignment = {
            p: v for b, values in zip(buckets, world) for p, v in zip(b.members, values)
        }
        total += 1
        if knowledge_holds(assignment, knowledge):
            den += 1
            num += assignment[target.person] == target.value
    return num, den, total


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_projected_equals_full(seed):
    rng = random.Random(seed)
    b = random_bucketization(rng, max_tuples=6, max_buckets=3, max_values=3)
    knowledge = random_knowledge(rng, b)
    persons = sorted(b.bucket_of)
    target = Atom(rng.choice(persons), rng.choice(b.domain))
    fn, fd, ft = count_worlds(b, knowledge, target)
    pn, pd, pt = _posterior_projected(b, knowledge, target, 10_000_000)
    # same posterior and same knowledge probability, up to the projection factor
    assert fn * pd == pn * fd
    assert fd * pt == pd * ft


def test_brute_force_demo_goldens(demo_bucketization):
    b = demo_bucketization
    v0, w0, t0 = brute_force_max_disclosure(b, 0)
    assert (v0, w0, t0) == (Fraction(2, 5), Knowledge(()), Atom("Bob", "Flu"))

    v1, w1, t1 = brute_force_max_disclosure(b, 1)
    assert v1 == Fraction(2, 3)
    assert t1 == Atom("Bob", "Flu")
    assert w1.implications == (
        imp(("Bob", "Lung Cancer"), ("Bob", "Breast Cancer")),
    )


def test_brute_force_demo_k2(demo_bucketization):
    v2, w2, t2 = brute_force_max_disclosure(demo_bucketization, 2)
    assert v2 == 1
    assert t2 == Atom("Bob", "Flu")
    assert w2.implications == (
        imp(("Bob", "Lung Cancer"), ("Bob", "Breast Cancer")),
        imp(("Bob", "Mumps"), ("Bob", "Breast Cancer")),
    )


def test_brute_force_families_agree_small():
    rng = random.Random(77)
    for _ in range(5):
        b = random_bucketization(rng, max_tuples=5, max_buckets=2, max_values=3)
        for k in (0, 1):
            vs, _, _ = brute_force_max_disclosure(b, k, SIMPLE)
            vc, _, _ = brute_force_max_disclosure(b, k, COMMON_CONSEQUENT)
            vn, _, _ = brute_force_max_disclosure(b, k, NEGATED_ATOMS)
            assert vs == vc
            assert vn <= vs


def test_brute_force_witness_replays(demo_bucketization):
    v, w, t = brute_force_max_disclosure(demo_bucketization, 1)
    assert exact_posterior(demo_bucketization, w, t) == v


def test_brute_force_guards(demo_bucketization):
    with pytest.raises(ValidationError):
        brute_force_max_disclosure(demo_bucketization, -1)
    with pytest.raises(ValidationError):
        brute_force_max_disclosure(demo_bucketization, 4)  # over max_k
    with pytest.raises(ValidationError):
        brute_force_max_disclosure(demo_bucketization, 1, "no-such-family")
    with pytest.raises(BudgetExceededError):
        brute_force_max_disclosure(demo_bucketization, 1, budget=100)
    # raising max_k explicitly is allowed
    b = Bucketization((make_bucket("b", ["p", "q"], ["a", "b"]),), ("a", "b"))
    v, _, _ = brute_force_max_disclosure(b, 4, max_k=4)
    assert v == 1


def test_bucket_values_outside_the_domain_are_refused_before_the_oracle():
    # the oracle indexes atoms by domain position, so such a bucketization
    # once made brute_force_max_disclosure fail with an IndexError
    with pytest.raises(ValidationError, match="value 'x' outside the domain"):
        brute_force_max_disclosure(
            Bucketization((make_bucket("b", ["p", "q"], ["x", "y"]),), ("a",)), 0
        )


EMPTY_BRUTE_FORCE = """
from bucketrisk import Bucketization, ValidationError, brute_force_max_disclosure
try:
    brute_force_max_disclosure(Bucketization((), ("a", "b")), 1)
except ValidationError as exc:
    print(exc)
"""


def test_brute_force_rejects_empty_bucketization():
    """The same ValidationError as max_disclosure, also under -O, which strips asserts."""
    with pytest.raises(ValidationError, match="^empty bucketization$"):
        brute_force_max_disclosure(Bucketization((), ("a", "b")), 1)
    result = subprocess.run([sys.executable, "-O", "-c", EMPTY_BRUTE_FORCE],
                            capture_output=True, text=True, env=child_env(), check=True)
    assert (result.stdout, result.stderr) == ("empty bucketization\n", "")


FAMILIES = (SIMPLE, COMMON_CONSEQUENT, NEGATED_ATOMS)


def _shuffled_domain(b, rng):
    domain = list(b.domain)
    rng.shuffle(domain)
    return Bucketization(b.buckets, tuple(domain))


def test_brute_force_witness_ignores_domain_order(demo_bucketization):
    rng = random.Random(1313)
    shuffled = _shuffled_domain(demo_bucketization, rng)
    assert shuffled.domain != demo_bucketization.domain
    for k in (0, 1):
        assert brute_force_max_disclosure(
            shuffled, k
        ) == brute_force_max_disclosure(demo_bucketization, k)
    changed = 0
    for _ in range(25):
        b = random_bucketization(rng, max_tuples=6, min_values=2)
        shuffled = _shuffled_domain(b, rng)
        changed += shuffled.domain != b.domain
        for kind in FAMILIES:
            for k in (0, 1, 2):
                assert brute_force_max_disclosure(
                    shuffled, k, kind
                ) == brute_force_max_disclosure(b, k, kind)
    assert changed >= 12


def test_brute_force_matches_per_target_reference():
    rng = random.Random(1314)
    checked = 0
    for _ in range(60):
        b = random_bucketization(rng, max_tuples=7, min_values=2)
        for kind in FAMILIES:
            for k in (0, 1, 2):
                try:
                    got = brute_force_max_disclosure(b, k, kind, budget=5000)
                except BudgetExceededError:
                    continue
                assert got == reference_brute_force(b, k, kind)
                checked += 1
    assert checked >= 500


def test_brute_force_budget_caps_conjunctions(demo_bucketization):
    # 1056 distinct simple implications: sum of C(1056, j) for j <= k
    with pytest.raises(BudgetExceededError) as e:
        brute_force_max_disclosure(demo_bucketization, 3)
    assert e.value.count == 196_264_817
    assert "search conjunction count" in str(e.value)
    with pytest.raises(BudgetExceededError) as e:
        brute_force_max_disclosure(demo_bucketization, 2, budget=558_096)
    assert e.value.count == 558_097
    # two worlds; each consequent keeps 2 distinct implications, so the
    # common-consequent search counts 4 * (1 + 2) = 12 conjunctions at k = 1
    b = Bucketization((make_bucket("b", ["p", "q"], ["a", "b"]),), ("a", "b"))
    with pytest.raises(BudgetExceededError) as e:
        brute_force_max_disclosure(b, 1, COMMON_CONSEQUENT, budget=11)
    assert e.value.count == 12
    assert brute_force_max_disclosure(b, 1, COMMON_CONSEQUENT, budget=12)[0] == 1
