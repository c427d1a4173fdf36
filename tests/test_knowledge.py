import pytest
from hypothesis import example, given, strategies as st

from bucketrisk import (
    Atom,
    BasicImplication,
    Knowledge,
    ParseError,
    ValidationError,
    knowledge_holds,
    negation_as_implication,
    parse_atom,
    parse_knowledge,
    simple_implication,
)
from bucketrisk.knowledge import _quote, _tokenize
from conftest import DATA


def imp(a, b):
    return simple_implication(Atom(*a), Atom(*b))


def test_parse_plain():
    k = parse_knowledge("(Hannah=Flu) -> (Charlie=Flu)\n")
    assert k.implications == (imp(("Hannah", "Flu"), ("Charlie", "Flu")),)


def test_parse_quoted_and_multiline():
    text = '# background\n("Bob"="Lung Cancer") -> (Bob=Flu)\n\n(Ed=Flu) -> (Ed=Mumps)\n'
    k = parse_knowledge(text)
    assert len(k) == 2
    assert k.implications[0].antecedents == (Atom("Bob", "Lung Cancer"),)
    assert k.implications[1].consequents == (Atom("Ed", "Mumps"),)


def test_parse_and_or():
    k = parse_knowledge("(A=x & B=y) -> (C=z | D=w)\n(A=x AND B=y) -> (C=z OR D=w)\n")
    first, second = k.implications
    assert first == second
    assert first.antecedents == (Atom("A", "x"), Atom("B", "y"))
    assert first.consequents == (Atom("C", "z"), Atom("D", "w"))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_knowledge("(A=x) -> (B=y)\n(A=x -> (B=y)\n")
    assert e.value.line == 2
    assert e.value.column == 6  # at '->' where ')' was expected

    with pytest.raises(ParseError) as e:
        parse_knowledge('(A="unterminated) -> (B=y)')
    assert (e.value.line, e.value.column) == (1, 4)  # at the opening quote

    with pytest.raises(ParseError) as e:
        parse_knowledge("(A=x) -> (B=y) junk")
    assert "trailing" in str(e.value)


def test_parse_atom():
    assert parse_atom('Bob="Lung Cancer"') == Atom("Bob", "Lung Cancer")
    with pytest.raises(ParseError):
        parse_atom("Bob")
    with pytest.raises(ParseError):
        parse_atom("Bob=Flu extra")


def test_parse_with_table_validation(demo_table):
    ok = parse_knowledge("(Hannah=Flu) -> (Charlie=Flu)\n", table=demo_table)
    assert len(ok) == 1
    # the knowledge file the command-line examples read, with its comment line
    flu = parse_knowledge((DATA / "flu.bk").read_text(encoding="utf-8"), table=demo_table)
    assert flu == ok and parse_knowledge(str(flu)) == flu
    with pytest.raises(ValidationError):
        parse_knowledge("(Nobody=Flu) -> (Charlie=Flu)\n", table=demo_table)
    with pytest.raises(ValidationError):
        parse_knowledge("(Hannah=Plague) -> (Charlie=Flu)\n", table=demo_table)


def test_empty_implication_rejected():
    with pytest.raises(ValidationError):
        BasicImplication(antecedents=(), consequents=(Atom("A", "x"),))
    with pytest.raises(ValidationError):
        BasicImplication(antecedents=(Atom("A", "x"),), consequents=())


names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=6,
) | st.sampled_from(["Lung Cancer", "a b", "x->y", "(odd)", "A=B", "#tag", "v|w"])

atoms = st.builds(Atom, person=names, value=names)
implications = st.builds(
    lambda ants, cons: BasicImplication(tuple(ants), tuple(cons)),
    st.lists(atoms, min_size=1, max_size=3),
    st.lists(atoms, min_size=1, max_size=3),
)


@given(st.lists(implications, max_size=4))
@example([BasicImplication((Atom("AND", "OR"),), (Atom("OR", "AND"),))])
def test_format_parse_roundtrip(impls):
    k = Knowledge(tuple(impls))
    assert parse_knowledge(str(k)) == k
    for atom in k.atoms():
        for label in (atom.person, atom.value):
            assert _tokenize(_quote(label), 1) == [("word", label, 1)]


# the grammar's punctuation and keywords, and line breaks, among any characters
fragments = st.sampled_from(
    ["(", ")", "=", "&", "|", '"', "#", "->", "-", ">", "AND", "OR", "A", "O",
     " ", "\t", "\n", "\r", "\x85", "\u2028", "a", "\u00e9", ","]
)


@given(st.lists(fragments | st.characters(), max_size=30).map("".join))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        assert isinstance(parse_atom(text), Atom)
    except ParseError:
        pass
    try:
        k = parse_knowledge(text)
    except ParseError:
        return
    assert parse_knowledge(str(k)) == k


def holds(assignment, impl):
    return knowledge_holds(assignment, Knowledge((impl,)))


def test_implication_holds_cases():
    assignment = {"A": "x", "B": "y", "C": "z"}
    assert holds(assignment, imp(("A", "q"), ("B", "q")))  # vacuous
    assert holds(assignment, imp(("A", "x"), ("B", "y")))
    assert not holds(assignment, imp(("A", "x"), ("B", "q")))
    both = BasicImplication((Atom("A", "x"), Atom("B", "y")), (Atom("C", "z"),))
    assert holds(assignment, both)
    assert not holds(
        assignment, BasicImplication((Atom("A", "x"),), (Atom("B", "q"), Atom("C", "q")))
    )
    for unknown in (imp(("Ghost", "x"), ("A", "x")), imp(("A", "x"), ("Ghost", "x"))):
        with pytest.raises(ValidationError, match="unknown person 'Ghost'"):
            holds(assignment, unknown)


def test_knowledge_holds_is_conjunction():
    assignment = {"A": "x", "B": "y"}
    good = imp(("A", "x"), ("B", "y"))
    bad = imp(("A", "x"), ("B", "q"))
    assert knowledge_holds(assignment, Knowledge((good,)))
    assert not knowledge_holds(assignment, Knowledge((good, bad)))
    assert knowledge_holds(assignment, Knowledge(()))


@given(
    person=st.sampled_from(["p", "q"]),
    value=st.sampled_from(["a", "b", "c"]),
    actual_p=st.sampled_from(["a", "b", "c"]),
    actual_q=st.sampled_from(["a", "b", "c"]),
)
def test_negation_encoding_is_exact(person, value, actual_p, actual_q):
    # the encoding holds in an assignment iff the atom does not
    domain = ("a", "b", "c")
    encoded = negation_as_implication(Atom(person, value), domain)
    assignment = {"p": actual_p, "q": actual_q}
    assert holds(assignment, encoded) == (assignment[person] != value)


def test_negation_picks_smallest_alternative():
    n = negation_as_implication(Atom("p", "b"), ("c", "b", "a"))
    assert n == imp(("p", "b"), ("p", "a"))
    with pytest.raises(ValidationError):
        negation_as_implication(Atom("p", "only"), ("only",))


def test_str_forms_quote_when_needed():
    a = Atom("Bob", "Lung Cancer")
    assert str(a) == 'Bob="Lung Cancer"'
    assert str(imp(("A", "x"), ("B", "y"))) == "(A=x) -> (B=y)"


def test_str_renders_knowledge_one_implication_a_line():
    k = Knowledge((imp(("A", "x"), ("B", "y")), imp(("Bob", "Lung Cancer"), ("a b", "AND"))))
    assert str(k) == '(A=x) -> (B=y)\n(Bob="Lung Cancer") -> ("a b"="AND")'
    assert str(Knowledge()) == ""
    with pytest.raises(ValidationError) as error:
        str(Knowledge((imp(('a b"', "x"), ("B", "y")),)))
    assert str(error.value) == """cannot render 'a b"': embedded quote"""


# every character at which str.splitlines ends a line
LINE_BREAKS = [c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
@pytest.mark.parametrize("text", ["a{}b", "a b{}"])  # bare, and quoted
def test_labels_with_line_breaks_are_not_rendered(brk, text):
    # rendered, such a label would split its implication across lines and
    # not parse back
    label = text.format(brk)
    for atom in (Atom(label, "Flu"), Atom("Bob", label)):
        with pytest.raises(ValidationError, match="^cannot render .*: line break$"):
            str(atom)
        with pytest.raises(ValidationError, match="line break"):
            str(Knowledge((simple_implication(atom, Atom("Ed", "Flu")),)))
