"""The background-knowledge language.

An atom asserts that a named person's sensitive value equals a named value. A
basic implication says: if every antecedent atom holds then at least one
consequent atom holds. Knowledge is a conjunction of k basic implications; k=0
means the attacker brings identification information only.

Negated atoms are not primitive. Because each person has exactly one sensitive
value, "p's value is not s" is expressed exactly by the implication
(p=s) -> (p=s') for any s' != s; ``negation_as_implication`` picks the
canonical s' (smallest domain value != s in lexicographic order).

The engine answers from count tuples and names no person: ``_witness`` spells
its optimum, a placement and each named bucket's per-person atom counts, out
as the target and implications of a witness for ``engine.max_disclosure``.

File grammar (one implication per line, ``#`` starts a comment):

    impl := '(' conj ')' '->' '(' disj ')'
    conj := atom (('&'|'AND') atom)*
    disj := atom (('|'|'OR') atom)*
    atom := ident '=' value

An ident or value is a bare word (``_WORD``: no blank, tab, ``#``, ``"``,
``(``, ``)``, ``=``, ``&`` or ``|``, and no ``->``) other than the keywords
``AND`` and ``OR``, or any text without ``"`` quoted with ``"``.
"""

from __future__ import annotations

import re
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import ParseError, ValidationError
from .table import _LINE_BREAKS, Bucket, Table, _Frozen


class _Ordered(_Frozen):
    """A value that orders by its field tuple against values of its class."""

    __slots__ = ()

    # > and >= reflect to these
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() < other._astuple()
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() <= other._astuple()
        return NotImplemented


class Atom(_Ordered):
    """Assertion that ``person``'s sensitive value is ``value``.

    Atoms order by person, then value.
    """

    __slots__ = _fields = ("person", "value")

    def __str__(self) -> str:
        return f"{_quote(self.person)}={_quote(self.value)}"


class BasicImplication(_Ordered):
    """(A_0 & ... & A_{m-1}) -> (B_0 | ... | B_{n-1}), with m >= 1 and n >= 1.

    Implications order by antecedents, then consequents.
    """

    __slots__ = _fields = ("antecedents", "consequents")

    def __init__(self, antecedents: tuple[Atom, ...], consequents: tuple[Atom, ...]) -> None:
        super().__init__(antecedents, consequents)
        if not self.antecedents or not self.consequents:
            raise ValidationError("implication needs >= 1 antecedent and consequent")

    def __str__(self) -> str:
        left = " & ".join(str(a) for a in self.antecedents)
        right = " | ".join(str(b) for b in self.consequents)
        return f"({left}) -> ({right})"


def simple_implication(antecedent: Atom, consequent: Atom) -> BasicImplication:
    return BasicImplication(antecedents=(antecedent,), consequents=(consequent,))


class Knowledge(_Frozen):
    """A conjunction of basic implications."""

    __slots__ = _fields = ("implications",)

    def __init__(self, implications: tuple[BasicImplication, ...] = ()) -> None:
        super().__init__(implications)

    def __len__(self) -> int:
        return len(self.implications)

    def __iter__(self) -> Iterator[BasicImplication]:
        return iter(self.implications)

    def __str__(self) -> str:
        return "\n".join(str(i) for i in self.implications)

    def atoms(self) -> tuple[Atom, ...]:
        out = []
        for impl in self.implications:
            out.extend(impl.antecedents)
            out.extend(impl.consequents)
        return tuple(out)


# ============================================================================
# Evaluation
# ============================================================================

def knowledge_holds(assignment: Mapping[str, str], knowledge: Knowledge) -> bool:
    """Evaluate knowledge against a person -> value assignment.

    Each implication holds when a consequent holds, or vacuously when an
    antecedent fails; no person is read past the first failing antecedent.
    """
    try:
        for impl in knowledge:
            for a in impl.antecedents:
                if assignment[a.person] != a.value:
                    break  # antecedent conjunction false: vacuously satisfied
            else:
                if not any(assignment[b.person] == b.value for b in impl.consequents):
                    return False
        return True
    except KeyError as error:
        raise ValidationError(f"unknown person {error.args[0]!r}") from None


def negation_as_implication(atom: Atom, domain: Sequence[str]) -> BasicImplication:
    """Encode "not (p=s)" as the simple implication (p=s) -> (p=s').

    s' is the smallest domain value different from s; any choice is logically
    equivalent because a person holds exactly one value, so antecedent and
    consequent are mutually exclusive. A 1-value domain cannot express the
    negation (it would be inconsistent).
    """
    alternatives = sorted(v for v in domain if v != atom.value)
    if not alternatives:
        raise ValidationError(
            f"cannot negate {atom}: domain has no alternative value"
        )
    return simple_implication(atom, Atom(atom.person, alternatives[0]))


def _witness(
    histograms: Sequence[tuple[int, ...]],
    parts: Mapping[int, tuple[int, ...]],
    target_bucket: int,
    buckets: Callable[[Sequence[int]], Sequence[Bucket]],
    k: int,
) -> tuple[Atom, tuple[BasicImplication, ...]]:
    """The target and k implications of the engine's optimum.

    ``parts`` maps each bucket index the optimum names, ascending, to its
    per-person atom counts; ``buckets`` builds those buckets, which must hold
    the count tuples ``histograms`` holds there. Person i of a bucket carries
    the top parts[i] values, so the target's bucket starts with the target.
    Values past the distinct ones are dropped, and the witness is padded to
    k implications: neither a zero-count atom nor a repeated conjunct (or
    target->target) changes anything.
    """
    built = list(buckets(list(parts)))
    if len(built) != len(parts):
        raise ValidationError(f"buckets= returned {len(built)} buckets, not {len(parts)}")
    antecedents: list[Atom] = []
    for i, b in zip(parts, built):
        if not isinstance(b, Bucket):
            raise ValidationError(f"buckets= returned {b!r}, not a Bucket")
        if b.counts != histograms[i]:
            raise ValidationError(f"bucket {b.bucket_id!r} does not match histogram {i}")
        atoms = [Atom(b.members[person], value)
                 for person, p in enumerate(parts[i]) for value, _ in b.histogram[:p]]
        if i == target_bucket:
            target = atoms.pop(0)
        antecedents += atoms
    antecedents += [antecedents[0] if antecedents else target] * (k - len(antecedents))
    return target, tuple(simple_implication(a, target) for a in antecedents)


# ============================================================================
# Parsing
# ============================================================================

# a bare word, as the module docstring states it
_WORD = re.compile(r'(?:[^ \t#"()=&|-]|-(?!>))+')
# blanks, a comment to the end of the text, a quoted word (its closing quote
# captured), '->' or punctuation, a word; every character starts one of these
_TOKEN = re.compile(rf'[ \t]+|#.*|"([^"]*)(")?|(->|[()=&|])|({_WORD.pattern})', re.S)
_KEYWORDS = {"AND": "&", "OR": "|"}


def _quote(text: str) -> str:
    if set(text) & _LINE_BREAKS:
        raise ValidationError(f"cannot render {text!r}: line break")
    if _WORD.fullmatch(text) and text not in _KEYWORDS:  # bare, AND and OR are keywords
        return text
    if '"' in text:
        raise ValidationError(f"cannot render {text!r}: embedded quote")
    return f'"{text}"'


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    """Split a line into (kind, text, column) tokens; kind 'word' covers idents."""
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN.finditer(line):
        quoted, closed, punctuation, word = match.groups()
        column = match.start() + 1
        if punctuation:
            tokens.append((punctuation, punctuation, column))
        elif word:
            tokens.append((_KEYWORDS.get(word, "word"), word, column))
        elif closed:
            tokens.append(("word", quoted, column))
        elif quoted is not None:
            raise ParseError("unterminated quote", lineno, column)
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int, length: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.length = length

    def _fail(self, message: str) -> ParseError:
        column = (
            self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.length + 1
        )
        return ParseError(message, self.lineno, column)

    def expect(self, kind: str) -> str:
        if self.pos >= len(self.tokens) or self.tokens[self.pos][0] != kind:
            raise self._fail(f"expected {kind!r}")
        text = self.tokens[self.pos][1]
        self.pos += 1
        return text

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def atom(self) -> Atom:
        person = self.expect("word")
        self.expect("=")
        value = self.expect("word")
        return Atom(person=person, value=value)

    def atom_list(self, sep: str) -> tuple[Atom, ...]:
        atoms = [self.atom()]
        while self.peek() == sep:
            self.pos += 1
            atoms.append(self.atom())
        return tuple(atoms)

    def implication(self) -> BasicImplication:
        self.expect("(")
        antecedents = self.atom_list("&")
        self.expect(")")
        self.expect("->")
        self.expect("(")
        consequents = self.atom_list("|")
        self.expect(")")
        if self.pos != len(self.tokens):
            raise self._fail("trailing input after implication")
        return BasicImplication(antecedents=antecedents, consequents=consequents)


def parse_atom(text: str) -> Atom:
    """Parse a single ``person=value`` atom (used for CLI targets)."""
    parser = _LineParser(_tokenize(text, 1), 1, len(text))
    atom = parser.atom()
    if parser.pos != len(parser.tokens):
        raise parser._fail("trailing input after atom")
    return atom


def parse_knowledge(text: str, table: Table | None = None) -> Knowledge:
    """Parse a knowledge file: one implication per line, ``#`` comments.

    With a table supplied, every atom is validated: the person must exist in
    the table and the value must be in the sensitive domain.
    """
    implications = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        implications.append(_LineParser(tokens, lineno, len(line)).implication())
    knowledge = Knowledge(implications=tuple(implications))
    if table is not None:
        _check_atoms(knowledge.atoms(), table.row_of, table.domain)
    return knowledge


def _check_atoms(atoms: Iterable[Atom], persons: Container[str], domain: Iterable[str]) -> None:
    """Raise for the first atom whose person is not in ``persons`` or whose
    value is not in ``domain``, checking the person first."""
    domain = set(domain)
    for atom in atoms:
        if atom.person not in persons:
            raise ValidationError(f"unknown person {atom.person!r}")
        if atom.value not in domain:
            raise ValidationError(f"unknown sensitive value {atom.value!r}")
