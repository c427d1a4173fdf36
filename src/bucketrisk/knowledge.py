"""The background-knowledge language.

An atom asserts that a named person's sensitive value equals a named value. A
basic implication says: if every antecedent atom holds then at least one
consequent atom holds. Knowledge is a conjunction of k basic implications; k=0
means the attacker brings identification information only.

Negated atoms are not primitive. Because each person has exactly one sensitive
value, "p's value is not s" is expressed exactly by the implication
(p=s) -> (p=s') for any s' != s; ``negation_as_implication`` picks the
canonical s' (smallest domain value != s in lexicographic order).

File grammar (one implication per line, ``#`` starts a comment):

    impl := '(' conj ')' '->' '(' disj ')'
    conj := atom (('&'|'AND') atom)*
    disj := atom (('|'|'OR') atom)*
    atom := ident '=' value

Identifiers and values containing spaces or punctuation are quoted with ``"``.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Mapping, Sequence

from .errors import ParseError, ValidationError
from .table import Table, _Frozen


class Atom(_Frozen):
    """Assertion that ``person``'s sensitive value is ``value``.

    Atoms order by person, then value. Equality, hashing and ordering are
    written out, not built from ``_fields``, so that atoms as dict keys and
    sort keys cost no more than a tuple of their fields does.
    """

    __slots__ = _fields = ("person", "value")

    def __init__(self, person: str, value: str) -> None:
        object.__setattr__(self, "person", person)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.person, self.value) == (other.person, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.person, self.value))

    # > and >= reflect to these
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.person, self.value) < (other.person, other.value)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.person, self.value) <= (other.person, other.value)
        return NotImplemented

    def __str__(self) -> str:
        return f"{_quote(self.person)}={_quote(self.value)}"


class BasicImplication(_Frozen):
    """(A_0 & ... & A_{m-1}) -> (B_0 | ... | B_{n-1}), with m >= 1 and n >= 1.

    Implications order by antecedents, then consequents; as on ``Atom``,
    comparisons and the hash are written out.
    """

    __slots__ = _fields = ("antecedents", "consequents")

    def __init__(self, antecedents: tuple[Atom, ...], consequents: tuple[Atom, ...]) -> None:
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "consequents", consequents)
        if not self.antecedents or not self.consequents:
            raise ValidationError("implication needs >= 1 antecedent and consequent")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.antecedents, self.consequents) == (other.antecedents, other.consequents)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.antecedents, self.consequents))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.antecedents, self.consequents) < (other.antecedents, other.consequents)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.antecedents, self.consequents) <= (other.antecedents, other.consequents)
        return NotImplemented

    @property
    def is_simple(self) -> bool:
        return len(self.antecedents) == 1 and len(self.consequents) == 1

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
        object.__setattr__(self, "implications", implications)

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

def implication_holds(assignment: Mapping[str, str], impl: BasicImplication) -> bool:
    """Evaluate one implication against a person -> value assignment."""
    for a in impl.antecedents:
        try:
            actual = assignment[a.person]
        except KeyError:
            raise ValidationError(f"unknown person {a.person!r}") from None
        if actual != a.value:
            return True  # antecedent conjunction false: vacuously satisfied
    try:
        return any(assignment[b.person] == b.value for b in impl.consequents)
    except KeyError as error:
        raise ValidationError(f"unknown person {error.args[0]!r}") from None


def knowledge_holds(assignment: Mapping[str, str], knowledge: Knowledge) -> bool:
    return all(implication_holds(assignment, impl) for impl in knowledge)


def holds(table: Table, knowledge: Knowledge) -> bool:
    """True iff the table satisfies every implication of the knowledge."""
    assignment = dict(zip(table.person_ids, table.sensitive))
    return knowledge_holds(assignment, knowledge)


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


# ============================================================================
# Parsing
# ============================================================================

_SPECIAL = set(' \t()=&|"#')
# every character at which str.splitlines, and so the parser, ends a line
_LINE_BREAKS = set("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _quote(text: str) -> str:
    if set(text) & _LINE_BREAKS:
        raise ValidationError(f"cannot render {text!r}: line break")
    if (
        text
        and not (set(text) & _SPECIAL)
        and "->" not in text
        and text not in ("AND", "OR")  # bare, these read as keywords
    ):
        return text
    if '"' in text:
        raise ValidationError(f"cannot render {text!r}: embedded quote")
    return f'"{text}"'


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    """Split a line into (kind, text, column) tokens; kind 'word' covers idents."""
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t":
            i += 1
        elif c == "#":
            break
        elif c == '"':
            j = line.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated quote", lineno, i + 1)
            tokens.append(("word", line[i + 1 : j], i + 1))
            i = j + 1
        elif c in "()=&|":
            tokens.append((c, c, i + 1))
            i += 1
        elif c == "-" and line[i + 1 : i + 2] == ">":
            tokens.append(("->", "->", i + 1))
            i += 2
        else:
            j = i
            while j < n and line[j] not in _SPECIAL and not (
                line[j] == "-" and line[j + 1 : j + 2] == ">"
            ):
                j += 1
            word = line[i:j]
            if word == "AND":
                tokens.append(("&", word, i + 1))
            elif word == "OR":
                tokens.append(("|", word, i + 1))
            else:
                tokens.append(("word", word, i + 1))
            i = j
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
        validate_knowledge(knowledge, table)
    return knowledge


def validate_knowledge(knowledge: Knowledge, table: Table) -> None:
    _check_atoms(knowledge.atoms(), table.row_of, table.domain)


def validate_atom(atom: Atom, table: Table) -> None:
    _check_atoms((atom,), table.row_of, table.domain)


def _check_atoms(atoms: Iterable[Atom], persons: Container[str], domain: Iterable[str]) -> None:
    """Raise for the first atom whose person is not in ``persons`` or whose
    value is not in ``domain``, checking the person first."""
    domain = set(domain)
    for atom in atoms:
        if atom.person not in persons:
            raise ValidationError(f"unknown person {atom.person!r}")
        if atom.value not in domain:
            raise ValidationError(f"unknown sensitive value {atom.value!r}")


def format_knowledge(knowledge: Knowledge) -> str:
    """Render knowledge in the file grammar; parses back to an equal value."""
    return "".join(f"{impl}\n" for impl in knowledge)
