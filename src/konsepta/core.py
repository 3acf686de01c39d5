"""Core domain model: concept keys, taxonomy, relation-type registry.

Everything in this module is an immutable value, or a table (the taxonomy
and the relation-type registry) that only a store's write transaction
changes, on its own copy; so objects can be shared freely between threads.

A concept is identified by its lemma plus the full taxonomy path of the
category it sits in; the canonical string form joins the path segments and
the lemma with ``/``.  Because the slash is the separator it is forbidden
inside lemmas and category names - there is deliberately no escape syntax.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

#: Language codes accepted in concept translations.
LANGUAGE_CODES = ("en", "cs", "de", "hu", "pl", "hr", "fr", "it", "es", "pt", "la")


class KonseptaError(Exception):
    """Base class for every error raised by this package."""


class KeyFormatError(KonseptaError, ValueError):
    """A concept key or category path string is malformed."""


class UnknownCategoryError(KonseptaError, LookupError):
    """A taxonomy path is not registered."""


class UnknownRelationTypeError(KonseptaError, LookupError):
    """A relation type name is not in the registry."""


class UnknownConceptError(KonseptaError, LookupError):
    """A concept key does not resolve in the store."""


class UnknownEdgeError(KonseptaError, LookupError):
    """A relation edge does not exist in the store."""


class ValidationError(KonseptaError, ValueError):
    """A record violates a domain invariant."""

    def __init__(self, problems: Iterable[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def nfc(s: str) -> str:
    """NFC-normalize a string; applied at every boundary, diacritics kept."""
    return unicodedata.normalize("NFC", s)


def fold(s: str) -> str:
    """Case folding used by all indexes (diacritics are preserved).

    The result is NFC again, because casefolding can leave a string that is
    not (``ß\u0301`` folds to ``ss\u0301``); so ``fold(fold(s)) == fold(s)``.
    Every index lookup folds, so this calls the normalizer directly.
    """
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", s).casefold())


class PartOfSpeech(str, Enum):
    NOUN = "noun"
    ADJECTIVE = "adjective"
    NUMERAL = "numeral"
    VERB = "verb"
    ADVERB = "adverb"
    PRONOUN = "pronoun"
    OTHER = "other"


class Gender(str, Enum):
    MASCULINE = "m"
    FEMININE = "f"
    NEUTER = "n"
    UNSPECIFIED = "-"


class ConceptKind(str, Enum):
    WORD = "word"
    MULTIWORD = "mwe"
    SYMBOL = "symbol"
    EMOTICON = "emoticon"


#: Kinds that carry a glyph (the character or emoji sequence the entry is
#: expressed by).
GLYPH_KINDS = (ConceptKind.SYMBOL, ConceptKind.EMOTICON)


#: Unicode general category Cc: exactly U+0000-U+001F and U+007F-U+009F.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _check_component(value: str, what: str) -> None:
    if not value:
        raise KeyFormatError(f"empty {what}")
    if "/" in value:
        raise KeyFormatError(f"{what} may not contain '/': {value!r}")
    if _CONTROL.search(value):
        raise KeyFormatError(f"{what} contains a control character: {value!r}")


@dataclass(frozen=True)
class ConceptKey:
    """Primary key of a dictionary entry: taxonomy path plus lemma."""

    path: tuple[str, ...]
    lemma: str

    def __post_init__(self) -> None:
        if not self.path:
            raise KeyFormatError("concept key needs at least one category segment")
        normalized = tuple(nfc(seg) for seg in self.path)
        for seg in normalized:
            _check_component(seg, "category segment")
        lemma = nfc(self.lemma)
        _check_component(lemma, "lemma")
        object.__setattr__(self, "path", normalized)
        object.__setattr__(self, "lemma", lemma)

    @property
    def canonical(self) -> str:
        return "/".join((*self.path, self.lemma))

    def __str__(self) -> str:
        return self.canonical


def parse_concept_key(s: str) -> ConceptKey:
    """Parse a canonical ``cat/subcat/lemma`` string into a key.

    The last slash-delimited component is the lemma, everything before it the
    taxonomy path.  Raises :class:`KeyFormatError` for fewer than two
    components, empty components or control characters.
    """
    parts = nfc(s).split("/")
    if len(parts) < 2:
        raise KeyFormatError(f"concept key needs a taxonomy path: {s!r}")
    return ConceptKey(tuple(parts[:-1]), parts[-1])


class Taxonomy:
    """Forest of registered category paths.

    Registration requires the parent chain to exist, which keeps every stored
    path a root-to-node chain and the structure trivially acyclic.  Only a
    write transaction registers (``StoreState.register_category``), so the
    taxonomy a snapshot holds is read-only.
    """

    def __init__(self) -> None:
        self._nodes: set[tuple[str, ...]] = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, path: Sequence[str]) -> bool:
        return tuple(path) in self._nodes

    def _register(self, path: tuple[str, ...]) -> None:
        """Add a new NFC ``path``; raises unless it is well formed and its parent is registered."""
        if not path:
            raise KeyFormatError("empty category path")
        for seg in path:
            _check_component(seg, "category segment")
        parent = path[:-1]
        if parent and parent not in self._nodes:
            raise UnknownCategoryError(
                f"parent category not registered: {'/'.join(parent)}"
            )
        self._nodes.add(path)

    def paths(self) -> list[tuple[str, ...]]:
        return sorted(self._nodes, key="/".join)

    def copy(self) -> "Taxonomy":
        fresh = Taxonomy()
        fresh._nodes = set(self._nodes)
        return fresh


@dataclass(frozen=True)
class RelationType:
    """A named link type; symmetric, inverse-paired, or forward-only."""

    name: str
    symmetric: bool = False
    inverse: str | None = None

    def __post_init__(self) -> None:
        problems = []
        name = nfc(self.name)
        if not name or name != name.lower() or any(ch.isspace() for ch in name):
            problems.append(f"relation type name must be lowercase, no whitespace: {self.name!r}")
        inverse = nfc(self.inverse) if self.inverse is not None else None
        if inverse is not None and (not inverse or inverse != inverse.lower() or any(ch.isspace() for ch in inverse)):
            problems.append(f"inverse name must be lowercase, no whitespace: {self.inverse!r}")
        if self.symmetric and inverse not in (None, name):
            problems.append(f"symmetric type {name!r} cannot pair with {inverse!r}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "inverse", inverse)


class RelationRegistry:
    """Registry of relation types, by name.

    Only a write transaction changes it (``StoreState.upsert_relation_type``),
    so the registry a snapshot holds is read-only.
    """

    def __init__(self, types: Mapping[str, RelationType] | None = None) -> None:
        self._types: dict[str, RelationType] = dict(types or {})

    def __len__(self) -> int:
        return len(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def get(self, name: str) -> RelationType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownRelationTypeError(name) from None

    def names(self) -> list[str]:
        return sorted(self._types)

    def types(self) -> list[RelationType]:
        return [self._types[n] for n in self.names()]

    def pairing_problems(self) -> dict[str, str]:
        """Involution check: maps offending type names to a reason.

        A declared inverse must exist and must point back, so that
        ``reading_back(reading_back(t)) == t`` holds for every paired type.
        """
        problems: dict[str, str] = {}
        for name in self.names():
            rt = self._types[name]
            if rt.inverse is None or rt.inverse == name:
                continue
            other = self._types.get(rt.inverse)
            if other is None:
                problems[name] = f"inverse type not registered: {rt.inverse}"
            elif other.inverse != name:
                problems[name] = (
                    f"inverse pairing not involutive: {name} -> {rt.inverse} -> {other.inverse}"
                )
        return problems

    def reading_back(self, name: str) -> str | None:
        """The name read from the opposite side of an edge; ``None`` if forward-only."""
        rt = self.get(name)
        if rt.symmetric:
            return name
        return rt.inverse

    def copy(self) -> "RelationRegistry":
        return RelationRegistry(self._types)


@dataclass(frozen=True)
class RelationEdge:
    """A typed link between two concepts, held as canonical key strings."""

    source: str
    target: str
    type: str


def canonical_edge(source: str, target: str, type_name: str, registry: RelationRegistry) -> RelationEdge:
    """Normalize an edge: resolve the type and order symmetric endpoints.

    For symmetric types ``(a, b)`` and ``(b, a)`` are the same edge, stored
    once with the endpoints in canonical string order.
    """
    rt = registry.get(type_name)
    src, tgt = nfc(source), nfc(target)
    if src == tgt:
        raise ValidationError([f"relation endpoints must differ: {src} -{type_name}- {tgt}"])
    if rt.symmetric and tgt < src:
        src, tgt = tgt, src
    return RelationEdge(src, tgt, rt.name)


@dataclass(frozen=True)
class Concept:
    """A dictionary entry.

    ``glyph`` is set exactly for symbol and emoticon entries: a symbol entry
    is a character joined to its word equivalent (lemma), an emoticon entry
    is a word concept that is also expressed by an emoji sequence.
    ``translations`` is a sorted tuple of ``(language code, text)`` pairs.
    """

    key: ConceptKey
    kind: ConceptKind
    pos: PartOfSpeech | None = None
    pos_label: str = ""
    gender: Gender = Gender.UNSPECIFIED
    glyph: str = ""
    translations: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "glyph", nfc(self.glyph) if self.glyph else "")
        object.__setattr__(self, "pos_label", nfc(self.pos_label) if self.pos_label else "")
        object.__setattr__(
            self,
            "translations",
            tuple(sorted((code, nfc(text)) for code, text in self.translations)),
        )


def _flat(value: str) -> bool:
    """True when a field value survives the tab-separated record format."""
    return not any(ch in "\t\n\r" for ch in value)


def validate_concept(concept: Concept) -> list[str]:
    """Structural invariant check; returns diagnostics, empty when fine."""
    problems = []
    lemma = concept.key.lemma
    if lemma.isspace():
        problems.append(f"lemma has no non-space character, so no text can match it: {lemma!r}")
    is_spaced = any(ch.isspace() for ch in lemma)
    if (concept.kind is ConceptKind.MULTIWORD) != is_spaced:
        if is_spaced:
            problems.append(f"lemma contains spaces, kind must be {ConceptKind.MULTIWORD.value}: {lemma!r}")
        else:
            problems.append(f"kind {ConceptKind.MULTIWORD.value} requires a spaced lemma: {lemma!r}")
    if lemma != lemma.strip() and not lemma.isspace():
        problems.append(f"lemma may not start or end with whitespace, or no text can match it as written: {lemma!r}")
    has_glyph = bool(concept.glyph)
    if concept.kind in GLYPH_KINDS and not has_glyph:
        problems.append(f"glyph required for kind {concept.kind.value}")
    if concept.kind not in GLYPH_KINDS and has_glyph:
        problems.append(f"glyph not allowed for kind {concept.kind.value}")
    if has_glyph and (concept.glyph == "-" or any(ch.isspace() for ch in concept.glyph)):
        problems.append(f"glyph must be a non-blank character sequence: {concept.glyph!r}")
    if concept.pos_label and concept.pos is not PartOfSpeech.OTHER:
        problems.append("pos label is only allowed with pos 'other'")
    if not _flat(concept.pos_label):
        problems.append("pos label may not contain tabs or newlines")
    seen_codes = set()
    for code, text in concept.translations:
        if code not in LANGUAGE_CODES:
            problems.append(f"language code not in allowed set: {code!r}")
        elif code in seen_codes:
            problems.append(f"duplicate translation language: {code!r}")
        elif not text:
            problems.append(f"empty translation for language: {code!r}")
        elif "|" in text or not _flat(text):
            problems.append(f"translation text may not contain '|', tabs or newlines: {code!r}")
        seen_codes.add(code)
    return problems


@dataclass(frozen=True)
class WordForm:
    """An inflected surface form linked to a lemma.

    One surface may map to many (lemma, pos, gender) triples; ``tags`` is an
    opaque morphological annotation and is never interpreted.
    """

    surface: str
    lemma: str
    pos: PartOfSpeech | None = None
    gender: Gender = Gender.UNSPECIFIED
    tags: str = ""

    def __post_init__(self) -> None:
        surface = nfc(self.surface)
        lemma = nfc(self.lemma)
        problems = []
        if not surface:
            problems.append("empty form surface")
        if not lemma:
            problems.append("empty form lemma")
        for what, value in (("surface", surface), ("lemma", lemma)):
            if _CONTROL.search(value):
                problems.append(f"form {what} contains a control character: {value!r}")
            if value != value.strip():
                problems.append(f"form {what} may not be blank or start or end with whitespace: {value!r}")
        tags = nfc(self.tags) if self.tags else ""
        if not _flat(tags):
            problems.append("form tags may not contain tabs or newlines")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "lemma", lemma)
        object.__setattr__(self, "tags", tags)

    @property
    def identity(self) -> tuple[str, str, str, str]:
        """Upsert key: tags may change, everything else identifies the form."""
        return (
            self.surface,
            self.lemma,
            self.pos.value if self.pos else "",
            self.gender.value,
        )


def form_matches_concept(form: WordForm, concept: Concept) -> bool:
    """Join rule between the form index and concepts.

    Lemmas must match case-folded; POS and gender each either stay
    unspecified on the form or agree exactly on both sides.
    """
    if fold(form.lemma) != fold(concept.key.lemma):
        return False
    if form.pos is not None and form.pos is not concept.pos:
        return False
    if form.gender is not Gender.UNSPECIFIED and form.gender is not concept.gender:
        return False
    return True


# -- tokenizer: the store files lemmas and glyphs as tokens, extraction matches them

class TokenClass(str, Enum):
    WORD = "word"
    NUMBER = "number"
    PUNCT = "punct"
    SYMBOL = "symbol"
    EMOJI = "emoji"
    SPACE = "space"


@dataclass(frozen=True)
class Token:
    """One token; offsets count Unicode scalar values, end-exclusive."""

    text: str
    start: int
    end: int
    cls: TokenClass


#: Sentence punctuation, one token per scalar.  A multiword match skips it
#: between positions where the lemma has none; everything else that is not a
#: letter, digit, space or emoji (+, *, etc.) is a SYMBOL.
PUNCT_CHARS = frozenset(".,;:!?…‚‘’“”„\"'«»()[]{}‐-–—/\\")

_EMOJI_RANGES = ((0x1F000, 0x1FAFF), (0x2600, 0x27BF))
_EMOJI_JOINERS = frozenset((0x200D, 0xFE0F))


def _is_emoji(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


def _scalar_class(ch: str) -> TokenClass:
    if ch.isspace():
        return TokenClass.SPACE
    if _is_emoji(ch):
        return TokenClass.EMOJI
    category = unicodedata.category(ch)
    if category.startswith("L") or category.startswith("M"):
        return TokenClass.WORD
    if category == "Nd":
        return TokenClass.NUMBER
    if ch in PUNCT_CHARS:
        return TokenClass.PUNCT
    return TokenClass.SYMBOL


def tokenize(text: str) -> list[Token]:
    """Deterministic tokenization; spans partition the input exactly.

    Letter runs become words, digit runs numbers, whitespace runs spaces and
    emoji scalar sequences (joiners included) one emoji token; punctuation
    and symbols come out one scalar at a time.
    """
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        cls = _scalar_class(text[i])
        j = i + 1
        if cls in (TokenClass.WORD, TokenClass.NUMBER, TokenClass.SPACE):
            while j < n and _scalar_class(text[j]) is cls:
                j += 1
        elif cls is TokenClass.EMOJI:
            while j < n and (_is_emoji(text[j]) or ord(text[j]) in _EMOJI_JOINERS):
                j += 1
        tokens.append(Token(text[i:j], i, j, cls))
        i = j
    return tokens


def entry_tokens(text: str) -> tuple[str, ...]:
    """How a lemma or glyph is written as an entry: its token texts, spaces dropped."""
    # A text with str.isalpha() true is one WORD token, so most lemmas skip the tokenizer.
    parts = text.split()
    if "".join(parts).isalpha():
        return tuple(parts)
    return tuple(t.text for t in tokenize(text) if t.cls is not TokenClass.SPACE)
