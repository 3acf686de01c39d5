"""Mapping raw text to concept annotations.

The pipeline is: tokenize, match multiword lemmas leftmost-longest, match
single words as lemmas or through the form index, match symbol/emoji glyphs,
then score and pick one concept per annotation.

Everything here is a pure function of the store snapshot it is given, so
extractions can run concurrently over the same snapshot.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from enum import Enum

from .core import Gender, PartOfSpeech, fold
from .store import StoreState


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


# Sentence punctuation that may separate the words of a multiword match.
# Everything else non-letter/digit/space (+, *, etc.) stays SYMBOL so glyph
# entries remain matchable.
_PUNCT_CHARS = frozenset(".,;:!?…‚‘’“”„\"'«»()[]{}‐-–—/\\")

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
    if ch in _PUNCT_CHARS:
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


class MatchLevel(str, Enum):
    SURFACE = "surface"
    LEMMA = "lemma"
    GLYPH = "glyph"


_LEVEL_RANK = {MatchLevel.SURFACE: 0, MatchLevel.GLYPH: 0, MatchLevel.LEMMA: 1}


@dataclass(frozen=True)
class Derivation:
    """How one candidate concept matched; kept for scoring."""

    key: str
    level: MatchLevel
    form_pos: PartOfSpeech | None = None
    form_gender: Gender = Gender.UNSPECIFIED


@dataclass(frozen=True)
class ScoredCandidate:
    key: str
    score: float


@dataclass(frozen=True)
class Annotation:
    """A non-overlapping text span mapped to candidate concepts.

    Candidates are sorted by descending score; ``chosen`` is always the
    first one once :func:`disambiguate` has run.
    """

    start: int
    end: int
    surface: str
    candidates: tuple[ScoredCandidate, ...]
    chosen: str | None
    match_level: MatchLevel
    derivations: tuple[Derivation, ...] = ()

    def to_payload(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "surface": self.surface,
            "candidates": [{"key": c.key, "score": c.score} for c in self.candidates],
            "chosen": self.chosen,
            "match_level": self.match_level.value,
        }


@dataclass(frozen=True)
class DisambiguationWeights:
    """Scoring weights; engineering defaults, overridable in configuration."""

    surface: float = 0.4
    lemma: float = 0.2
    glyph: float = 0.4
    pos_agreement: float = 0.2
    gender_agreement: float = 0.1
    context: float = 0.3


DEFAULT_WEIGHTS = DisambiguationWeights()


def _single_word_derivations(state: StoreState, token_text: str) -> list[Derivation]:
    """The token as a lemma, then its forms joined to concepts as form search joins them."""
    derivations = [Derivation(c.key.canonical, MatchLevel.SURFACE) for c in state.find_by_lemma(token_text)]
    folded = fold(token_text)
    for form, concepts in state.find_by_form(token_text):
        if fold(form.lemma) != folded:
            derivations += [Derivation(c.key.canonical, MatchLevel.LEMMA, form.pos, form.gender) for c in concepts]
    return derivations


def _position_matches(state: StoreState, text_token: str, mwe_token: str, cache: dict) -> tuple[bool, bool]:
    """(matches, at_surface_level) for one multiword position.

    A position matches at surface level when the tokens fold equal, at lemma
    level when the text token shares a lemma reading with the stored token
    (the stored token counts as its own reading).
    """
    if fold(text_token) == fold(mwe_token):
        return True, True
    for token in (text_token, mwe_token):
        if token not in cache:
            cache[token] = state.token_readings(token)
    return bool(cache[text_token] & cache[mwe_token]), False


def _collect_window(tokens: list[Token], start_idx: int, length: int) -> list[int] | None:
    """Indexes of ``length`` word tokens from ``start_idx``.

    Space and punctuation between the words are skipped (they stay inside
    the annotation span); a newline or any other token class ends the window.
    """
    indexes = [start_idx]
    i = start_idx + 1
    while len(indexes) < length:
        while i < len(tokens) and tokens[i].cls in (TokenClass.SPACE, TokenClass.PUNCT):
            if tokens[i].cls is TokenClass.SPACE and "\n" in tokens[i].text:
                return None
            i += 1
        if i >= len(tokens) or tokens[i].cls is not TokenClass.WORD:
            return None
        indexes.append(i)
        i += 1
    return indexes


def _mwe_match_at(state: StoreState, tokens: list[Token], start_idx: int, cache: dict):
    """Longest multiword match starting at a word token.

    Returns ``(last_token_index, derivations)`` or ``None``.  Entries are
    found through the first-token index, probed with each reading of the
    surface token.
    """
    by_length: dict[int, list[tuple[str, tuple[str, ...]]]] = {}
    for mwe_tokens, key in state.mwe_index_entries(tokens[start_idx].text):
        by_length.setdefault(len(mwe_tokens), []).append((key, mwe_tokens))
    for length in sorted(by_length, reverse=True):
        window = _collect_window(tokens, start_idx, length)
        if window is None:
            continue
        derivations = []
        for key, mwe_tokens in sorted(by_length[length]):
            all_surface = True
            matched = True
            for token_idx, mwe_token in zip(window, mwe_tokens):
                ok, at_surface = _position_matches(state, tokens[token_idx].text, mwe_token, cache)
                if not ok:
                    matched = False
                    break
                all_surface = all_surface and at_surface
            if matched:
                level = MatchLevel.SURFACE if all_surface else MatchLevel.LEMMA
                derivations.append(Derivation(key, level))
        if derivations:
            return window[-1], derivations
    return None


def extract(text: str, state: StoreState, weights: DisambiguationWeights = DEFAULT_WEIGHTS) -> list[Annotation]:
    """Map text to concept annotations, leftmost-longest, non-overlapping.

    At each word token the longest multiword match wins over single-word
    matches; symbol and emoji tokens are matched by glyph equality; numbers,
    punctuation and spaces are never annotated.
    """
    tokens = tokenize(text)
    annotations: list[Annotation] = []
    cache: dict[str, set[str]] = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.cls is TokenClass.WORD:
            mwe = _mwe_match_at(state, tokens, i, cache)
            if mwe is not None:
                last_idx, derivations = mwe
                annotations.append(
                    _build_annotation(token.start, tokens[last_idx].end, text, derivations)
                )
                i = last_idx + 1
                continue
            derivations = _single_word_derivations(state, token.text)
            if derivations:
                annotations.append(_build_annotation(token.start, token.end, text, derivations))
        elif token.cls in (TokenClass.SYMBOL, TokenClass.EMOJI):
            keys = state.glyph_lookup(token.text)
            if keys:
                derivations = [Derivation(k, MatchLevel.GLYPH) for k in keys]
                annotations.append(_build_annotation(token.start, token.end, text, derivations))
        i += 1
    return disambiguate(annotations, state, weights)


def _build_annotation(start: int, end: int, text: str, derivations: list[Derivation]) -> Annotation:
    def order(d: Derivation):
        return (
            d.key,
            _LEVEL_RANK[d.level],
            d.form_pos.value if d.form_pos else "",
            d.form_gender.value,
        )

    ordered = tuple(sorted(set(derivations), key=order))
    best_rank = min(_LEVEL_RANK[d.level] for d in ordered)
    level = next(d.level for d in ordered if _LEVEL_RANK[d.level] == best_rank)
    return Annotation(
        start=start,
        end=end,
        surface=text[start:end],
        candidates=tuple(ScoredCandidate(d.key, 0.0) for d in ordered),
        chosen=None,
        match_level=level,
        derivations=ordered,
    )


def _base_score(level: MatchLevel, weights: DisambiguationWeights) -> float:
    if level is MatchLevel.SURFACE:
        return weights.surface
    if level is MatchLevel.GLYPH:
        return weights.glyph
    return weights.lemma


def disambiguate(
    annotations: list[Annotation],
    state: StoreState,
    weights: DisambiguationWeights = DEFAULT_WEIGHTS,
) -> list[Annotation]:
    """Score candidates and pick one concept per annotation.

    Each candidate scores a fixed weighted sum: match level base, POS and
    gender agreement with the form that produced the lemma reading, plus a
    context term proportional to the share of other annotations having a
    candidate under the same top-level taxonomy branch.  Ties break towards
    the deeper taxonomy path, then canonical key order.  Idempotent.
    """
    top_segments: list[set[str]] = []
    for ann in annotations:
        segments = set()
        for derivation in ann.derivations:
            concept = state.get(derivation.key)
            if concept is not None:
                segments.add(concept.key.path[0])
        top_segments.append(segments)

    result = []
    for idx, ann in enumerate(annotations):
        others = [segs for j, segs in enumerate(top_segments) if j != idx]
        per_key: dict[str, float] = {}
        for derivation in ann.derivations:
            base = _base_score(derivation.level, weights)
            if derivation.form_pos is not None:
                base += weights.pos_agreement
            if derivation.form_gender is not Gender.UNSPECIFIED:
                base += weights.gender_agreement
            per_key[derivation.key] = max(per_key.get(derivation.key, 0.0), base)
        scored = []
        for key, base in per_key.items():
            concept = state.get(key)
            path = concept.key.path if concept is not None else ()
            context = 0.0
            if others and path:
                sharing = sum(1 for segs in others if path[0] in segs)
                context = weights.context * (sharing / len(others))
            score = round(min(1.0, max(0.0, base + context)), 6)
            scored.append((key, score, len(path)))
        scored.sort(key=lambda t: (-t[1], -t[2], t[0]))
        candidates = tuple(ScoredCandidate(key, score) for key, score, _ in scored)
        chosen = candidates[0].key if candidates else None
        best_level = _chosen_level(ann, chosen)
        result.append(
            replace(ann, candidates=candidates, chosen=chosen, match_level=best_level)
        )
    return result


def _chosen_level(ann: Annotation, chosen: str | None) -> MatchLevel:
    levels = [d.level for d in ann.derivations if chosen is None or d.key == chosen]
    if not levels:
        return ann.match_level
    return min(levels, key=lambda lv: _LEVEL_RANK[lv])
