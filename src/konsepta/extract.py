"""Mapping raw text to concept annotations.

The pipeline is: tokenize, match entries leftmost-longest, then score and
pick one concept per annotation.  An entry is a concept's lemma or glyph as
tokens (:func:`konsepta.core.entry_tokens`); the store names the entries that
may start at a token (:meth:`~konsepta.store.StoreState.entry_candidates`),
and one matcher, :func:`_match`, tries them all.

Everything here is a pure function of the store snapshot it is given, so
extractions can run concurrently over the same snapshot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum

from .core import PUNCT_CHARS, Gender, PartOfSpeech, Token, TokenClass, fold, form_matches_concept, nfc, tokenize
from .store import Entry, StoreState


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


def _position_matches(state: StoreState, text_token: str, entry_token: str, cache: dict) -> tuple[bool, bool]:
    """(matches, at_surface_level) for one position of a lemma.

    Surface level when the tokens fold equal, else lemma level when they
    share a reading (:meth:`~konsepta.store.StoreState.token_readings`).
    """
    if fold(text_token) == fold(entry_token):
        return True, True
    for token in (text_token, entry_token):
        if token not in cache:
            cache[token] = state.token_readings(token)
    return bool(cache[text_token] & cache[entry_token]), False


def _window(tokens: list[Token], start: int, entry: Entry) -> list[int] | None:
    """Indexes of the text tokens that ``entry``'s tokens line up with, from ``start``.

    A glyph's line up contiguously.  Between a lemma's positions the window skips
    space, and punctuation unless the lemma has punctuation there; a newline ends it.
    """
    indexes = [start]
    i = start + 1
    for part in entry.tokens[1:]:
        while not entry.glyph and i < len(tokens) and (
                tokens[i].cls is TokenClass.SPACE or tokens[i].cls is TokenClass.PUNCT and part not in PUNCT_CHARS):
            if "\n" in tokens[i].text:
                return None
            i += 1
        if i >= len(tokens):
            return None
        indexes.append(i)
        i += 1
    return indexes


def _match(state: StoreState, tokens: list[Token], start: int, cache: dict) -> tuple[int, list[Derivation]]:
    """The last token index that entries matching from ``tokens[start]`` reach, and their derivations.

    The match that ends last wins; matches that end on the same token share
    it.  A glyph matches exactly (NFC).  A lemma matches position by position
    (:func:`_position_matches`), at surface level when every position does;
    but a one-token lemma that does not fold equal to the token reads at
    lemma level only through each of the token's forms that joins its
    concept, with the form's POS and gender.
    """
    text = tokens[start].text
    best, derivations, forms = start, [], None
    for entry in state.entry_candidates(text):
        window = _window(tokens, start, entry)
        if window is None or window[-1] < best:
            continue
        pairs = [(tokens[i].text, part) for i, part in zip(window, entry.tokens)]
        if entry.glyph:
            found = [Derivation(entry.key, MatchLevel.GLYPH)] if all(nfc(t) == part for t, part in pairs) else []
        elif len(pairs) == 1 and fold(text) != fold(entry.tokens[0]):
            forms = state.form_lookup(text) if forms is None else forms
            concept = state.concepts[entry.key]
            found = [Derivation(entry.key, MatchLevel.LEMMA, f.pos, f.gender)
                     for f in forms if form_matches_concept(f, concept)]
        else:
            positions = [_position_matches(state, t, part, cache) for t, part in pairs]
            level = MatchLevel.SURFACE if all(surface for _ok, surface in positions) else MatchLevel.LEMMA
            found = [Derivation(entry.key, level)] if all(ok for ok, _surface in positions) else []
        if found:
            if window[-1] > best:
                best, derivations = window[-1], []
            derivations += found
    return best, derivations


def extract(text: str, state: StoreState, weights: DisambiguationWeights = DEFAULT_WEIGHTS) -> list[Annotation]:
    """Map text to concept annotations, leftmost-longest, non-overlapping.

    From each token the match that ends last wins (:func:`_match`); spaces
    start no match, and a token that starts none stays unannotated.
    """
    tokens = tokenize(text)
    annotations: list[Annotation] = []
    cache: dict[str, set[str]] = {}
    i = 0
    while i < len(tokens):
        last, derivations = _match(state, tokens, i, cache) if tokens[i].cls is not TokenClass.SPACE else (i, [])
        if derivations:
            annotations.append(_build_annotation(tokens[i].start, tokens[last].end, text, derivations))
        i = last + 1
    return disambiguate(annotations, state, weights)


def _build_annotation(start: int, end: int, text: str, derivations: list[Derivation]) -> Annotation:
    """An unscored annotation: derivations deduplicated and ordered; :func:`disambiguate` scores it."""
    ordered = tuple(sorted(set(derivations), key=lambda d: (
        d.key, _LEVEL_RANK[d.level], d.form_pos.value if d.form_pos else "", d.form_gender.value)))
    return Annotation(start, end, text[start:end], (), None, ordered[0].level, ordered)


def disambiguate(
    annotations: list[Annotation],
    state: StoreState,
    weights: DisambiguationWeights = DEFAULT_WEIGHTS,
) -> list[Annotation]:
    """Score candidates and pick one concept per annotation.

    Each candidate scores a fixed weighted sum: match level base, POS and
    gender agreement with the form that produced the lemma reading, plus a
    context term proportional to the share of other annotations having a
    candidate under the same top-level taxonomy branch.  A candidate's base
    is the best over its derivations, and only the sum is clamped to
    [0, 1], so a negative weight lowers the score.  Ties break towards
    the deeper taxonomy path, then canonical key order.  The match level is
    the best level among the chosen concept's derivations.  Idempotent.
    """
    paths: dict[str, tuple[str, ...]] = {}
    for key in {d.key for ann in annotations for d in ann.derivations}:
        concept = state.get(key)
        paths[key] = concept.key.path if concept is not None else ()
    # How many annotations have a candidate under each top-level branch.
    branches = Counter(
        branch for ann in annotations for branch in {paths[d.key][0] for d in ann.derivations if paths[d.key]}
    )
    others = len(annotations) - 1

    result = []
    for ann in annotations:
        per_key: dict[str, float] = {}
        for derivation in ann.derivations:
            base = getattr(weights, derivation.level.value)
            if derivation.form_pos is not None:
                base += weights.pos_agreement
            if derivation.form_gender is not Gender.UNSPECIFIED:
                base += weights.gender_agreement
            per_key[derivation.key] = max(per_key.get(derivation.key, base), base)
        scored = []
        for key, base in per_key.items():
            path = paths[key]
            # The candidate's own annotation holds its branch; the minus 1 removes it.
            context = weights.context * ((branches[path[0]] - 1) / others) if others and path else 0.0
            scored.append((key, round(min(1.0, max(0.0, base + context)), 6), len(path)))
        scored.sort(key=lambda t: (-t[1], -t[2], t[0]))
        candidates = tuple(ScoredCandidate(key, score) for key, score, _ in scored)
        chosen = candidates[0].key if candidates else None
        level = min(
            (d.level for d in ann.derivations if d.key == chosen), key=_LEVEL_RANK.__getitem__, default=ann.match_level
        )
        result.append(replace(ann, candidates=candidates, chosen=chosen, match_level=level))
    return result
