"""Independent brute-force reference implementations.

Everything here re-derives behavior from the raw bundle texts (its own tiny
TSV parsing, its own adjacency building, its own window matching), so the
engine's indexes and traversal code are never on both sides of a check.
Only the tokenizer is shared: the oracles work on token windows by
definition, and tokenization has its own property tests.  The extraction
oracle tokenizes each raw lemma and glyph itself and tries every one of them
at every token, so the store's entry index is never on its side.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from konsepta.core import RelationEdge
from konsepta.extract import Token, TokenClass, tokenize


def _fold(s: str) -> str:
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", s).casefold())


@dataclass
class RawConcept:
    key: str
    path: tuple[str, ...]
    lemma: str
    kind: str
    pos: str | None
    gender: str | None
    glyph: str | None
    translations: dict[str, str]


@dataclass
class RawData:
    types: dict[str, tuple[bool, str | None]]
    categories: list[tuple[str, ...]]
    concepts: list[RawConcept]
    forms: list[tuple[str, str, str | None, str | None, str | None]]
    relations: list[tuple[str, str, str]]


def _rows(text: str) -> list[list[str]]:
    lines = text.splitlines()[1:]
    return [
        [unicodedata.normalize("NFC", f) for f in line.split("\t")]
        for line in lines
        if line
    ]


def _opt(value: str) -> str | None:
    return None if value == "-" else value


def parse_raw(texts: dict[str, str]) -> RawData:
    types = {}
    for name, symmetric, inverse in _rows(texts["relation_types"]):
        types[name] = (symmetric == "1", _opt(inverse))
    categories = [tuple(row[0].split("/")) for row in _rows(texts["taxonomy"])]
    concepts = []
    for key, kind, pos, gender, glyph, translations in _rows(texts["concepts"]):
        parts = key.split("/")
        tr = {}
        if translations != "-":
            for item in translations.split("|"):
                code, text = item.split(":", 1)
                tr[code] = text
        concepts.append(
            RawConcept(key, tuple(parts[:-1]), parts[-1], kind, _opt(pos), _opt(gender), _opt(glyph), tr)
        )
    forms = [
        (surface, lemma, _opt(pos), _opt(gender), _opt(tags))
        for surface, lemma, pos, gender, tags in _rows(texts["forms"])
    ]
    relations = [tuple(row) for row in _rows(texts["relations"])]
    return RawData(types, categories, concepts, forms, relations)


# -- as-read adjacency --------------------------------------------------------

def as_read_adjacency(raw: RawData) -> dict[str, set[tuple[str, str]]]:
    """Expected (label, neighbor) readings per concept, from raw records."""
    adjacency: dict[str, set[tuple[str, str]]] = {c.key: set() for c in raw.concepts}
    for source, target, type_name in raw.relations:
        symmetric, inverse = raw.types[type_name]
        if symmetric:
            adjacency[source].add((type_name, target))
            adjacency[target].add((type_name, source))
        else:
            adjacency[source].add((type_name, target))
            if inverse is not None:
                adjacency[target].add((inverse, source))
    return adjacency


def label_paths(
    adjacency: dict[str, set[tuple[str, str]]], start: str, max_len: int
) -> dict[str, set[tuple[tuple[str, str], ...]]]:
    """All simple labeled paths from ``start``, grouped by endpoint."""
    found: dict[str, set[tuple[tuple[str, str], ...]]] = {}

    def walk(node: str, hops: tuple[tuple[str, str], ...], visited: frozenset[str]) -> None:
        if len(hops) == max_len:
            return
        for label, neighbor in sorted(adjacency.get(node, ())):
            if neighbor in visited:
                continue
            extended = hops + ((label, neighbor),)
            found.setdefault(neighbor, set()).add(extended)
            walk(neighbor, extended, visited | {neighbor})

    walk(start, (), frozenset((start,)))
    return found


def sequence_maps(raw: RawData, max_len: int) -> dict[str, dict[str, set[tuple[str, ...]]]]:
    """For every concept: reachable endpoints and their label sequences."""
    adjacency = as_read_adjacency(raw)
    maps = {}
    for concept in raw.concepts:
        per_endpoint = {}
        for endpoint, paths in label_paths(adjacency, concept.key, max_len).items():
            per_endpoint[endpoint] = {tuple(label for label, _ in p) for p in paths}
        maps[concept.key] = per_endpoint
    return maps


def analogy_rank(
    seqmaps: dict[str, dict[str, set[tuple[str, ...]]]],
    a1: str,
    b1: str,
    a2: str,
    k: int,
) -> list[str] | None:
    """Candidate b2 keys in rank order; None when a1-b1 have no path."""
    sequences = seqmaps[a1].get(b1, set())
    if not sequences:
        return None
    excluded = {a1, b1, a2}
    candidates = []
    for endpoint, seqs in seqmaps[a2].items():
        if endpoint in excluded:
            continue
        matched = seqs & sequences
        if matched:
            candidates.append((min(len(s) for s in matched), -len(matched), endpoint))
    candidates.sort()
    return [endpoint for _len, _nsup, endpoint in candidates[:k]]


def solve_analogy_oracle(
    raw: RawData, a1: str, b1: str, a2: str, max_len: int, k: int
) -> list[str] | None:
    """Single-shot wrapper around :func:`analogy_rank`."""
    return analogy_rank(sequence_maps(raw, max_len), a1, b1, a2, k)


# -- extraction ----------------------------------------------------------------

@dataclass(frozen=True)
class RawEntry:
    """A concept's lemma or glyph as its token texts (spaces dropped), from the raw record."""

    key: str
    tokens: tuple[str, ...]
    classes: tuple[TokenClass, ...]
    glyph: bool
    concept: RawConcept

    @classmethod
    def of(cls, concept: RawConcept, glyph: bool) -> "RawEntry":
        tokens = [t for t in tokenize(concept.glyph if glyph else concept.lemma) if t.cls is not TokenClass.SPACE]
        return cls(concept.key, tuple(t.text for t in tokens), tuple(t.cls for t in tokens), glyph, concept)


@dataclass
class ExtractTables:
    """Precomputed lookup tables; plain derivations of the raw records."""

    form_lemmas: dict[str, set[tuple[str, str | None, str | None]]]
    entries: list[RawEntry]

    @classmethod
    def build(cls, raw: RawData) -> "ExtractTables":
        form_lemmas: dict[str, set] = {}
        for surface, lemma, pos, gender, _tags in raw.forms:
            form_lemmas.setdefault(_fold(surface), set()).add((lemma, pos, gender))
        entries = []
        for concept in raw.concepts:
            entries.append(RawEntry.of(concept, False))
            if concept.glyph:
                entries.append(RawEntry.of(concept, True))
        return cls(form_lemmas=form_lemmas, entries=entries)

    def readings(self, token_text: str) -> set[str]:
        names = {_fold(token_text)}
        for lemma, _pos, _gender in self.form_lemmas.get(_fold(token_text), ()):
            names.add(_fold(lemma))
        return names

    def candidates(self, token_text: str) -> list[tuple[str, tuple[str, ...], bool]]:
        """``entry_candidates`` as its docstring states it: every entry whose
        first token shares a reading with the token, as (key, tokens, glyph)."""
        readings = self.readings(token_text)
        return sorted({(e.key, e.tokens, e.glyph) for e in self.entries if self.readings(e.tokens[0]) & readings})

    def _form_joins(self, token_text: str, concept: RawConcept) -> bool:
        """Some form of the token has the concept's lemma, and its POS and gender are unset or agree."""
        pos = concept.pos.split(":")[0] if concept.pos else None
        return any(
            _fold(lemma) == _fold(concept.lemma) and form_pos in (None, pos) and gender in (None, concept.gender)
            for lemma, form_pos, gender in self.form_lemmas.get(_fold(token_text), ())
        )

    def matches(self, entry: RawEntry, texts: list[str]) -> bool:
        """Whether the entry matches the text tokens it lines up with, position by position."""
        if entry.glyph:
            return all(unicodedata.normalize("NFC", t) == part for t, part in zip(texts, entry.tokens))
        if len(entry.tokens) == 1:
            return _fold(texts[0]) == _fold(entry.tokens[0]) or self._form_joins(texts[0], entry.concept)
        return all(self.readings(t) & self.readings(part) for t, part in zip(texts, entry.tokens))


def _line_up(tokens: list[Token], start: int, entry: RawEntry) -> list[int] | None:
    """Text token indexes for each entry position: a glyph contiguous; a lemma
    skipping spaces, and punctuation where the lemma has none; never a newline."""
    indexes = [start]
    i = start + 1
    for part_cls in entry.classes[1:]:
        while not entry.glyph and i < len(tokens):
            token = tokens[i]
            skip = token.cls is TokenClass.SPACE or (token.cls is TokenClass.PUNCT and part_cls is not TokenClass.PUNCT)
            if not skip:
                break
            if "\n" in token.text:
                return None
            i += 1
        if i >= len(tokens):
            return None
        indexes.append(i)
        i += 1
    return indexes


def extract_oracle(text: str, tables: ExtractTables) -> list[tuple[int, int, frozenset[str]]]:
    """Every entry tried at every token, then greedy leftmost-longest selection.

    Returns (start, end, candidate keys) triples.  At each token that is not
    a space, every entry of every concept is lined up and checked; of those
    that match, the ones ending last share the annotation, and scanning
    resumes after it.
    """
    tokens = tokenize(text)
    results = []
    i = 0
    while i < len(tokens):
        best: tuple[int, set[str]] | None = None
        if tokens[i].cls is not TokenClass.SPACE:
            for entry in tables.entries:
                window = _line_up(tokens, i, entry)
                if window is None or not tables.matches(entry, [tokens[idx].text for idx in window]):
                    continue
                if best is None or window[-1] > best[0]:
                    best = (window[-1], {entry.key})
                elif window[-1] == best[0]:
                    best[1].add(entry.key)
        if best is None:
            i += 1
            continue
        end_idx, keys = best
        results.append((tokens[i].start, tokens[end_idx].end, frozenset(keys)))
        i = end_idx + 1
    return results


# -- concept view ----------------------------------------------------------------

def concept_forms(raw: RawData, key: str) -> list[dict]:
    """The concept view's forms, by a scan of every form record.

    A form joins a concept when the folded lemmas are equal and its POS and
    gender are each unspecified or equal to the concept's; forms sort by
    (surface, lemma, POS, gender).
    """
    concept = next(c for c in raw.concepts if c.key == key)
    pos = concept.pos.split(":")[0] if concept.pos else None
    joined = sorted(
        (surface, lemma, form_pos or "", gender or "-", tags)
        for surface, lemma, form_pos, gender, tags in raw.forms
        if _fold(lemma) == _fold(concept.lemma)
        and form_pos in (None, pos)
        and gender in (None, concept.gender)
    )
    return [
        {"surface": surface, "pos": form_pos or None, "gender": None if gender == "-" else gender, "tags": tags}
        for surface, _lemma, form_pos, gender, tags in joined
    ]


# -- scoring --------------------------------------------------------------------

def score_oracle(annotations, raw: RawData, weights) -> list[tuple[tuple[tuple[str, float], ...], str | None, str]]:
    """``(candidates, chosen, match level)`` of each annotation, from its derivations alone.

    Written from ``disambiguate``'s docstring, quadratic on purpose: a
    candidate's base is the best over its derivations of the match level's
    weight plus POS and gender agreement; its context term is the ``context``
    weight times the share of the *other* annotations that have a candidate
    under its top-level taxonomy branch.  The sum is clamped to [0, 1] and
    rounded to 6 places.  Candidates sort by score, deeper path, then key;
    the first is chosen, and the match level is the best level among the
    chosen key's derivations (surface and glyph before lemma).  Concept paths
    come from the raw records; a key they lack has no path and no context.
    """
    paths = {c.key: c.path for c in raw.concepts}
    branches = [{paths[d.key][0] for d in ann.derivations if d.key in paths} for ann in annotations]
    level_rank = {"surface": 0, "glyph": 0, "lemma": 1}
    results = []
    for idx, ann in enumerate(annotations):
        others = branches[:idx] + branches[idx + 1:]
        bases: dict[str, list[float]] = {}
        for d in ann.derivations:
            base = {"surface": weights.surface, "lemma": weights.lemma, "glyph": weights.glyph}[d.level.value]
            if d.form_pos is not None:
                base += weights.pos_agreement
            if d.form_gender.value != "-":
                base += weights.gender_agreement
            bases.setdefault(d.key, []).append(base)
        scored = []
        for key, key_bases in bases.items():
            path = paths.get(key, ())
            context = 0.0
            if others and path:
                sharing = len([segs for segs in others if path[0] in segs])
                context = weights.context * (sharing / len(others))
            scored.append((-round(min(1.0, max(0.0, max(key_bases) + context)), 6), -len(path), key))
        scored.sort()
        candidates = tuple((key, -neg_score) for neg_score, _depth, key in scored)
        chosen = candidates[0][0] if candidates else None
        levels = sorted((d.level.value for d in ann.derivations if d.key == chosen), key=level_rank.__getitem__)
        results.append((candidates, chosen, levels[0] if levels else ann.match_level.value))
    return results


# -- semantic network edges ------------------------------------------------------

def semantic_network_edges_oracle(state, layer, allowed: set[str] | None) -> tuple:
    """The network's edges by a full scan of every stored edge.

    Keeps the edges with both ends in ``layer``; an edge whose own name is
    not ``allowed`` (``None`` allows every name) is kept reversed under the
    name it reads backwards, if that name is allowed.  Sorted by source,
    target and type, as :func:`konsepta.semantics.semantic_network` emits them.
    """
    found = set()
    for edge in state.edges():
        if edge.source not in layer or edge.target not in layer:
            continue
        if allowed is None or edge.type in allowed:
            found.add(edge)
            continue
        rt = state.registry.get(edge.type)
        back = edge.type if rt.symmetric else rt.inverse
        if back is not None and back in allowed:
            found.add(RelationEdge(edge.target, edge.source, back))
    return tuple(sorted(found, key=lambda e: (e.source, e.target, e.type)))


# -- stats ----------------------------------------------------------------------

def stats_by_scan(state) -> dict:
    """Full-scan recount of the store, independent of its counters."""
    by_pos: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    by_type: dict[str, int] = {}
    for concept in state.concepts.values():
        pos = concept.pos.value if concept.pos else "-"
        by_pos[pos] = by_pos.get(pos, 0) + 1
        by_kind[concept.kind.value] = by_kind.get(concept.kind.value, 0) + 1
    edges = state.edges()
    for edge in edges:
        by_type[edge.type] = by_type.get(edge.type, 0) + 1
    return {
        "concepts": len(state.concepts),
        "categories": len(state.taxonomy),
        "relations": len(edges),
        "by_pos": by_pos,
        "by_kind": by_kind,
        "by_relation_type": by_type,
    }
