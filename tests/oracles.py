"""Independent brute-force reference implementations.

Everything here re-derives behavior from the raw bundle texts (its own tiny
TSV parsing, its own adjacency building, its own window matching), so the
engine's indexes and traversal code are never on both sides of a check.
Only the tokenizer is shared: the oracles work on token windows by
definition, and tokenization has its own property tests.
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

@dataclass
class ExtractTables:
    """Precomputed lookup tables; plain derivations of the raw records."""

    form_lemmas: dict[str, set[tuple[str, str | None, str | None]]]
    concept_lemmas: set[str]
    single_by_lemma: dict[str, list[RawConcept]]
    mwes: list[tuple[tuple[str, ...], RawConcept]]
    glyphs: dict[str, list[str]]

    @classmethod
    def build(cls, raw: RawData) -> "ExtractTables":
        form_lemmas: dict[str, set] = {}
        for surface, lemma, pos, gender, _tags in raw.forms:
            form_lemmas.setdefault(_fold(surface), set()).add((lemma, pos, gender))
        single_by_lemma: dict[str, list[RawConcept]] = {}
        mwes = []
        glyphs: dict[str, list[str]] = {}
        for concept in raw.concepts:
            tokens = tuple(concept.lemma.split())
            if len(tokens) > 1:
                mwes.append((tokens, concept))
            else:
                single_by_lemma.setdefault(_fold(concept.lemma), []).append(concept)
            if concept.glyph:
                glyphs.setdefault(concept.glyph, []).append(concept.key)
        return cls(
            form_lemmas=form_lemmas,
            concept_lemmas={_fold(c.lemma) for c in raw.concepts},
            single_by_lemma=single_by_lemma,
            mwes=mwes,
            glyphs=glyphs,
        )

    def readings(self, token_text: str) -> set[str]:
        names = {_fold(token_text)}
        for lemma, _pos, _gender in self.form_lemmas.get(_fold(token_text), ()):
            names.add(_fold(lemma))
        return names

    def mwe_entries(self, token_text: str) -> list[tuple[tuple[str, ...], str]]:
        """``mwe_index_entries`` as its docstring states it: every multiword
        concept whose first token shares a reading with the token, by key."""
        readings = self.readings(token_text)
        hits = [(tokens, c.key) for tokens, c in self.mwes if self.readings(tokens[0]) & readings]
        return sorted(hits, key=lambda hit: hit[1])

    def single_candidates(self, token_text: str) -> set[str]:
        keys = {c.key for c in self.single_by_lemma.get(_fold(token_text), ())}
        for lemma, pos, gender in self.form_lemmas.get(_fold(token_text), ()):
            for concept in self.single_by_lemma.get(_fold(lemma), ()):
                if pos is not None and pos != concept.pos:
                    continue
                if gender is not None and gender != concept.gender:
                    continue
                keys.add(concept.key)
        return keys


def _word_window(tokens: list[Token], start: int, length: int) -> list[int] | None:
    indexes = [start]
    i = start + 1
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


def extract_oracle(text: str, tables: ExtractTables) -> list[tuple[int, int, frozenset[str]]]:
    """Window enumeration plus greedy leftmost-longest selection.

    Returns (start, end, candidate keys) triples; the full concept set is
    tested against every window, longest match starting at each position
    wins, scanning resumes after it.
    """
    tokens = tokenize(text)
    results = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.cls is TokenClass.WORD:
            best: tuple[int, set[str]] | None = None
            for mwe_tokens, concept in tables.mwes:
                window = _word_window(tokens, i, len(mwe_tokens))
                if window is None:
                    continue
                if all(
                    tables.readings(tokens[idx].text) & tables.readings(part)
                    for idx, part in zip(window, mwe_tokens)
                ):
                    end_idx = window[-1]
                    if best is None or end_idx > best[0]:
                        best = (end_idx, {concept.key})
                    elif end_idx == best[0]:
                        best[1].add(concept.key)
            if best is not None:
                end_idx, keys = best
                results.append((token.start, tokens[end_idx].end, frozenset(keys)))
                i = end_idx + 1
                continue
            singles = tables.single_candidates(token.text)
            if singles:
                results.append((token.start, token.end, frozenset(singles)))
        elif token.cls in (TokenClass.SYMBOL, TokenClass.EMOJI):
            keys = tables.glyphs.get(unicodedata.normalize("NFC", token.text))
            if keys:
                results.append((token.start, token.end, frozenset(keys)))
        i += 1
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
