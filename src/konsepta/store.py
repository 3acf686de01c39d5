"""In-memory indexed concept store.

Reads run against an immutable :class:`StoreState` snapshot; writes clone
the current state, mutate the clone and publish it with one atomic pointer
swap.  Readers therefore never see a half-updated index set, and a snapshot
handle stays internally consistent for its whole lifetime.  Writers
serialize on a lock; any exception inside a write transaction discards the
clone and leaves the store untouched.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from .core import (
    Concept,
    ConceptKey,
    ConceptKind,
    Gender,
    PartOfSpeech,
    RelationEdge,
    RelationRegistry,
    Taxonomy,
    UnknownConceptError,
    UnknownEdgeError,
    ValidationError,
    WordForm,
    canonical_edge,
    fold,
    form_matches_concept,
    nfc,
    validate_concept,
)

FormKey = tuple[str, str, str, str]
EdgeKey = tuple[str, str, str]

OUTGOING = "outgoing"
INCOMING = "incoming"
BOTH = "both"


@dataclass(frozen=True)
class LookupFilter:
    """Optional constraints applied to lookups; empty matches everything."""

    pos: PartOfSpeech | None = None
    gender: Gender | None = None
    category_prefix: tuple[str, ...] | None = None
    kind: ConceptKind | None = None

    def matches(self, concept: Concept) -> bool:
        if self.pos is not None and concept.pos is not self.pos:
            return False
        if self.gender is not None and concept.gender is not self.gender:
            return False
        if self.kind is not None and concept.kind is not self.kind:
            return False
        if self.category_prefix is not None:
            prefix = self.category_prefix
            if concept.key.path[: len(prefix)] != prefix:
                return False
        return True


EMPTY_FILTER = LookupFilter()


@dataclass
class StoreStats:
    concepts: int = 0
    categories: int = 0
    relations: int = 0
    by_pos: dict[str, int] = field(default_factory=dict)
    by_kind: dict[str, int] = field(default_factory=dict)
    by_relation_type: dict[str, int] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "concepts": self.concepts,
            "categories": self.categories,
            "relations": self.relations,
            "by_pos": dict(sorted(self.by_pos.items())),
            "by_kind": dict(sorted(self.by_kind.items())),
            "by_relation_type": dict(sorted(self.by_relation_type.items())),
        }


def _pos_key(pos: PartOfSpeech | None) -> str:
    return pos.value if pos else "-"


def _bump(counter: dict[str, int], key: str, delta: int) -> None:
    value = counter.get(key, 0) + delta
    if value:
        counter[key] = value
    else:
        counter.pop(key, None)


def _discard(index: dict, name, item) -> None:
    bucket = index[name]
    bucket.discard(item)
    if not bucket:
        del index[name]


class StoreState:
    """One consistent snapshot of the dictionary, with all indexes.

    Mutators may only be called from inside a :meth:`Store.write`
    transaction; after the transaction commits the object is never touched
    again.
    """

    def __init__(self) -> None:
        self.taxonomy = Taxonomy()
        self.registry = RelationRegistry()
        self.concepts: dict[str, Concept] = {}
        self.forms: dict[FormKey, WordForm] = {}
        self._lemma_index: dict[str, set[str]] = {}
        self._form_index: dict[str, set[FormKey]] = {}
        self._glyph_index: dict[str, set[str]] = {}
        self._edges: dict[EdgeKey, RelationEdge] = {}
        self._adj: dict[str, set[EdgeKey]] = {}
        # Incremental counters; tests audit them against a full rescan.
        self._by_pos: dict[str, int] = {}
        self._by_kind: dict[str, int] = {}
        self._by_type: dict[str, int] = {}
        # Derived lookup table built when a write transaction commits.
        self._mwe_buckets: dict[str, tuple[str, ...]] = {}

    # -- write-transaction plumbing -----------------------------------------

    def clone(self) -> "StoreState":
        fresh = StoreState()
        fresh.taxonomy = self.taxonomy.clone()
        fresh.registry = self.registry.clone()
        fresh.concepts = dict(self.concepts)
        fresh.forms = dict(self.forms)
        fresh._lemma_index = {k: set(v) for k, v in self._lemma_index.items()}
        fresh._form_index = {k: set(v) for k, v in self._form_index.items()}
        fresh._glyph_index = {k: set(v) for k, v in self._glyph_index.items()}
        fresh._edges = dict(self._edges)
        fresh._adj = {k: set(v) for k, v in self._adj.items()}
        fresh._by_pos = dict(self._by_pos)
        fresh._by_kind = dict(self._by_kind)
        fresh._by_type = dict(self._by_type)
        return fresh

    def freeze(self) -> None:
        """Build the multiword table; called once when a transaction commits."""
        buckets: dict[str, set[str]] = {}
        for key, concept in self.concepts.items():
            if concept.kind is ConceptKind.MULTIWORD:
                for name in self.token_readings(concept.key.lemma.split()[0]):
                    buckets.setdefault(name, set()).add(key)
        self._mwe_buckets = {name: tuple(sorted(keys)) for name, keys in buckets.items()}

    # -- mutators -------------------------------------------------------------

    def upsert_concept(self, concept: Concept) -> str:
        problems = validate_concept(concept)
        key = concept.key
        if key.path not in self.taxonomy:
            problems.append(f"unregistered category path: {'/'.join(key.path)}")
        if problems:
            raise ValidationError(problems)
        canonical = key.canonical
        old = self.concepts.get(canonical)
        if old == concept:
            return "unchanged"
        if old is not None:
            self._unindex_concept(canonical, old)
        self.concepts[canonical] = concept
        self._lemma_index.setdefault(fold(key.lemma), set()).add(canonical)
        if concept.glyph:
            self._glyph_index.setdefault(concept.glyph, set()).add(canonical)
        _bump(self._by_pos, _pos_key(concept.pos), 1)
        _bump(self._by_kind, concept.kind.value, 1)
        return "updated" if old is not None else "inserted"

    def _unindex_concept(self, canonical: str, concept: Concept) -> None:
        _discard(self._lemma_index, fold(concept.key.lemma), canonical)
        if concept.glyph:
            _discard(self._glyph_index, concept.glyph, canonical)
        _bump(self._by_pos, _pos_key(concept.pos), -1)
        _bump(self._by_kind, concept.kind.value, -1)

    def remove_concept(self, key: str | ConceptKey) -> None:
        canonical = self._canonical(key)
        concept = self.concepts.get(canonical)
        if concept is None:
            raise UnknownConceptError(canonical)
        for edge_key in list(self._adj.get(canonical, ())):
            self._drop_edge(edge_key)
        self._unindex_concept(canonical, concept)
        del self.concepts[canonical]

    def upsert_form(self, form: WordForm) -> str:
        identity = form.identity
        old = self.forms.get(identity)
        if old == form:
            return "unchanged"
        self.forms[identity] = form
        self._form_index.setdefault(fold(form.surface), set()).add(identity)
        return "updated" if old is not None else "inserted"

    def upsert_relation(self, source: str, target: str, type_name: str) -> str:
        edge = canonical_edge(source, target, type_name, self.registry)
        for endpoint in (edge.source, edge.target):
            if endpoint not in self.concepts:
                raise UnknownConceptError(f"relation endpoint does not resolve: {endpoint}")
        edge_key = (edge.source, edge.target, edge.type)
        if edge_key in self._edges:
            return "unchanged"
        self._edges[edge_key] = edge
        self._adj.setdefault(edge.source, set()).add(edge_key)
        self._adj.setdefault(edge.target, set()).add(edge_key)
        _bump(self._by_type, edge.type, 1)
        return "inserted"

    def remove_relation(self, source: str, target: str, type_name: str) -> None:
        edge = canonical_edge(source, target, type_name, self.registry)
        edge_key = (edge.source, edge.target, edge.type)
        if edge_key not in self._edges:
            raise UnknownEdgeError(f"{edge.source} -{edge.type}- {edge.target}")
        self._drop_edge(edge_key)

    def _drop_edge(self, edge_key: EdgeKey) -> None:
        edge = self._edges.pop(edge_key)
        _discard(self._adj, edge.source, edge_key)
        _discard(self._adj, edge.target, edge_key)
        _bump(self._by_type, edge.type, -1)

    # -- reads ----------------------------------------------------------------

    @staticmethod
    def _canonical(key: str | ConceptKey) -> str:
        if isinstance(key, ConceptKey):
            return key.canonical
        return nfc(key)

    def get(self, key: str | ConceptKey) -> Concept | None:
        return self.concepts.get(self._canonical(key))

    def require(self, key: str | ConceptKey) -> Concept:
        concept = self.get(key)
        if concept is None:
            raise UnknownConceptError(self._canonical(key))
        return concept

    def find_by_lemma(self, lemma: str, flt: LookupFilter = EMPTY_FILTER) -> list[Concept]:
        """All concepts whose lemma matches case-insensitively.

        Exact-case matches sort before case-folded ones, canonical key order
        inside each group.
        """
        query = nfc(lemma)
        keys = sorted(self._lemma_index.get(fold(query), ()))
        hits = [self.concepts[k] for k in keys]
        hits = [c for c in hits if flt.matches(c)]
        return sorted(hits, key=lambda c: (c.key.lemma != query, c.key.canonical))

    def form_lookup(self, surface: str) -> list[WordForm]:
        keys = self._form_index.get(fold(nfc(surface)), ())
        return [self.forms[k] for k in sorted(keys)]

    def token_readings(self, token: str) -> set[str]:
        """Folded lemmas a token can stand for: itself and its forms' lemmas."""
        folded = fold(token)
        return {folded} | {fold(self.forms[k].lemma) for k in self._form_index.get(folded, ())}

    def find_by_form(
        self, surface: str, flt: LookupFilter = EMPTY_FILTER
    ) -> list[tuple[WordForm, list[Concept]]]:
        """Case-folded surface lookup; the one form-to-concept join, shared with extraction."""
        result = []
        for form in self.form_lookup(surface):
            candidates = self.find_by_lemma(form.lemma)
            concepts = [
                c for c in candidates if form_matches_concept(form, c) and flt.matches(c)
            ]
            result.append((form, sorted(concepts, key=lambda c: c.key.canonical)))
        return result

    def _readings(self, key: str, direction: str, type_name: str | None):
        """As-read (label, neighbor) pairs for one concept, deduplicated.

        Symmetric edges read the same from both ends and appear once under
        any direction.  Directional edges read forward under their own name;
        backwards they read as the declared inverse, or stay invisible unless
        the raw type is requested explicitly under ``incoming``.
        """
        seen = set()
        for edge_key in self._adj.get(key, ()):
            src, tgt, t_name = edge_key
            rt = self.registry.get(t_name)
            label: str | None = None
            other: str | None = None
            if rt.symmetric:
                other = tgt if src == key else src
                label = t_name
            elif src == key:
                if direction in (OUTGOING, BOTH):
                    other, label = tgt, t_name
            else:
                if rt.inverse is not None:
                    if direction in (INCOMING, BOTH):
                        other, label = src, rt.inverse
                elif direction == INCOMING and type_name == t_name:
                    other, label = src, t_name
            if label is None or other is None:
                continue
            if type_name is not None and label != type_name:
                continue
            if (label, other) in seen:
                continue
            seen.add((label, other))
            yield (label, other)

    def neighbors(
        self,
        key: str | ConceptKey,
        type_name: str | None = None,
        direction: str = BOTH,
    ) -> list[tuple[str, str]]:
        """Adjacent concepts with the relation name as read from ``key``."""
        canonical = self._canonical(key)
        self.require(canonical)
        if direction not in (OUTGOING, INCOMING, BOTH):
            raise ValidationError([f"unknown direction: {direction!r}"])
        if type_name is not None:
            self.registry.get(type_name)
        return sorted(self._readings(canonical, direction, type_name))

    def as_read_neighbors(self, key: str) -> tuple[tuple[str, str], ...]:
        """Both-direction readings, sorted; the graph modules' workhorse."""
        return tuple(sorted(self._readings(key, BOTH, None)))

    def glyph_lookup(self, glyph: str) -> list[str]:
        return sorted(self._glyph_index.get(nfc(glyph), ()))

    def mwe_index_entries(self, token: str) -> list[tuple[tuple[str, ...], str]]:
        """Multiword concepts whose first token shares a reading with ``token``.

        Buckets are named by every :meth:`token_readings` of each stored
        first token and probed with every reading of ``token``, so inflected
        first positions still find their entries.
        """
        keys: set[str] = set()
        for name in self.token_readings(token):
            keys.update(self._mwe_buckets.get(name, ()))
        return [(tuple(self.concepts[k].key.lemma.split()), k) for k in sorted(keys)]

    def edges(self) -> list[RelationEdge]:
        return [self._edges[k] for k in sorted(self._edges)]

    def relation_count_for(self, type_name: str) -> int:
        return self._by_type.get(type_name, 0)

    def stats(self) -> StoreStats:
        return StoreStats(
            concepts=len(self.concepts),
            categories=len(self.taxonomy),
            relations=len(self._edges),
            by_pos=dict(self._by_pos),
            by_kind=dict(self._by_kind),
            by_relation_type=dict(self._by_type),
        )


class Store:
    """Thread-safe handle: snapshot reads, serialized transactional writes."""

    def __init__(self) -> None:
        self._state = StoreState()
        self._write_lock = threading.Lock()

    def snapshot(self) -> StoreState:
        return self._state

    @contextmanager
    def write(self):
        """Yield a private clone to mutate; publish it when the block exits cleanly."""
        with self._write_lock:
            work = self._state.clone()
            yield work
            work.freeze()
            self._state = work
