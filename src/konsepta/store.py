"""In-memory indexed concept store.

Reads run against a sealed :class:`StoreState` snapshot; writes clone the
current state, mutate the clone and publish it with one atomic pointer
swap.  Readers therefore never see a half-updated index set, and a snapshot
handle stays internally consistent for its whole lifetime.  Writers
serialize on a lock; any exception inside a write transaction discards the
clone and leaves the store untouched.

A write costs what it touches, not what the store holds (structural
sharing, as in Bagwell's "Ideal Hash Trees", at its simplest: two levels
of copy-on-write).  Every part of a snapshot is a table: the taxonomy, the
relation-type registry, the records, the counters and the indexes.  The
clone shares every table and index bucket with its base; a mutator copies
a table, and then a bucket, the first time the transaction writes to it,
and at most once.  Every write is a mutator of the state, and so is every
index and counter update; nothing is derived at commit.  Because tables
and buckets are shared, a committed snapshot is sealed: its mutators raise.
"""

from __future__ import annotations

import threading
from collections.abc import Collection, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    Concept,
    ConceptKey,
    ConceptKind,
    Gender,
    KonseptaError,
    PartOfSpeech,
    RelationEdge,
    RelationRegistry,
    RelationType,
    Taxonomy,
    UnknownConceptError,
    UnknownEdgeError,
    ValidationError,
    WordForm,
    canonical_edge,
    entry_tokens,
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


class Entry(NamedTuple):
    """A concept's lemma or glyph as extraction matches it: a sequence of token texts."""

    key: str
    tokens: tuple[str, ...]
    glyph: bool


def _entries_of(canonical: str, concept: Concept) -> list[Entry]:
    """The concept's lemma entry, and its glyph entry if it has one."""
    entries = [Entry(canonical, entry_tokens(concept.key.lemma), False)]
    if concept.glyph:
        entries.append(Entry(canonical, entry_tokens(concept.glyph), True))
    return entries


#: The indexes: each maps a key to a set bucket, and a transaction shares
#: the buckets with its base like the tables (:meth:`StoreState._bucket`).
_INDEXES = ("_entries", "_form_index", "_form_lemma_index", "_adj")
#: Every table of a snapshot.  A transaction shares each with its base until
#: its first write to it (:meth:`StoreState._table`).
_SHARED = ("taxonomy", "registry", "concepts", "forms", "_edges", "_by_pos", "_by_kind", "_by_type") + _INDEXES


class StoreState:
    """One consistent snapshot of the dictionary, with all indexes.

    Mutators may only be called from inside a :meth:`Store.write`
    transaction.  When the transaction commits the state is sealed, and
    every mutator raises :class:`KonseptaError`: its tables and buckets may
    be shared with older and newer snapshots.
    """

    def __init__(self) -> None:
        self.taxonomy = Taxonomy()
        self.registry = RelationRegistry()
        self.concepts: dict[str, Concept] = {}
        self.forms: dict[FormKey, WordForm] = {}
        # Folded first token -> the entries (lemmas and glyphs) that start with it.
        self._entries: dict[str, set[Entry]] = {}
        self._form_index: dict[str, set[FormKey]] = {}
        # Folded lemma -> keys of the forms of that lemma.
        self._form_lemma_index: dict[str, set[FormKey]] = {}
        self._edges: dict[EdgeKey, RelationEdge] = {}
        self._adj: dict[str, set[EdgeKey]] = {}
        # Incremental counters; tests audit them against a full rescan.
        self._by_pos: dict[str, int] = {}
        self._by_kind: dict[str, int] = {}
        self._by_type: dict[str, int] = {}
        # Table name -> the base snapshot's table.  A table or bucket that is
        # still the base's own object is shared and is copied before a write;
        # the base is sealed and alive, so identity is stable.  None once
        # this state is sealed.
        self._shared: dict[str, object] | None = {name: {} for name in _SHARED}

    # -- write-transaction plumbing -----------------------------------------

    def clone(self) -> "StoreState":
        """An open copy of this sealed snapshot that shares every table and bucket.

        It copies nothing: a table is copied on the transaction's first write
        to it (:meth:`_table`), and an index bucket likewise (:meth:`_bucket`).
        """
        fresh = StoreState()
        fresh._shared = {name: getattr(self, name) for name in _SHARED}
        for name, table in fresh._shared.items():
            setattr(fresh, name, table)
        return fresh

    def freeze(self) -> None:
        """Seal this state; called once when a transaction commits, and on a new store's empty state.

        After it, every mutator raises :class:`KonseptaError`, and the
        state no longer holds its base's tables.
        """
        self._shared = None

    def _check_open(self) -> None:
        if self._shared is None:
            raise KonseptaError("snapshot is sealed; write inside Store.write()")

    def _table(self, name: str):
        """The writable table ``name``, copied on this state's first write to it."""
        table = getattr(self, name)
        if table is self._shared[name]:
            table = table.copy()
            setattr(self, name, table)
        return table

    def _bucket(self, index: str, name) -> set:
        """The writable bucket ``name`` of ``index``, copied on this state's first write to it."""
        table = self._table(index)
        bucket = table.get(name)
        if bucket is None or bucket is self._shared[index].get(name):
            table[name] = bucket = set(bucket or ())
        return bucket

    def _discard(self, index: str, name, item) -> None:
        bucket = self._bucket(index, name)
        bucket.discard(item)
        if not bucket:
            del getattr(self, index)[name]

    def _bump(self, counter: str, key: str, delta: int) -> None:
        table = self._table(counter)
        value = table.get(key, 0) + delta
        if value:
            table[key] = value
        else:
            table.pop(key, None)

    # -- mutators -------------------------------------------------------------

    def register_category(self, path: Sequence[str]) -> str:
        """Register a category path under a registered parent; returns the disposition."""
        self._check_open()
        path = tuple(nfc(seg) for seg in path)
        if path in self.taxonomy:
            return "unchanged"
        self._table("taxonomy")._register(path)
        return "inserted"

    def upsert_relation_type(self, rt: RelationType) -> str:
        """Insert or replace a relation type; ingest checks inverse pairings before it calls this."""
        self._check_open()
        old = self.registry.get(rt.name) if rt.name in self.registry else None
        if old == rt:
            return "unchanged"
        self._table("registry")._types[rt.name] = rt
        return "updated" if old is not None else "inserted"

    def upsert_concept(self, concept: Concept) -> str:
        self._check_open()
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
        self._table("concepts")[canonical] = concept
        for entry in _entries_of(canonical, concept):
            self._bucket("_entries", fold(entry.tokens[0])).add(entry)
        self._bump("_by_pos", _pos_key(concept.pos), 1)
        self._bump("_by_kind", concept.kind.value, 1)
        return "updated" if old is not None else "inserted"

    def _unindex_concept(self, canonical: str, concept: Concept) -> None:
        for entry in _entries_of(canonical, concept):
            self._discard("_entries", fold(entry.tokens[0]), entry)
        self._bump("_by_pos", _pos_key(concept.pos), -1)
        self._bump("_by_kind", concept.kind.value, -1)

    def remove_concept(self, key: str | ConceptKey) -> None:
        self._check_open()
        canonical = self._canonical(key)
        concept = self.concepts.get(canonical)
        if concept is None:
            raise UnknownConceptError(canonical)
        for edge_key in list(self._adj.get(canonical, ())):
            self._drop_edge(edge_key)
        self._unindex_concept(canonical, concept)
        del self._table("concepts")[canonical]

    def upsert_form(self, form: WordForm) -> str:
        self._check_open()
        identity = form.identity
        old = self.forms.get(identity)
        if old == form:
            return "unchanged"
        self._table("forms")[identity] = form
        self._bucket("_form_index", fold(form.surface)).add(identity)
        self._bucket("_form_lemma_index", fold(form.lemma)).add(identity)
        return "updated" if old is not None else "inserted"

    def upsert_relation(self, source: str, target: str, type_name: str) -> str:
        self._check_open()
        edge = canonical_edge(source, target, type_name, self.registry)
        for endpoint in (edge.source, edge.target):
            if endpoint not in self.concepts:
                raise UnknownConceptError(f"relation endpoint does not resolve: {endpoint}")
        edge_key = (edge.source, edge.target, edge.type)
        if edge_key in self._edges:
            return "unchanged"
        self._table("_edges")[edge_key] = edge
        self._bucket("_adj", edge.source).add(edge_key)
        self._bucket("_adj", edge.target).add(edge_key)
        self._bump("_by_type", edge.type, 1)
        return "inserted"

    def remove_relation(self, source: str, target: str, type_name: str) -> None:
        self._check_open()
        edge = canonical_edge(source, target, type_name, self.registry)
        edge_key = (edge.source, edge.target, edge.type)
        if edge_key not in self._edges:
            raise UnknownEdgeError(f"{edge.source} -{edge.type}- {edge.target}")
        self._drop_edge(edge_key)

    def _drop_edge(self, edge_key: EdgeKey) -> None:
        edge = self._table("_edges").pop(edge_key)
        self._discard("_adj", edge.source, edge_key)
        self._discard("_adj", edge.target, edge_key)
        self._bump("_by_type", edge.type, -1)

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
        inside each group.  Only lemma entries filed under the query's first
        token can fold equal to it.
        """
        query, folded = nfc(lemma), fold(lemma)
        first = entry_tokens(query)[:1]
        entries = self._entries.get(fold(first[0]), ()) if first else ()
        hits = [self.concepts[entry.key] for entry in entries if not entry.glyph]
        hits = [c for c in hits if fold(c.key.lemma) == folded and flt.matches(c)]
        return sorted(hits, key=lambda c: (c.key.lemma != query, c.key.canonical))

    def form_lookup(self, surface: str) -> list[WordForm]:
        keys = self._form_index.get(fold(nfc(surface)), ())
        return [self.forms[k] for k in sorted(keys)]

    def forms_by_lemma(self, lemma: str) -> list[WordForm]:
        """Forms whose lemma matches case-insensitively, in identity order."""
        return [self.forms[k] for k in sorted(self._form_lemma_index.get(fold(lemma), ()))]

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

    def entry_candidates(self, token: str) -> list[Entry]:
        """Entries (lemmas and glyphs) whose first token shares a reading with ``token``, sorted.

        A stored first token reads as a folded lemma ``r`` when it is ``r`` or
        the surface of a form of ``r``, so for each of the token's
        :meth:`token_readings` the join takes the entries filed under ``r`` and
        under the surfaces of ``r``'s forms.  Extraction decides which match.
        """
        found: set[Entry] = set()
        for reading in self.token_readings(token):
            found.update(self._entries.get(reading, ()))
            for surface, _lemma, _pos, _gender in self._form_lemma_index.get(reading, ()):
                found.update(self._entries.get(fold(surface), ()))
        return sorted(found)

    def edges(self, among: Collection[str] | None = None) -> list[RelationEdge]:
        """Stored edges in key order; with ``among``, only those with both ends in it.

        Without ``among`` this sorts every edge.  With it, the edges are
        collected from the adjacency index of ``among``'s nodes, so the cost
        grows with their degree, not with the store.
        """
        if among is None:
            keys = self._edges
        else:
            # An edge is reached from both of its ends; the set keeps it once.
            keys = {k for node in among for k in self._adj.get(node, ()) if k[0] in among and k[1] in among}
        return [self._edges[k] for k in sorted(keys)]

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
        self._state.freeze()
        self._write_lock = threading.Lock()

    def snapshot(self) -> StoreState:
        """The published state; sealed, so only read it."""
        return self._state

    @contextmanager
    def write(self):
        """Yield a private clone to mutate; publish it when the block exits cleanly.

        The clone shares every table and index bucket with the published
        snapshot and copies one only when a mutator first writes to it, so
        the cost grows with what the transaction touches.  On commit,
        ``freeze`` seals the new state, and then it is published.
        """
        with self._write_lock:
            work = self._state.clone()
            yield work
            work.freeze()
            self._state = work
