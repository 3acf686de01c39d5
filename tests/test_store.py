import copy
import random
import urllib.parse

import pytest

from konsepta import (
    Concept,
    ConceptKey,
    ConceptKind,
    DatasetBundle,
    Gender,
    LookupFilter,
    PartOfSpeech,
    Store,
    WordForm,
    export_dataset,
    extract,
    load_dataset,
)
from konsepta import store as store_module
from konsepta.api import dispatch
from konsepta.semantics import semantic_network
from konsepta.core import (
    KonseptaError,
    RelationType,
    UnknownConceptError,
    UnknownEdgeError,
    ValidationError,
    fold,
    form_matches_concept,
)

import oracles

FRUIT = "jedlo/ovocie/hruška"
TREE = "rastlina/strom/hruška"
#: Every index a write transaction maintains in place; its set buckets are shared like the tables.
RAW_INDEXES = store_module._INDEXES


class TestGet:
    def test_fixture_key(self, snap):
        concept = snap.get(TREE)
        assert concept is not None
        assert concept.key.path == ("rastlina", "strom")

    def test_unknown_key_is_absent(self, snap):
        assert snap.get("rastlina/strom/baobab") is None

    def test_get_after_upsert(self, fresh_store):
        key = ConceptKey(("rastlina", "strom"), "baobab")
        concept = Concept(key, ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.MASCULINE)
        with fresh_store.write() as state:
            state.upsert_concept(concept)
        assert fresh_store.snapshot().get("rastlina/strom/baobab") == concept


class TestFindByLemma:
    def test_two_pear_senses(self, snap):
        hits = snap.find_by_lemma("hruška")
        assert [c.key.canonical for c in hits] == [FRUIT, TREE]

    def test_gender_split_disjoint(self, snap):
        masculine = snap.find_by_lemma("zver", LookupFilter(gender=Gender.MASCULINE))
        feminine = snap.find_by_lemma("zver", LookupFilter(gender=Gender.FEMININE))
        assert masculine and feminine
        assert {c.key.canonical for c in masculine}.isdisjoint(
            c.key.canonical for c in feminine
        )

    def test_absent_lemma(self, snap):
        assert snap.find_by_lemma("xyzzy") == []

    def test_case_folded_recall(self, snap):
        assert [c.key.canonical for c in snap.find_by_lemma("new york")] == ["miesto/mesto/New York"]
        assert [c.key.canonical for c in snap.find_by_lemma("HRUŠKA")] == [FRUIT, TREE]

    def test_exact_case_sorts_first(self, fresh_store):
        upper = Concept(ConceptKey(("meno",), "Viera"), ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.FEMININE)
        lower = Concept(ConceptKey(("vlastnosť",), "viera"), ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.FEMININE)
        with fresh_store.write() as state:
            state.upsert_concept(upper)
        with fresh_store.write() as state:
            state.upsert_concept(lower)
        assert [c.key.canonical for c in fresh_store.snapshot().find_by_lemma("viera")] == [
            "vlastnosť/viera",
            "meno/Viera",
        ]
        assert [c.key.canonical for c in fresh_store.snapshot().find_by_lemma("Viera")] == [
            "meno/Viera",
            "vlastnosť/viera",
        ]

    def test_first_token_of_multiword_is_not_its_lemma(self, snap):
        # Both share one entry bucket; only the lemma that folds equal is found.
        assert snap.find_by_lemma("New") == []
        assert [c.key.canonical for c in snap.find_by_lemma("VYSOKÁ ŠKOLA")] == ["veda/škola/vysoká škola"]

    def test_matches_raw_scan(self, snap, raw):
        queries = {c.lemma for c in raw.concepts} | {t for c in raw.concepts for t in c.lemma.split()}
        queries |= {f[0] for f in raw.forms} | {c.glyph for c in raw.concepts if c.glyph}
        for query in queries | {q.upper() for q in queries}:
            expected = sorted((c for c in raw.concepts if fold(c.lemma) == fold(query)),
                              key=lambda c: (c.lemma != query, c.key))
            assert [c.key.canonical for c in snap.find_by_lemma(query)] == [c.key for c in expected], query

    def test_filters(self, snap):
        nouns = snap.find_by_lemma("hruška", LookupFilter(pos=PartOfSpeech.NOUN))
        assert len(nouns) == 2
        fruit_only = snap.find_by_lemma("hruška", LookupFilter(category_prefix=("jedlo",)))
        assert [c.key.canonical for c in fruit_only] == [FRUIT]
        emoticons = snap.find_by_lemma("hruška", LookupFilter(kind=ConceptKind.EMOTICON))
        assert [c.key.canonical for c in emoticons] == [FRUIT]


class TestFindByForm:
    def test_plural_maps_to_both_senses(self, snap):
        hits = snap.find_by_form("hrušky")
        assert len(hits) == 1
        form, concepts = hits[0]
        assert (form.lemma, form.pos) == ("hruška", PartOfSpeech.NOUN)
        assert [c.key.canonical for c in concepts] == [FRUIT, TREE]

    def test_form_index_independent_of_lemma_index(self, snap):
        # A lemma with no form record is not in the form index.
        assert snap.find_by_form("dub") == []

    def test_unknown_surface(self, snap):
        assert snap.find_by_form("qwertz") == []

    def test_gendered_form_selects_one_sense(self, snap):
        hits = snap.find_by_form("zveri")
        assert len(hits) == 1
        _, concepts = hits[0]
        assert [c.key.canonical for c in concepts] == ["zviera/zver"]

    def test_pairing_matches_brute_force(self, snap, raw):
        # Oracle: scan every concept for compatibility with every fixture form.
        for form in snap.forms.values():
            expected = sorted(
                key
                for key, concept in snap.concepts.items()
                if form_matches_concept(form, concept)
            )
            hits = snap.find_by_form(form.surface)
            matched = next(cs for f, cs in hits if f == form)
            assert [c.key.canonical for c in matched] == expected
            # extraction reads the surface through the same join
            candidates = {c.key for ann in extract(form.surface, snap) for c in ann.candidates}
            assert set(expected) <= candidates, form


class TestNeighbors:
    def test_diminutive_outgoing(self, snap):
        assert snap.neighbors("meno/Miro", "diminutive", "outgoing") == [
            ("diminutive", "meno/Mirko")
        ]

    def test_symmetric_both_equals_outgoing(self, snap):
        both = snap.neighbors("človek/panovník/kráľ", "spouse", "both")
        outgoing = snap.neighbors("človek/panovník/kráľ", "spouse", "outgoing")
        assert both == outgoing == [("spouse", "človek/panovník/kráľovná")]

    def test_unknown_key(self, snap):
        with pytest.raises(UnknownConceptError):
            snap.neighbors("meno/Nikto")

    def test_as_read_matches_raw_adjacency(self, snap, raw):
        # Exhaustive replay of every fixture edge in both directions.
        expected = oracles.as_read_adjacency(raw)
        for key in snap.concepts:
            assert set(snap.neighbors(key)) == expected[key], key

    def test_directional_edge_readable_both_ways(self, snap, raw):
        for source, target, type_name in raw.relations:
            symmetric, inverse = raw.types[type_name]
            if symmetric:
                assert (type_name, target) in snap.neighbors(source, type_name)
                assert (type_name, source) in snap.neighbors(target, type_name)
            else:
                assert (type_name, target) in snap.neighbors(source, type_name, "outgoing")
                assert (inverse, source) in snap.neighbors(target, inverse, "incoming")

    def test_inverseless_type_raw_direction(self, fresh_store):
        with fresh_store.write() as state:
            state.upsert_relation_type(RelationType("cites"))
            state.upsert_relation("meno/Miro", "meno/Mirko", "cites")
        snap = fresh_store.snapshot()
        assert snap.neighbors("meno/Miro", "cites", "outgoing") == [("cites", "meno/Mirko")]
        # Invisible backwards unless the raw type is requested explicitly.
        assert snap.neighbors("meno/Mirko") == [("augmentative", "meno/Miro")]
        assert snap.neighbors("meno/Mirko", "cites", "incoming") == [("cites", "meno/Miro")]


class TestCategories:
    """``LookupFilter(category_prefix=...)``: a path matches every concept filed under it, at any depth."""

    @staticmethod
    def _under(snap, path):
        return sorted(key for key, concept in snap.concepts.items()
                      if LookupFilter(category_prefix=path).matches(concept))

    def test_recursive_includes_deep_concepts(self, snap):
        keys = self._under(snap, ("rastlina",))
        assert TREE in keys
        assert "rastlina/strom" in keys

    def test_recursive_superset(self, snap):
        for path in snap.taxonomy.paths():
            if len(path) > 1:
                assert set(self._under(snap, path)) <= set(self._under(snap, path[:-1]))

    def test_recursive_equals_prefix_scan(self, snap):
        for path in snap.taxonomy.paths():
            for lemma in {concept.key.lemma for concept in snap.concepts.values()}:
                expected = sorted(
                    key
                    for key, concept in snap.concepts.items()
                    if concept.key.lemma == lemma and concept.key.path[: len(path)] == path
                )
                found = snap.find_by_lemma(lemma, LookupFilter(category_prefix=path))
                assert [c.key.canonical for c in found] == expected, (path, lemma)

    def test_unregistered_path(self, snap):
        assert self._under(snap, ("vesmír",)) == []


class TestMweIndex:
    """The one entry index: multiword lemmas, one-word lemmas and glyphs, filed under their first token."""

    MWE = "veda/škola/vysoká škola"

    def test_first_token_lookup(self, snap):
        assert (self.MWE, ("vysoká", "škola"), False) in snap.entry_candidates("vysoká")

    def test_lemma_of_first_token_lookup(self, snap):
        assert any(entry.key == self.MWE for entry in snap.entry_candidates("vysoký"))

    def test_non_starter_token(self, snap):
        assert all(entry.key != self.MWE for entry in snap.entry_candidates("škola"))

    def test_word_lemma_and_glyph_are_entries(self, snap):
        assert ("jedlo/ovocie/hruška", ("hruška",), False) in snap.entry_candidates("HRUŠKA")
        assert snap.entry_candidates("🍐") == [("jedlo/ovocie/hruška", ("🍐",), True)]

    def test_matches_oracle(self, snap, raw):
        tables = oracles.ExtractTables.build(raw)
        tokens = {t for entry in tables.entries for t in entry.tokens} | {f[0] for f in raw.forms}
        for token in tokens | {t.upper() for t in tokens}:
            assert snap.entry_candidates(token) == tables.candidates(token), token

    def test_union_over_first_tokens_covers_all_mwes(self, snap):
        mwes = {key for key, concept in snap.concepts.items() if concept.kind is ConceptKind.MULTIWORD}
        union = set()
        for key in mwes:
            first = snap.concepts[key].key.lemma.split()[0]
            union.update(entry.key for entry in snap.entry_candidates(first) if entry.key in mwes)
        assert union == mwes

    def test_union_over_first_tokens_covers_every_entry(self, snap, raw):
        entries = {(e.key, e.tokens, e.glyph) for e in oracles.ExtractTables.build(raw).entries}
        union = set()
        for _key, tokens, _glyph in entries:
            union.update(snap.entry_candidates(tokens[0]))
        assert union == entries


class TestIndexCoherence:
    def test_every_concept_reachable_through_all_indexes(self, snap, raw):
        entries = {}
        for entry in oracles.ExtractTables.build(raw).entries:
            entries.setdefault(entry.key, []).append((entry.key, entry.tokens, entry.glyph))
        for key, concept in snap.concepts.items():
            assert snap.get(key) == concept
            assert concept in snap.find_by_lemma(concept.key.lemma)
            assert concept in snap.find_by_lemma(concept.key.lemma, LookupFilter(category_prefix=concept.key.path[:1]))
            assert len(entries[key]) == (2 if concept.glyph else 1)
            for entry in entries[key]:
                assert entry in snap.entry_candidates(entry[1][0]), entry


class TestMutation:
    def test_remove_concept_removes_incident_edges(self, fresh_store):
        with fresh_store.write() as state:
            state.remove_concept(TREE)
        snap = fresh_store.snapshot()
        assert all(other != TREE for _label, other in snap.neighbors(FRUIT))
        assert all(TREE not in (e.source, e.target) for e in snap.edges())

    def test_upsert_then_remove_restores_state(self, fresh_store):
        before = export_dataset(fresh_store.snapshot())
        key = ConceptKey(("rastlina", "strom"), "baobab")
        with fresh_store.write() as state:
            state.upsert_concept(Concept(key, ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.MASCULINE))
        assert export_dataset(fresh_store.snapshot()) != before
        with fresh_store.write() as state:
            state.remove_concept(key)
        assert export_dataset(fresh_store.snapshot()) == before

    def test_relation_with_missing_target_leaves_store_unchanged(self, fresh_store):
        before = export_dataset(fresh_store.snapshot())
        with pytest.raises(UnknownConceptError), fresh_store.write() as state:
            state.upsert_relation(FRUIT, "jedlo/ovocie/ananás", "related")
        assert export_dataset(fresh_store.snapshot()) == before

    def test_symmetric_edge_canonicalized(self, fresh_store):
        edges_before = len(fresh_store.snapshot().edges())
        with fresh_store.write() as state:
            state.upsert_concept(
                Concept(ConceptKey(("zviera",), "mačka"), ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.FEMININE)
            )
        with fresh_store.write() as state:
            first = state.upsert_relation("zviera/pes", "zviera/mačka", "related")
        with fresh_store.write() as state:
            second = state.upsert_relation("zviera/mačka", "zviera/pes", "related")
        assert first == "inserted"
        assert second == "unchanged"
        assert len(fresh_store.snapshot().edges()) == edges_before + 1

    def test_remove_relation_unknown_edge(self, fresh_store):
        with pytest.raises(UnknownEdgeError), fresh_store.write() as state:
            state.remove_relation(FRUIT, TREE, "antonym")

    def test_remove_unknown_concept(self, fresh_store):
        with pytest.raises(UnknownConceptError), fresh_store.write() as state:
            state.remove_concept("meno/Nikto")

    def test_self_relation_rejected(self, fresh_store):
        with pytest.raises(ValidationError), fresh_store.write() as state:
            state.upsert_relation(FRUIT, FRUIT, "related")

    def test_snapshot_isolation(self, fresh_store):
        old = fresh_store.snapshot()
        with fresh_store.write() as state:
            state.remove_concept(TREE)
        assert old.get(TREE) is not None
        assert fresh_store.snapshot().get(TREE) is None
        assert old.neighbors(FRUIT) != fresh_store.snapshot().neighbors(FRUIT)

    def test_failed_transaction_discards_all_changes(self, fresh_store):
        before = export_dataset(fresh_store.snapshot())
        with pytest.raises(UnknownConceptError):
            with fresh_store.write() as state:
                state.remove_concept(TREE)
                state.remove_concept("meno/Nikto")
        assert export_dataset(fresh_store.snapshot()) == before


def _first_edge(state):
    edge = state.edges()[0]
    return edge.source, edge.target, edge.type


CAT = Concept(ConceptKey(("zviera",), "mačka"), ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.FEMININE)
HIGH_MOUNTAIN = Concept(
    ConceptKey(("veda", "škola"), "vysoká hora"), ConceptKind.MULTIWORD, PartOfSpeech.NOUN, gender=Gender.FEMININE
)
COPYRIGHT = Concept(ConceptKey(("symbol",), "copyright"), ConceptKind.SYMBOL, PartOfSpeech.NOUN, glyph="©️")


class TestSealedSnapshot:
    """A committed snapshot shares tables and buckets with other snapshots, so it takes no writes."""

    MUTATIONS = {
        "upsert_concept": lambda s: s.upsert_concept(CAT),
        "remove_concept": lambda s: s.remove_concept(TREE),
        "upsert_form": lambda s: s.upsert_form(WordForm("mačky", "mačka", PartOfSpeech.NOUN, Gender.FEMININE, "pl.nom")),
        "upsert_relation": lambda s: s.upsert_relation("zviera/pes", "meno/Miro", "related"),
        "remove_relation": lambda s: s.remove_relation(*_first_edge(s)),
        "register_category": lambda s: s.register_category(["zviera", "drak"]),
        "upsert_relation_type": lambda s: s.upsert_relation_type(RelationType("cites")),
    }

    @pytest.mark.parametrize("mutator", sorted(MUTATIONS))
    def test_committed_snapshot_rejects_writes(self, fresh_store, mutator):
        snap = fresh_store.snapshot()
        before = export_dataset(snap)
        with pytest.raises(KonseptaError, match="sealed"):
            self.MUTATIONS[mutator](snap)
        assert fresh_store.snapshot() is snap
        assert export_dataset(snap) == before

    def test_empty_store_is_sealed(self):
        with pytest.raises(KonseptaError, match="sealed"):
            Store().snapshot().upsert_concept(CAT)

    def test_clones_of_sealed_parts_are_writable(self, fresh_store):
        snap = fresh_store.snapshot()
        with fresh_store.write() as state:
            assert state.register_category(["zviera", "drak"]) == "inserted"
            assert state.upsert_relation_type(RelationType("cites")) == "inserted"
        assert ("zviera", "drak") in state.taxonomy and "cites" in state.registry
        assert ("zviera", "drak") not in snap.taxonomy and "cites" not in snap.registry

    @pytest.mark.parametrize("part", ["taxonomy", "registry"])
    def test_taxonomy_and_registry_have_no_mutators(self, snap, part):
        # Every write is a StoreState mutator; the parts a snapshot holds only read.
        for name in ("register", "upsert", "remove", "clone", "seal"):
            assert not hasattr(getattr(snap, part), name), (part, name)


class TestCopyOnWrite:
    """A one-record write copies only the tables and buckets it touches; the rest stay shared.

    A touched table is named with the bucket ``None``.
    """

    #: A concept write also bumps the counters by part of speech and by kind.
    COUNTED = {("_by_pos", None), ("_by_kind", None)}
    WRITES = {
        "word concept": (lambda s: s.upsert_concept(CAT), {("concepts", None), ("_entries", "mačka")} | COUNTED),
        "relation": (
            lambda s: s.upsert_relation("zviera/pes", "meno/Miro", "related"),
            {("_edges", None), ("_adj", "zviera/pes"), ("_adj", "meno/Miro"), ("_by_type", None)},
        ),
        "multiword concept": (
            lambda s: s.upsert_concept(HIGH_MOUNTAIN),
            {("concepts", None), ("_entries", "vysoká")} | COUNTED,
        ),
        # A lemma and a glyph: two entries, each under its own first token.
        "glyph concept": (
            lambda s: s.upsert_concept(COPYRIGHT),
            {("concepts", None), ("_entries", "copyright"), ("_entries", "©")} | COUNTED,
        ),
        "category": (lambda s: s.register_category(["zviera", "drak"]), {("taxonomy", None)}),
        "relation type": (lambda s: s.upsert_relation_type(RelationType("cites")), {("registry", None)}),
        # A new reading for a multiword first token: only the form's own
        # buckets change, as entry lookup joins the indexes when read.
        "form of a first token": (
            lambda s: s.upsert_form(WordForm("vysoká", "vysokánsky", PartOfSpeech.ADJECTIVE, Gender.FEMININE, "")),
            {("forms", None), ("_form_index", "vysoká"), ("_form_lemma_index", "vysokánsky")},
        ),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_untouched_tables_and_buckets_are_shared(self, fresh_store, write):
        apply, touched = self.WRITES[write]
        base = fresh_store.snapshot()
        with fresh_store.write() as state:
            apply(state)
        snap = fresh_store.snapshot()
        tables = {table for table, _name in touched}
        for table in store_module._SHARED:
            assert (getattr(snap, table) is getattr(base, table)) == (table not in tables), table
        for index in RAW_INDEXES:
            old, new = getattr(base, index), getattr(snap, index)
            for name, bucket in old.items():
                assert (new.get(name) is bucket) == ((index, name) not in touched), (index, name)
            assert {(index, name) for name in new.keys() - old.keys()} <= touched, index

    def test_one_concept_write_shares_taxonomy_and_registry(self, fresh_store):
        base = fresh_store.snapshot()
        with fresh_store.write() as state:
            state.upsert_concept(CAT)
        assert state.taxonomy is base.taxonomy
        assert state.registry is base.registry

    def test_unchanged_writes_copy_nothing(self, fresh_store):
        base = fresh_store.snapshot()
        with fresh_store.write() as state:
            assert state.register_category(["zviera"]) == "unchanged"
            assert state.upsert_relation_type(base.registry.get("related")) == "unchanged"
            assert state.upsert_concept(base.require(TREE)) == "unchanged"
        for table in store_module._SHARED:
            assert getattr(state, table) is getattr(base, table), table

    def test_bucket_copied_once_per_transaction(self, fresh_store):
        with fresh_store.write() as state:
            state.upsert_relation("zviera/pes", "meno/Miro", "related")
            bucket = state._adj["zviera/pes"]
            state.upsert_relation("zviera/pes", "meno/Miroslav", "related")
            assert state._adj["zviera/pes"] is bucket


class TestConcurrency:
    def test_readers_see_consistent_snapshots_during_writes(self, fresh_store):
        import threading

        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    snap = fresh_store.snapshot()
                    stats = snap.stats()
                    scan = oracles.stats_by_scan(snap)
                    if stats.concepts != scan["concepts"] or stats.relations != scan["relations"]:
                        errors.append("inconsistent snapshot")
                    # every edge endpoint must resolve within the snapshot
                    for edge in snap.edges():
                        if snap.get(edge.source) is None or snap.get(edge.target) is None:
                            errors.append(f"dangling endpoint in {edge}")
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(40):
                key = ConceptKey(("meno",), f"Para{i}")
                with fresh_store.write() as state:
                    state.upsert_concept(Concept(key, ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.MASCULINE))
                with fresh_store.write() as state:
                    state.upsert_relation(key.canonical, "meno/Miro", "related")
                with fresh_store.write() as state:
                    state.remove_concept(key.canonical)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []


class TestStats:
    def test_fixture_stats_match_report(self, snap, report):
        stats = snap.stats()
        assert stats.concepts == report.counts["concepts"].inserted
        assert stats.categories == report.counts["taxonomy"].inserted
        assert stats.relations == report.counts["relations"].inserted

    def test_empty_store_all_zero(self):
        stats = Store().snapshot().stats()
        assert stats.concepts == stats.categories == stats.relations == 0
        assert stats.by_pos == stats.by_kind == stats.by_relation_type == {}

    def test_group_counts_sum_to_totals(self, snap):
        stats = snap.stats()
        assert sum(stats.by_pos.values()) == stats.concepts
        assert sum(stats.by_kind.values()) == stats.concepts
        assert sum(stats.by_relation_type.values()) == stats.relations

    def test_counters_survive_random_mutation(self, fresh_store):
        rng = random.Random(20240817)
        snap = fresh_store.snapshot()
        spare_keys = []
        for i in range(30):
            key = ConceptKey(("meno",), f"Syntetik{i}")
            with fresh_store.write() as state:
                state.upsert_concept(Concept(key, ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.MASCULINE))
            spare_keys.append(key.canonical)
        for step in range(60):
            state = fresh_store.snapshot()
            action = rng.choice(("add_edge", "drop_edge", "drop_concept"))
            if action == "add_edge":
                a, b = rng.sample(sorted(state.concepts), 2)
                try:
                    with fresh_store.write() as work:
                        work.upsert_relation(a, b, rng.choice(state.registry.names()))
                except Exception:
                    pass
            elif action == "drop_edge" and state.edges():
                edge = rng.choice(state.edges())
                with fresh_store.write() as work:
                    work.remove_relation(edge.source, edge.target, edge.type)
            elif action == "drop_concept" and spare_keys:
                with fresh_store.write() as work:
                    work.remove_concept(spare_keys.pop())
            got = fresh_store.snapshot().stats().to_payload()
            expected = oracles.stats_by_scan(fresh_store.snapshot())
            expected = {k: (dict(sorted(v.items())) if isinstance(v, dict) else v) for k, v in expected.items()}
            assert got == expected, f"diverged at step {step} after {action}"


def _rebuilt(snap):
    """A fresh store loaded from the snapshot's own export."""
    store = Store()
    report = load_dataset(DatasetBundle.from_texts(export_dataset(snap)), store)
    assert report.rejected == 0, report.rejections
    return store.snapshot()


def _first_token_readings(tables: oracles.ExtractTables, raw: oracles.RawData) -> set[str]:
    """Folded first tokens of stored entries plus their form lemmas."""
    firsts = {fold(entry.tokens[0]) for entry in tables.entries}
    readings = set(firsts)
    for surface, lemma, _pos, _gender, _tags in raw.forms:
        if fold(surface) in firsts:
            readings.add(fold(lemma))
    return readings


class TestRebuildEquality:
    """Indexes carried across write transactions equal a from-scratch load."""

    FIRSTS = ("vysoká", "Vysoká", "nová", "stará")
    SECONDS = ("škola", "hora", "cesta")
    WORDS = ("hora", "cesta", "vysoký", "nový", "starý")
    SURFACES = ("vysoká", "VYSOKÁ", "vysokej", "nová", "novej", "stará", "starej")
    FORM_LEMMAS = ("vysoký", "nový", "starý", "hora")
    GLYPHS = ("+", "∞", "★")
    PATHS = (("veda", "škola"), ("miesto",), ("vlastnosť",), ("symbol",))

    def _random_concept(self, rng: random.Random) -> Concept:
        path = rng.choice(self.PATHS)
        pos = rng.choice((None, PartOfSpeech.NOUN, PartOfSpeech.ADJECTIVE))
        gender = rng.choice((Gender.UNSPECIFIED, Gender.FEMININE, Gender.MASCULINE))
        kind = rng.choice((ConceptKind.WORD, ConceptKind.MULTIWORD, ConceptKind.MULTIWORD, ConceptKind.SYMBOL))
        if kind is ConceptKind.MULTIWORD:
            lemma = f"{rng.choice(self.FIRSTS)} {rng.choice(self.SECONDS)}"
            return Concept(ConceptKey(path, lemma), kind, pos, gender=gender)
        glyph = rng.choice(self.GLYPHS) if kind is ConceptKind.SYMBOL else ""
        return Concept(ConceptKey(path, rng.choice(self.WORDS)), kind, pos, gender=gender, glyph=glyph)

    def _random_form(self, rng: random.Random) -> WordForm:
        return WordForm(
            rng.choice(self.SURFACES),
            rng.choice(self.FORM_LEMMAS),
            rng.choice((None, PartOfSpeech.ADJECTIVE, PartOfSpeech.NOUN)),
            rng.choice((Gender.UNSPECIFIED, Gender.FEMININE)),
            rng.choice(("", "sg.nom")),
        )

    def _apply(self, state, rng: random.Random) -> None:
        action = rng.choice(("concept", "concept", "drop_concept", "form", "form", "edge", "edge", "drop_edge"))
        if action == "concept":
            state.upsert_concept(self._random_concept(rng))
        elif action == "drop_concept":
            state.remove_concept(rng.choice(sorted(state.concepts)))
        elif action == "form":
            state.upsert_form(self._random_form(rng))
        elif action == "edge":
            a, b = rng.sample(sorted(state.concepts), 2)
            state.upsert_relation(a, b, rng.choice(state.registry.names()))
        elif state.edges():
            edge = rng.choice(state.edges())
            state.remove_relation(edge.source, edge.target, edge.type)

    def _assert_equal_to_rebuild(self, store, step: int, probe: random.Random) -> None:
        snap = store.snapshot()
        fresh = _rebuilt(snap)
        raw = oracles.parse_raw(export_dataset(snap))
        adjacency = oracles.as_read_adjacency(raw)
        where = f"step {step}"
        assert sorted(snap.concepts) == sorted(fresh.concepts), where
        for key in snap.concepts:
            assert snap.as_read_neighbors(key) == fresh.as_read_neighbors(key), (where, key)
            assert set(snap.as_read_neighbors(key)) == adjacency[key], (where, key)
            view = dispatch(store, "GET", "/v1/concepts/" + urllib.parse.quote(key, safe=""))[1]
            assert view["concept"]["forms"] == oracles.concept_forms(raw, key), (where, key)
        tables = oracles.ExtractTables.build(raw)
        for reading in _first_token_readings(tables, raw) | {fold(f) for f in self.FIRSTS}:
            assert snap.entry_candidates(reading) == fresh.entry_candidates(reading), (where, reading)
        probes = set(self.FIRSTS) | set(self.SURFACES) | set(self.WORDS) | set(self.FORM_LEMMAS) | set(self.GLYPHS)
        for token in probes:
            assert snap.entry_candidates(token) == tables.candidates(token), (where, token)
        lemmas = {c.key.lemma for c in snap.concepts.values()} | set(self.WORDS) | set(self.FORM_LEMMAS)
        for lemma in lemmas:
            assert snap.find_by_lemma(lemma) == fresh.find_by_lemma(lemma), (where, lemma)
        for surface in {f.surface for f in snap.forms.values()} | set(self.SURFACES):
            assert snap.form_lookup(surface) == fresh.form_lookup(surface), (where, surface)
        assert snap.stats() == fresh.stats(), where
        names = [None] + snap.registry.names()
        for key in probe.sample(sorted(snap.concepts), min(3, len(snap.concepts))):
            depth, name = probe.randint(0, 2), probe.choice(names)
            allowed = None if name is None else {name}
            network = semantic_network(snap, [key], depth, allowed)
            layer = {k for k, _ in network.nodes}
            assert network.edges == oracles.semantic_network_edges_oracle(snap, layer, allowed), (where, key, name)
        # The raw indexes too: no bucket left empty by a removal.
        for index in RAW_INDEXES:
            assert getattr(snap, index) == getattr(fresh, index), (where, index)

    def test_random_transactions_match_rebuild(self, fresh_store):
        rng = random.Random(5005)
        # Mutations of transactions that fail; drawn apart, so rng's sequence is the committed one.
        spoiler = random.Random(6006)
        # Graph probes of each committed step; drawn apart too.
        probe = random.Random(7007)
        for step in range(60):
            before = fresh_store.snapshot()
            text = export_dataset(before)
            indexes = {index: copy.deepcopy(getattr(before, index)) for index in RAW_INDEXES}
            with pytest.raises(_Abort), fresh_store.write() as state:
                for _ in range(spoiler.randint(1, 4)):
                    self._apply(state, spoiler)
                raise _Abort
            assert fresh_store.snapshot() is before, step
            with fresh_store.write() as state:
                for _ in range(rng.randint(1, 4)):
                    self._apply(state, rng)
            # The snapshot the transactions started from shares buckets with
            # both; neither may have written into them.
            assert export_dataset(before) == text, step
            for index, saved in indexes.items():
                assert getattr(before, index) == saved, (step, index)
            self._assert_equal_to_rebuild(fresh_store, step, probe)


class _Abort(Exception):
    pass
