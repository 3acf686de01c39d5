"""Cross-module property tests over generated datasets and inputs."""

import unicodedata

from hypothesis import assume, example, given, settings, strategies as st

from konsepta import (
    Concept,
    ConceptKey,
    ConceptKind,
    DatasetBundle,
    KonseptaError,
    RelationType,
    Store,
    WordForm,
    export_dataset,
    extract,
    load_dataset,
)
from konsepta.extract import MatchLevel
from konsepta.ingest import SCHEMA_VERSION, fixture_dir
from konsepta.semantics import path_relations, semantic_network, to_dot, transitive_closure

_FIXTURE = Store()
load_dataset(DatasetBundle.read_dir(fixture_dir()), _FIXTURE)
_REGISTRY = _FIXTURE.snapshot().registry

_KEYS = sorted(_FIXTURE.snapshot().concepts)
#: The one fixture concept without relations.
_LONE = "symbol/hviezdička"

_seg = st.text(alphabet="abcdeáčšž", min_size=1, max_size=5)

#: Scalars that the tokenizer splits a lemma or glyph at: letters, digits,
#: punctuation, a symbol, emoji, and the emoji variation selector, keycap
#: and zero-width joiner.
_ENTRY_SCALARS = "abcáčAŽ019-.+🍐👍⬆©\ufe0f\u20e3\u200d"
_entry_part = st.text(alphabet=_ENTRY_SCALARS, min_size=1, max_size=5)
#: A lemma of one to three such parts; one with spaces is a multiword lemma.
_entry_lemma = st.lists(_entry_part, min_size=1, max_size=3).map(" ".join)
#: The same, sometimes with a space before or after it, which ingest rejects.
_padded_lemma = st.tuples(st.sampled_from(["", "", " "]), _entry_lemma, st.sampled_from(["", "", " "])).map("".join)
#: "-" alone is the TSV format's empty value, so it is no glyph.
_entry_glyph = _entry_part.filter(lambda g: g != "-")
#: Glyphs of more than one scalar: presentation, keycap, ZWJ and flag sequences, and an arrow.
_MULTI_SCALAR_GLYPHS = ["©️", "->", "1️⃣", "⬆️", "👨‍👩‍👧", "🇸🇰"]


@st.composite
def bundle_texts(draw) -> dict[str, str]:
    """A random valid dataset bundle as raw file texts."""
    roots = draw(st.lists(_seg, min_size=1, max_size=3, unique=True))
    categories: list[tuple[str, ...]] = [(root,) for root in roots]
    for root in roots:
        for child in draw(st.lists(_seg, max_size=2, unique=True)):
            if (root, child) not in categories:
                categories.append((root, child))

    concept_lines: list[str] = []
    keys: list[str] = []
    for _ in range(draw(st.integers(0, 12))):
        path = draw(st.sampled_from(categories))
        if draw(st.integers(0, 3)) == 0:
            lemma = draw(_entry_lemma)
        else:
            lemma = draw(_seg)
            if draw(st.booleans()):
                lemma += " " + draw(_seg)
        key = "/".join(path) + "/" + lemma
        if key in keys:
            continue
        keys.append(key)
        if " " in lemma:
            kind = "mwe"
        else:
            kind = draw(st.sampled_from(["word", "word", "word", "symbol", "emoticon"]))
        glyph = "-"
        if kind in ("symbol", "emoticon"):
            glyph = draw(st.sampled_from(["+", "*", "§", "€", "🍐", *_MULTI_SCALAR_GLYPHS]))
        pos = draw(st.sampled_from(["noun", "adjective", "verb", "numeral", "-"]))
        gender = draw(st.sampled_from(["m", "f", "n", "-"]))
        translations = draw(st.sampled_from(["-", "en:x", "en:x|cs:y z", "la:verbum"]))
        concept_lines.append(f"{key}\t{kind}\t{pos}\t{gender}\t{glyph}\t{translations}")

    form_lines = []
    form_identities = set()
    for _ in range(draw(st.integers(0, 8))):
        surface = draw(_seg)
        lemma = draw(_seg)
        pos = draw(st.sampled_from(["noun", "adjective", "-"]))
        gender = draw(st.sampled_from(["m", "f", "n", "-"]))
        # duplicate identities with different tags would flip-flop under
        # last-wins upserts; conflict-free bundles reload as all-unchanged
        if (surface, lemma, pos, gender) in form_identities:
            continue
        form_identities.add((surface, lemma, pos, gender))
        tags = draw(st.sampled_from(["-", "sg.gen", "pl.nom"]))
        form_lines.append(f"{surface}\t{lemma}\t{pos}\t{gender}\t{tags}")

    relation_lines = []
    if len(keys) >= 2:
        for _ in range(draw(st.integers(0, 10))):
            source = draw(st.sampled_from(keys))
            target = draw(st.sampled_from(keys))
            if source == target:
                continue
            relation_lines.append(f"{source}\t{target}\t{draw(st.sampled_from(_REGISTRY.names()))}")

    registry_lines = [
        f"{rt.name}\t{1 if rt.symmetric else 0}\t{rt.inverse or '-'}"
        for rt in _REGISTRY.types()
    ]

    def text(kind: str, lines: list[str]) -> str:
        return "\n".join([f"{SCHEMA_VERSION}\t{kind}", *lines]) + "\n"

    return {
        "relation_types": text("relation_types", registry_lines),
        "taxonomy": text("taxonomy", ["/".join(path) for path in categories]),
        "concepts": text("concepts", concept_lines),
        "forms": text("forms", form_lines),
        "relations": text("relations", relation_lines),
    }


class TestGeneratedBundles:
    @settings(max_examples=60, deadline=None)
    @given(texts=bundle_texts())
    def test_loads_cleanly(self, texts):
        store = Store()
        report = load_dataset(DatasetBundle.from_texts(texts), store)
        assert report.rejected == 0, report.rejections

    @settings(max_examples=60, deadline=None)
    @given(texts=bundle_texts())
    def test_export_round_trip(self, texts):
        first = Store()
        load_dataset(DatasetBundle.from_texts(texts), first)
        exported = export_dataset(first.snapshot())
        second = Store()
        report = load_dataset(DatasetBundle.from_texts(exported), second)
        assert report.rejected == 0
        assert export_dataset(second.snapshot()) == exported

    @settings(max_examples=40, deadline=None)
    @given(texts=bundle_texts())
    def test_reload_idempotent(self, texts):
        store = Store()
        bundle = DatasetBundle.from_texts(texts)
        load_dataset(bundle, store)
        before = export_dataset(store.snapshot())
        again = load_dataset(bundle, store)
        assert again.inserted == 0 and again.updated == 0 and again.rejected == 0
        assert export_dataset(store.snapshot()) == before

    @settings(max_examples=40, deadline=None)
    @given(texts=bundle_texts())
    def test_stats_equal_scan_on_generated_store(self, texts):
        import oracles

        store = Store()
        load_dataset(DatasetBundle.from_texts(texts), store)
        snap = store.snapshot()
        scan = oracles.stats_by_scan(snap)
        got = snap.stats().to_payload()
        assert got["concepts"] == scan["concepts"]
        assert got["relations"] == scan["relations"]
        assert got["by_pos"] == dict(sorted(scan["by_pos"].items()))
        assert got["by_relation_type"] == dict(sorted(scan["by_relation_type"].items()))


def _assert_extracts(snap, key: str, entry: str) -> None:
    """``entry`` alone and between spaces extracts as one span that covers it, with ``key`` a candidate."""
    for pad in ("", " "):
        text = pad + entry + pad
        annotations = extract(text, snap)
        assert [(a.start, a.end) for a in annotations] == [(len(pad), len(pad) + len(entry))], repr(text)
        assert key in {c.key for c in annotations[0].candidates}, repr(text)


class TestEveryEntryExtracts:
    """Every lemma and glyph that ingest accepts extracts itself."""

    @settings(max_examples=300, deadline=None)
    @given(lemma=_padded_lemma, glyph=st.one_of(st.just(""), _entry_glyph, st.sampled_from(_MULTI_SCALAR_GLYPHS)))
    def test_alone_and_between_spaces(self, lemma, glyph):
        if " " in lemma:
            kind, glyph = "mwe", ""
        else:
            kind = "symbol" if glyph else "word"
        line = f"t/{lemma}\t{kind}\tnoun\t-\t{glyph or '-'}\t-"
        texts = {"taxonomy": f"{SCHEMA_VERSION}\ttaxonomy\nt\n", "concepts": f"{SCHEMA_VERSION}\tconcepts\n{line}\n"}
        store = Store()
        rules = [r.rule for r in load_dataset(DatasetBundle.from_texts(texts), store).rejections]
        if lemma != lemma.strip():
            # Its entry would drop the space, so text could never match it as written.
            assert len(rules) == 1 and "may not start or end with whitespace" in rules[0], lemma
            return
        assume(not rules)
        [concept] = store.snapshot().concepts.values()
        for entry in filter(None, (concept.key.lemma, concept.glyph)):
            _assert_extracts(store.snapshot(), concept.key.canonical, entry)

    @settings(max_examples=60, deadline=None)
    @given(texts=bundle_texts())
    def test_in_generated_bundles(self, texts):
        store = Store()
        load_dataset(DatasetBundle.from_texts(texts), store)
        snap = store.snapshot()
        for key, concept in snap.concepts.items():
            assert concept in snap.find_by_lemma(concept.key.lemma.upper())
            for entry in filter(None, (concept.key.lemma, concept.glyph)):
                _assert_extracts(snap, key, entry)


_ROOTS = sorted({path[0] for path in _FIXTURE.snapshot().taxonomy.paths()})
_TYPE_NAMES = ["cites", "related", "part-of", "whole-of"]
#: One write of a transaction; some fail (an unregistered parent, a removed
#: endpoint, a symmetric type with an inverse), and the transaction goes on.
_WRITE = st.one_of(
    st.tuples(st.just("category"), st.sampled_from(_ROOTS), st.lists(_seg, max_size=2)),
    st.tuples(st.just("relation type"), st.sampled_from(_TYPE_NAMES), st.booleans(),
              st.sampled_from([None, *_TYPE_NAMES])),
    st.tuples(st.just("concept"), st.sampled_from(_ROOTS), _seg),
    st.tuples(st.just("form"), _seg, _seg),
    st.tuples(st.just("relation"), st.sampled_from(_KEYS), st.sampled_from(_KEYS), st.sampled_from(_TYPE_NAMES)),
    st.tuples(st.just("drop concept"), st.sampled_from(_KEYS)),
)


def _write(state, write) -> None:
    action, *args = write
    if action == "category":
        root, rest = args
        state.register_category([root, *rest])
    elif action == "relation type":
        name, symmetric, inverse = args
        state.upsert_relation_type(RelationType(name, symmetric, inverse))
    elif action == "concept":
        root, lemma = args
        state.upsert_concept(Concept(ConceptKey((root,), lemma), ConceptKind.WORD))
    elif action == "form":
        state.upsert_form(WordForm(*args))
    elif action == "relation":
        state.upsert_relation(*args)
    else:
        state.remove_concept(*args)


class _Abort(Exception):
    pass


class TestKeptSnapshot:
    """A snapshot kept while the store moves on never changes: every table it holds is copied before a write."""

    @settings(max_examples=15, deadline=None)
    @given(transactions=st.lists(
        st.tuples(st.lists(_WRITE, min_size=1, max_size=3), st.booleans()), min_size=50, max_size=50))
    def test_exports_as_it_first_did(self, transactions):
        store = Store()
        load_dataset(DatasetBundle.read_dir(fixture_dir()), store)
        kept = {}
        for step, (writes, commit) in enumerate(transactions):
            if step in (0, 25):
                snap = store.snapshot()
                kept[step] = (snap, export_dataset(snap), snap.stats())
            try:
                with store.write() as state:
                    for write in writes:
                        try:
                            _write(state, write)
                        except KonseptaError:
                            pass
                    if not commit:
                        raise _Abort
            except _Abort:
                pass
        for step, (snap, text, stats) in kept.items():
            assert export_dataset(snap) == text, step
            assert snap.stats() == stats, step


class TestEdgesAmong:
    def test_lone_key_has_no_edges(self):
        assert _FIXTURE.snapshot().neighbors(_LONE) == []

    @settings(max_examples=100, deadline=None)
    @given(among=st.sets(st.sampled_from(_KEYS)))
    @example(among=set())
    @example(among={_LONE})
    @example(among={_LONE, "človek/muž", "človek/žena"})
    def test_equals_filtered_full_list(self, among):
        snap = _FIXTURE.snapshot()
        expected = [e for e in snap.edges() if e.source in among and e.target in among]
        assert snap.edges(among) == expected
        # semantic_network passes its layer, a dict of key -> depth.
        assert snap.edges(dict.fromkeys(among, 0)) == expected


class TestDeterminism:
    def test_list_returning_operations_stable(self, snap):
        assert snap.find_by_lemma("hruška") == snap.find_by_lemma("hruška")
        assert snap.find_by_form("hrušky") == snap.find_by_form("hrušky")
        assert snap.neighbors("meno/Miro") == snap.neighbors("meno/Miro")
        assert snap.entry_candidates("vysoká") == snap.entry_candidates("vysoká")
        assert snap.edges() == snap.edges()

    def test_graph_operations_pure_on_snapshot(self, snap):
        args = ("človek/muž", "človek/panovník/kráľ", 3)
        assert path_relations(snap, *args) == path_relations(snap, *args)
        assert transitive_closure(snap, "jedlo/ovocie/hruška", "hypernym", 3) == transitive_closure(
            snap, "jedlo/ovocie/hruška", "hypernym", 3
        )
        first = semantic_network(snap, ["človek/muž"], 2)
        second = semantic_network(snap, ["človek/muž"], 2)
        assert first == second
        assert to_dot(first.to_payload()) == to_dot(second.to_payload())

    def test_extraction_deterministic(self, snap):
        text = "Miro a Mirko na vysokej škole v Bratislave 🍐"
        assert extract(text, snap) == extract(text, snap)


class TestUnicodeBoundaries:
    def test_decomposed_input_still_matches(self, snap):
        decomposed = unicodedata.normalize("NFD", "hruška")
        assert decomposed != "hruška"
        annotations = extract(decomposed, snap)
        assert len(annotations) == 1
        assert annotations[0].chosen == "jedlo/ovocie/hruška"
        # spans index the original string, not a normalized copy
        assert annotations[0].end == len(decomposed)
        # a decomposed inflected form still finds its lemma
        plural = unicodedata.normalize("NFD", "hrušky")
        assert [form.lemma for form, _ in snap.find_by_form(plural)] == ["hruška"]
        [ann] = extract(plural, snap)
        assert ann.match_level is MatchLevel.LEMMA
        assert {c.key for c in ann.candidates} == {"jedlo/ovocie/hruška", "rastlina/strom/hruška"}
