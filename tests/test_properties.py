"""Cross-module property tests over generated datasets and inputs."""

import unicodedata

from hypothesis import given, settings, strategies as st

from konsepta import DatasetBundle, Store, export_dataset, extract, load_dataset
from konsepta.extract import MatchLevel
from konsepta.ingest import SCHEMA_VERSION, fixture_dir
from konsepta.semantics import path_relations, semantic_network, to_dot, transitive_closure

_FIXTURE = Store()
load_dataset(DatasetBundle.read_dir(fixture_dir()), _FIXTURE)
_REGISTRY = _FIXTURE.snapshot().registry

_seg = st.text(alphabet="abcdeáčšž", min_size=1, max_size=5)


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
            glyph = draw(st.sampled_from(["+", "*", "§", "€", "🍐"]))
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


class TestDeterminism:
    def test_list_returning_operations_stable(self, snap):
        assert snap.find_by_lemma("hruška") == snap.find_by_lemma("hruška")
        assert snap.find_by_form("hrušky") == snap.find_by_form("hrušky")
        assert snap.neighbors("meno/Miro") == snap.neighbors("meno/Miro")
        assert snap.mwe_index_entries("vysoká") == snap.mwe_index_entries("vysoká")
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
