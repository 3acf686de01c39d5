import pytest

from konsepta import DatasetBundle, RelationEdge, Store, export_dataset, load_dataset
from konsepta.ingest import (
    SCHEMA_VERSION,
    BundleFormatError,
    write_bundle,
)


def _bundle(**kinds: list[str]) -> DatasetBundle:
    texts = {}
    for kind, lines in kinds.items():
        texts[kind] = "\n".join([f"{SCHEMA_VERSION}\t{kind}", *lines]) + "\n"
    return DatasetBundle.from_texts(texts)


MINI = dict(
    relation_types=["synonym\t1\t-", "hypernym\t0\thyponym", "hyponym\t0\thypernym"],
    taxonomy=["vec", "vec/nástroj"],
    concepts=[
        "vec/kladivo\tword\tnoun\tm\t-\ten:hammer",
        "vec/nástroj/píla\tword\tnoun\tf\t-\t-",
    ],
    forms=["kladiva\tkladivo\tnoun\tn\tsg.gen"],
    relations=["vec/kladivo\tvec/nástroj/píla\tsynonym"],
)


def _rules(kind: str, fields: tuple[str, ...]) -> list[str]:
    """Rejection rules of one record loaded over the MINI registry."""
    bundle = _bundle(
        relation_types=MINI["relation_types"], taxonomy=["vec", "a"], **{kind: ["\t".join(fields)]}
    )
    return [r.rule for r in load_dataset(bundle, Store()).rejections]


class TestFixtureLoad:
    def test_counts_match_files(self, fixture_texts, report):
        for kind, text in fixture_texts.items():
            expected = len([l for l in text.splitlines()[1:] if l])
            assert report.counts[kind].inserted == expected, kind
            assert report.counts[kind].rejected == 0, kind

    def test_reload_is_idempotent(self, fixture_texts):
        store = Store()
        bundle = DatasetBundle.from_texts(fixture_texts)
        first = load_dataset(bundle, store)
        second = load_dataset(bundle, store)
        assert second.inserted == 0
        assert second.updated == 0
        assert second.rejected == 0
        assert second.unchanged == first.inserted + first.updated + first.unchanged + first.rejected

    def test_conflicting_duplicate_records_apply_last_wins(self):
        # Records are a stream of upserts: a later record for the same
        # identity supersedes an earlier one; the store state is stable
        # across reloads even though such bundles keep reporting updates.
        bundle = _bundle(
            relation_types=[],
            taxonomy=["vec"],
            forms=["x\ty\tnoun\tm\t-", "x\ty\tnoun\tm\tsg.gen"],
        )
        store = Store()
        first = load_dataset(bundle, store)
        assert first.counts["forms"].inserted == 1
        assert first.counts["forms"].updated == 1
        state_once = export_dataset(store.snapshot())
        assert "sg.gen" in state_once["forms"]
        load_dataset(bundle, store)
        assert export_dataset(store.snapshot()) == state_once

    def test_conservation(self, report, fixture_texts):
        # Every record of a kind lands in exactly one of its counts.
        for kind, counts in report.counts.items():
            records = len([l for l in fixture_texts[kind].splitlines()[1:] if l])
            assert counts.inserted + counts.updated + counts.unchanged + counts.rejected == records, kind


class TestValidation:
    def test_translation_code_outside_allowed_set(self):
        fields = ("vec/slovo", "word", "noun", "n", "-", "ru:слово")
        problems = _rules("concepts", fields)
        assert any("language code not in allowed set" in p for p in problems)

    def test_emoticon_without_glyph(self):
        fields = ("vec/slovo", "emoticon", "noun", "n", "-", "-")
        problems = _rules("concepts", fields)
        assert any("glyph required" in p for p in problems)

    def test_well_formed_noun_passes(self):
        fields = ("vec/slovo", "word", "noun", "n", "-", "en:word")
        assert _rules("concepts", fields) == []

    def test_glyph_on_plain_word(self):
        fields = ("vec/slovo", "word", "noun", "n", "+", "-")
        problems = _rules("concepts", fields)
        assert any("glyph not allowed" in p for p in problems)

    def test_mwe_kind_must_match_spaced_lemma(self):
        spaced = ("vec/dve slová", "word", "noun", "n", "-", "-")
        assert any("kind must be mwe" in p for p in _rules("concepts", spaced))
        unspaced = ("vec/slovo", "mwe", "noun", "n", "-", "-")
        assert any("requires a spaced lemma" in p for p in _rules("concepts", unspaced))

    def test_field_arity(self):
        assert _rules("concepts", ("a/b", "word")) != []
        assert _rules("relations", ("a/b",)) != []

    def test_unknown_enums(self):
        assert _rules("concepts", ("a/b", "word", "participle", "-", "-", "-")) != []
        assert _rules("concepts", ("a/b", "word", "noun", "x", "-", "-")) != []
        assert _rules("forms", ("x", "y", "noun", "q", "-")) != []

    def test_unrepresentable_values_rejected(self):
        # values the tab-separated format cannot carry are invalid everywhere
        from konsepta import Concept, ConceptKind, PartOfSpeech, WordForm
        from konsepta.core import ConceptKey, ValidationError, validate_concept

        bad_translation = Concept(
            ConceptKey(("a",), "b"),
            ConceptKind.WORD,
            PartOfSpeech.NOUN,
            translations=(("en", "x|y"),),
        )
        assert any("'|'" in p for p in validate_concept(bad_translation))
        dash_glyph = Concept(ConceptKey(("a",), "b"), ConceptKind.SYMBOL, glyph="-")
        assert any("non-blank" in p for p in validate_concept(dash_glyph))
        with pytest.raises(ValidationError):
            WordForm("a\tb", "c")
        with pytest.raises(ValidationError):
            WordForm("a", "b", tags="x\ty")


class TestPartialFailure:
    def test_bad_record_isolated(self):
        bundle = _bundle(
            relation_types=MINI["relation_types"],
            taxonomy=MINI["taxonomy"],
            concepts=[
                MINI["concepts"][0],
                "vec/zlý\tword\tnoun\tm\t-\tru:плохой",
                MINI["concepts"][1],
            ],
        )
        store = Store()
        report = load_dataset(bundle, store)
        assert report.counts["concepts"].inserted == 2
        assert report.counts["concepts"].rejected == 1
        assert store.snapshot().get("vec/kladivo") is not None
        assert store.snapshot().get("vec/nástroj/píla") is not None
        assert store.snapshot().get("vec/zlý") is None

    def test_relation_with_unknown_endpoint(self):
        bundle = _bundle(
            relation_types=MINI["relation_types"],
            taxonomy=MINI["taxonomy"],
            concepts=MINI["concepts"],
            relations=[
                "vec/kladivo\tvec/neznámy\tsynonym",
                MINI["relations"][0],
            ],
        )
        store = Store()
        report = load_dataset(bundle, store)
        assert report.counts["relations"].inserted == 1
        assert report.counts["relations"].rejected == 1
        rejection = report.rejections[0]
        assert rejection.rule == "unknown endpoint"
        assert RelationEdge("vec/kladivo", "vec/nástroj/píla", "synonym") in store.snapshot().edges()

    def test_concept_under_unregistered_category(self):
        bundle = _bundle(
            relation_types=[],
            taxonomy=["vec"],
            concepts=["inde/slovo\tword\tnoun\tn\t-\t-"],
        )
        report = load_dataset(bundle, Store())
        assert report.counts["concepts"].rejected == 1
        assert "unregistered category path" in report.rejections[0].rule

    def test_taxonomy_order_does_not_matter(self):
        bundle = _bundle(taxonomy=["vec/nástroj/pílka", "vec", "vec/nástroj"])
        store = Store()
        report = load_dataset(bundle, store)
        assert report.counts["taxonomy"].inserted == 3
        assert report.rejected == 0
        assert ("vec", "nástroj", "pílka") in store.snapshot().taxonomy

    def test_dangling_taxonomy_parent_rejected(self):
        bundle = _bundle(taxonomy=["vec", "iné/slovo"])
        report = load_dataset(bundle, Store())
        assert report.counts["taxonomy"].inserted == 1
        assert report.counts["taxonomy"].rejected == 1

    def test_self_relation_rejected(self):
        bundle = _bundle(
            relation_types=MINI["relation_types"],
            taxonomy=MINI["taxonomy"],
            concepts=MINI["concepts"],
            relations=["vec/kladivo\tvec/kladivo\tsynonym"],
        )
        report = load_dataset(bundle, Store())
        assert report.counts["relations"].rejected == 1

    def test_involution_violations_rejected(self):
        bundle = _bundle(
            relation_types=[
                "synonym\t1\t-",
                "part-of\t0\tmissing-type",
            ],
            taxonomy=["vec"],
        )
        report = load_dataset(bundle, Store())
        assert report.counts["relation_types"].inserted == 1
        assert report.counts["relation_types"].rejected == 1


class TestIngestContract:
    """Every kind's rejection rules, pinned literally: (kind, line, rule, detail)."""

    BAD = dict(
        relation_types=[
            *MINI["relation_types"],
            "meronym\t2\t-",
            "Zlý Typ\t0\tINÝ",
            "part-of\t0\tchýba",
            "antonym\t1",
        ],
        taxonomy=[*MINI["taxonomy"], "vec//zlé", "vec/a\x01b", "vec\tnavyše"],
        concepts=[
            *MINI["concepts"],
            "inde/plus\tsymbol\tnoun\tm\t-\tru:плюс",
            "inde/slovo\tword\tnoun\tm\t-\t-",
            "vec//x\tword\tnoun\tm\t-\t-",
            "vec/slovo\tword\tparticiple\tm\t-\t-",
            "vec/slovo\tword\tnoun",
        ],
        forms=[*MINI["forms"], "\t\tnoun\tm\t-", "x\ty\tnoun\tq\t-", "x\ty"],
        relations=[
            *MINI["relations"],
            "vec//x\tvec/kladivo\tneznámy",
            "vec/kladivo\tvec/nástroj//píla\tsynonym",
            "vec/kladivo\tvec/nástroj/píla\tneznámy",
            "vec/kladivo\tvec/neznámy\tsynonym",
            "vec/kladivo\tvec/kladivo\tsynonym",
            "vec/kladivo",
        ],
    )
    EXPECTED = [
        ("relation_types", 5, "symmetric flag must be 0 or 1: '2'", ""),
        # every RelationType problem, joined
        ("relation_types", 6, "relation type name must be lowercase, no whitespace: 'Zlý Typ'; "
                              "inverse name must be lowercase, no whitespace: 'INÝ'", ""),
        ("relation_types", 8, "expected 3 fields, got 2", ""),
        # pairing rejections follow the per-record ones
        ("relation_types", 7, "inverse type not registered: chýba", ""),
        # taxonomy records apply parents first
        ("taxonomy", 6, "expected 1 fields, got 2", ""),
        ("taxonomy", 5, "category segment contains a control character: 'a\\x01b'", ""),
        ("taxonomy", 4, "empty category segment", ""),
        # a concept's first invariant problem only, before its category check
        ("concepts", 4, "glyph required for kind symbol", ""),
        ("concepts", 5, "unregistered category path: inde", ""),
        ("concepts", 6, "empty category segment", ""),
        ("concepts", 7, "unknown part of speech: 'participle'", ""),
        ("concepts", 8, "expected 6 fields, got 3", ""),
        # every WordForm problem, joined
        ("forms", 3, "empty form surface; empty form lemma", ""),
        ("forms", 4, "unknown gender: 'q'", ""),
        ("forms", 5, "expected 5 fields, got 2", ""),
        # a malformed endpoint wins over an unknown type
        ("relations", 3, "empty category segment", ""),
        ("relations", 4, "empty category segment", ""),
        ("relations", 5, "unknown relation type", "neznámy"),
        ("relations", 6, "unknown endpoint", "relation endpoint does not resolve: vec/neznámy"),
        ("relations", 7, "relation endpoints must differ: vec/kladivo -synonym- vec/kladivo", ""),
        ("relations", 8, "expected 3 fields, got 1", ""),
    ]

    def test_rejection_rules(self):
        payload = load_dataset(_bundle(**self.BAD), Store()).to_payload()
        got = [(r["kind"], r["line"], r["rule"], r["detail"]) for r in payload["rejections"]]
        assert got == self.EXPECTED
        accepted = {"relation_types": 3, "taxonomy": 2, "concepts": 2, "forms": 1, "relations": 1}
        assert payload["counts"] == {
            kind: {"inserted": n, "updated": 0, "unchanged": 0, "rejected": len(self.BAD[kind]) - n}
            for kind, n in accepted.items()
        }

    def test_retyping_a_type_in_use(self):
        store = Store()
        load_dataset(_bundle(**MINI), store)
        payload = load_dataset(_bundle(relation_types=["synonym\t0\t-"]), store).to_payload()
        assert payload["rejections"] == [
            {"kind": "relation_types", "line": 2, "rule": "type in use by stored edges: synonym", "detail": ""}
        ]


class TestHeaders:
    def test_unknown_version_rejected(self):
        with pytest.raises(BundleFormatError):
            DatasetBundle.from_texts({"taxonomy": "konsepta/v2\ttaxonomy\nvec\n"})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(BundleFormatError):
            DatasetBundle.from_texts({"taxonomy": f"{SCHEMA_VERSION}\tconcepts\nvec\n"})

    def test_missing_header_rejected(self):
        with pytest.raises(BundleFormatError):
            DatasetBundle.from_texts({"taxonomy": "vec\n"})


class TestExport:
    def test_round_trip_equals_original(self, store):
        texts = export_dataset(store.snapshot())
        second_store = Store()
        report = load_dataset(DatasetBundle.from_texts(texts), second_store)
        assert report.rejected == 0
        assert export_dataset(second_store.snapshot()) == texts

    def test_export_deterministic(self, store):
        assert export_dataset(store.snapshot()) == export_dataset(store.snapshot())

    def test_empty_store_exports_headers_only(self):
        texts = export_dataset(Store().snapshot())
        for kind, text in texts.items():
            lines = text.splitlines()
            assert lines[0] == f"{SCHEMA_VERSION}\t{kind}"
            assert len(lines) == 1

    def test_write_and_read_directory(self, tmp_path, store):
        texts = export_dataset(store.snapshot())
        write_bundle(tmp_path / "out", texts)
        bundle = DatasetBundle.read_dir(tmp_path / "out")
        second = Store()
        assert load_dataset(bundle, second).rejected == 0
        assert export_dataset(second.snapshot()) == texts

    def test_mini_round_trip(self):
        store = Store()
        load_dataset(_bundle(**MINI), store)
        texts = export_dataset(store.snapshot())
        again = Store()
        load_dataset(DatasetBundle.from_texts(texts), again)
        assert export_dataset(again.snapshot()) == texts

    def test_labeled_other_pos_round_trips(self):
        from konsepta import PartOfSpeech

        bundle = _bundle(
            relation_types=[],
            taxonomy=["vec"],
            concepts=["vec/hľa\tword\tother:citoslovce\t-\t-\t-"],
        )
        store = Store()
        assert load_dataset(bundle, store).rejected == 0
        concept = store.snapshot().get("vec/hľa")
        assert concept.pos is PartOfSpeech.OTHER
        assert concept.pos_label == "citoslovce"
        texts = export_dataset(store.snapshot())
        assert "other:citoslovce" in texts["concepts"]
        again = Store()
        load_dataset(DatasetBundle.from_texts(texts), again)
        assert export_dataset(again.snapshot()) == texts
