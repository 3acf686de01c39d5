import pytest
from hypothesis import given, settings, strategies as st

from konsepta import (
    Concept,
    ConceptKey,
    ConceptKind,
    Gender,
    PartOfSpeech,
    disambiguate,
    extract,
    tokenize,
)
from konsepta.extract import (
    DEFAULT_WEIGHTS,
    MatchLevel,
    TokenClass,
)

import oracles

FRUIT = "jedlo/ovocie/hruška"
TREE = "rastlina/strom/hruška"
MWE = "veda/škola/vysoká škola"


class TestTokenize:
    def test_two_plus_two(self):
        tokens = tokenize("2 + 2")
        assert [(t.text, t.cls) for t in tokens] == [
            ("2", TokenClass.NUMBER),
            (" ", TokenClass.SPACE),
            ("+", TokenClass.SYMBOL),
            (" ", TokenClass.SPACE),
            ("2", TokenClass.NUMBER),
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_classes(self):
        tokens = tokenize("Pekná, vysoká škola! 🍐42")
        classes = [t.cls for t in tokens]
        assert classes == [
            TokenClass.WORD,
            TokenClass.PUNCT,
            TokenClass.SPACE,
            TokenClass.WORD,
            TokenClass.SPACE,
            TokenClass.WORD,
            TokenClass.PUNCT,
            TokenClass.SPACE,
            TokenClass.EMOJI,
            TokenClass.NUMBER,
        ]

    def test_symbols_one_per_scalar(self):
        tokens = tokenize("++")
        assert [t.text for t in tokens] == ["+", "+"]

    @given(st.text(max_size=80))
    def test_partition_property(self, text):
        tokens = tokenize(text)
        assert "".join(t.text for t in tokens) == text
        cursor = 0
        for token in tokens:
            assert token.start == cursor
            assert token.end > token.start
            cursor = token.end
        assert cursor == len(text)

    @given(st.text(max_size=80))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestExtract:
    def test_mwe_single_annotation(self, snap):
        annotations = extract("vysoká škola", snap)
        assert len(annotations) == 1
        ann = annotations[0]
        assert (ann.start, ann.end) == (0, 12)
        assert ann.chosen == MWE
        assert ann.match_level is MatchLevel.SURFACE

    def test_mwe_inflected_occurrence(self, snap):
        annotations = extract("na vysokej škole", snap)
        spans = [(a.start, a.end, a.chosen) for a in annotations]
        assert (3, 16, MWE) in spans

    def test_mwe_mixed_levels(self, snap):
        # First position surface-exact, second inflected.
        annotations = extract("vysoká škole", snap)
        assert [a.chosen for a in annotations] == [MWE]
        assert annotations[0].match_level is MatchLevel.LEMMA

    def test_plus_symbol(self, snap):
        annotations = extract("2 + 2", snap)
        assert len(annotations) == 1
        ann = annotations[0]
        assert ann.surface == "+"
        assert ann.chosen == "symbol/plus"
        assert ann.match_level is MatchLevel.GLYPH

    def test_pear_emoji(self, snap):
        annotations = extract("darujem 🍐 tebe", snap)
        glyph_anns = [a for a in annotations if a.match_level is MatchLevel.GLYPH]
        assert len(glyph_anns) == 1
        assert [c.key for c in glyph_anns[0].candidates] == [FRUIT]

    def test_empty_text(self, snap):
        assert extract("", snap) == []

    def test_numbers_and_punct_never_annotated(self, snap):
        annotations = extract("42, 7; 13.", snap)
        assert annotations == []

    def test_leftmost_longest_resumes_after_match(self, snap):
        annotations = extract("vysoká škola škola", snap)
        assert [(a.surface, a.chosen) for a in annotations] == [
            ("vysoká škola", MWE),
            ("škola", "veda/škola"),
        ]

    def test_annotations_ordered_non_overlapping(self, snap):
        annotations = extract("Miro a Mirko videli psa na vysokej škole v Bratislave", snap)
        cursor = -1
        for ann in annotations:
            assert ann.start > cursor
            cursor = ann.end - 1
        assert [a.chosen for a in annotations] == [
            "meno/Miro",
            "meno/Mirko",
            "zviera/pes",
            MWE,
            "miesto/mesto/Bratislava",
        ]

    def test_newline_terminates_mwe_window(self, snap):
        annotations = extract("vysoká\nškola", snap)
        chosen = [a.chosen for a in annotations]
        assert MWE not in chosen
        assert "veda/škola" in chosen

    def test_case_folded_mwe(self, snap):
        annotations = extract("NEW YORK", snap)
        assert [a.chosen for a in annotations] == ["miesto/mesto/New York"]

    def test_mwe_first_token_folding_to_non_nfc(self, fresh_store):
        # "ß" + U+0301 casefolds to "ss" + U+0301, which is not NFC; fold
        # normalizes it to "sś", the fold of "SŚ" too.
        key = ConceptKey(("veda", "škola"), "ß́ škola")
        with fresh_store.write() as state:
            state.upsert_concept(Concept(key, ConceptKind.MULTIWORD, PartOfSpeech.NOUN))
        for text in ("ß́ škola", "SŚ škola"):
            annotations = extract(text, fresh_store.snapshot())
            assert [(a.surface, a.chosen) for a in annotations] == [(text, key.canonical)]

    def test_monotonicity_adding_unrelated_concept(self, fresh_store):
        text = "Miro číta knihy na vysokej škole"
        before = [(a.start, a.end) for a in extract(text, fresh_store.snapshot())]
        with fresh_store.write() as state:
            state.upsert_concept(
                Concept(
                    ConceptKey(("zviera",), "kengura"),
                    ConceptKind.WORD,
                    PartOfSpeech.NOUN,
                    gender=Gender.FEMININE,
                )
            )
        after = [(a.start, a.end) for a in extract(text, fresh_store.snapshot())]
        assert before == after


class TestDisambiguate:
    def test_lone_ambiguous_lemma_tie_break(self, snap):
        annotations = extract("hruška", snap)
        assert len(annotations) == 1
        ann = annotations[0]
        scores = {c.key: c.score for c in ann.candidates}
        assert scores[FRUIT] == scores[TREE]
        assert ann.chosen == FRUIT  # equal depth, canonical key order decides
        # A stored lemma reads as itself, at surface level.
        [dog] = extract("pes", snap)
        assert (dog.chosen, dog.match_level) == ("zviera/pes", MatchLevel.SURFACE)

    def test_context_prefers_fruit_sense(self, snap):
        annotations = extract("jablko a hruška", snap)
        pear = next(a for a in annotations if a.surface == "hruška")
        scores = {c.key: c.score for c in pear.candidates}
        # By hand: surface 0.4 both; fruit shares the jedlo branch with
        # jablko (1/1 of other annotations), tree shares nothing.
        assert scores[FRUIT] == pytest.approx(0.4 + 0.3)
        assert scores[TREE] == pytest.approx(0.4)
        assert pear.chosen == FRUIT

    def test_form_agreement_bonuses(self, snap):
        annotations = extract("hrušky", snap)
        ann = annotations[0]
        scores = {c.key: c.score for c in ann.candidates}
        # Lemma level 0.2 + POS agreement 0.2 + gender agreement 0.1.
        assert scores[FRUIT] == pytest.approx(0.5)

    def test_scores_clamped_to_unit_interval(self, snap):
        text = "jablko hrušky ovocie strava"
        for ann in extract(text, snap):
            for candidate in ann.candidates:
                assert 0.0 <= candidate.score <= 1.0

    def test_candidates_sorted_descending_chosen_first(self, snap):
        for ann in extract("hruška zver škola vysoká škola 🍐", snap):
            scores = [c.score for c in ann.candidates]
            assert scores == sorted(scores, reverse=True)
            assert ann.chosen == ann.candidates[0].key

    def test_idempotent(self, snap):
        annotations = extract("jablko a hruška na vysokej škole", snap)
        again = disambiguate(annotations, snap, DEFAULT_WEIGHTS)
        assert again == annotations

    def test_gendered_form_limits_candidates(self, snap):
        annotations = extract("zveri", snap)
        assert [c.key for c in annotations[0].candidates] == ["zviera/zver"]


def _vocabulary(raw):
    vocab = []
    for concept in raw.concepts:
        vocab.append(concept.lemma)
    for surface, _lemma, _pos, _gender, _tags in raw.forms:
        vocab.append(surface)
    vocab.extend(["+", "*", "🍐", "a", "je", "na", "v", "xyzzy", "qwert", "42"])
    return sorted(set(vocab))


@pytest.fixture(scope="module")
def tables(raw):
    return oracles.ExtractTables.build(raw)


class TestOracleEquivalence:
    def _assert_matches_oracle(self, text, snap, tables):
        got = [
            (a.start, a.end, frozenset(c.key for c in a.candidates))
            for a in extract(text, snap)
        ]
        assert got == oracles.extract_oracle(text, tables), repr(text)

    @pytest.mark.parametrize(
        "text",
        [
            "vysoká škola",
            "na vysokej škole v Bratislave",
            "základná škola a vysoká škola",
            "Slovenská republika, Slovensko a SR",
            "2 + 2 * 7",
            "hrušky, jablká a 🍐",
            "Miro Mirko Miroslava",
            "zver zveri zvera",
            "vysoká škola\nzákladná škola",
            "New Yorku aj v New Yorku",
            "silný slabý silného čítajúca",
        ],
    )
    def test_fixed_cases(self, text, snap, tables):
        self._assert_matches_oracle(text, snap, tables)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_fixture_strings(self, data, snap, raw, tables):
        vocab = _vocabulary(raw)
        items = data.draw(st.lists(st.sampled_from(vocab), min_size=0, max_size=6))
        separator = data.draw(st.sampled_from([" ", "  ", ", ", " - ", "\n", ". "]))
        text = separator.join(items)
        self._assert_matches_oracle(text, snap, tables)
