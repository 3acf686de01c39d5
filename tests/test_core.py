import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from konsepta.core import (
    ConceptKey,
    KeyFormatError,
    RelationRegistry,
    RelationType,
    TokenClass,
    UnknownCategoryError,
    ValidationError,
    entry_tokens,
    fold,
    parse_concept_key,
    tokenize,
)
from konsepta.store import Store

# Slovak letters plus ASCII; slash and control characters excluded by design.
_component_alphabet = "aáäbcčdďeéfghiíjklĺľmnňoóôpqrŕsštťuúvwxyýzž AŠŽ0123456789-"


def _component():
    return st.text(alphabet=_component_alphabet, min_size=1, max_size=12).map(
        lambda s: unicodedata.normalize("NFC", s)
    ).filter(lambda s: s.strip() == s and s)


def _keys():
    return st.builds(
        ConceptKey,
        path=st.lists(_component().filter(lambda s: " " not in s), min_size=1, max_size=4).map(tuple),
        lemma=_component(),
    )


class TestConceptKey:
    def test_parse_two_level(self):
        key = parse_concept_key("rastlina/strom/hruška")
        assert key.path == ("rastlina", "strom")
        assert key.lemma == "hruška"

    def test_parse_lemma_with_space(self):
        key = parse_concept_key("veda/škola/vysoká škola")
        assert key.path == ("veda", "škola")
        assert key.lemma == "vysoká škola"

    def test_parse_single_component_fails(self):
        with pytest.raises(KeyFormatError):
            parse_concept_key("hruška")

    @pytest.mark.parametrize("bad", ["", "/", "a//b", "/a/b", "a/b/", "a/b\x00c"])
    def test_parse_malformed(self, bad):
        with pytest.raises(KeyFormatError):
            parse_concept_key(bad)

    def test_format_examples(self):
        assert ConceptKey(("rastlina", "strom"), "hruška").canonical == "rastlina/strom/hruška"
        assert ConceptKey(("symbol",), "plus").canonical == "symbol/plus"

    def test_empty_path_rejected(self):
        with pytest.raises(KeyFormatError):
            ConceptKey((), "hruška")

    def test_slash_in_lemma_rejected(self):
        with pytest.raises(KeyFormatError):
            ConceptKey(("a",), "b/c")

    @given(_keys())
    def test_round_trip_from_key(self, key):
        assert parse_concept_key(key.canonical) == key

    @given(_keys())
    def test_round_trip_from_string(self, key):
        s = key.canonical
        assert parse_concept_key(s).canonical == s

    @given(_keys())
    def test_nfc_idempotent(self, key):
        again = ConceptKey(key.path, key.lemma)
        assert again == key
        assert unicodedata.normalize("NFC", key.lemma) == key.lemma

    def test_parse_normalizes_to_nfc(self):
        decomposed = "rastlina/strom/hruška"  # š as s + combining caron
        key = parse_concept_key(decomposed)
        assert key.lemma == "hruška"
        assert key.canonical == unicodedata.normalize("NFC", decomposed)


# Base scalars interleaved with common combining marks (acute, grave,
# circumflex, diaeresis, caron, cedilla, dot below, iota subscript).
_marked_text = st.lists(
    st.one_of(
        st.characters(max_codepoint=0x2FFFF, blacklist_categories=("Cs",)),
        st.sampled_from("\u0301\u0300\u0302\u0308\u030c\u0327\u0323\u0345"),
    ),
    max_size=8,
).map("".join)


class TestFold:
    @given(_marked_text)
    @example("\u00df\u0301")  # casefolds to "ss" + U+0301, which is not NFC
    def test_idempotent(self, s):
        folded = fold(s)
        assert unicodedata.is_normalized("NFC", folded)
        assert fold(folded) == folded


class TestEntryTokens:
    def test_alphabetic_scalar_is_one_word_token(self):
        # entry_tokens skips the tokenizer for str.isalpha() text; that holds
        # because every alphabetic scalar is a WORD scalar, and WORD scalars run together.
        for cp in range(0x110000):
            ch = chr(cp)
            if ch.isalpha():
                [token] = tokenize(ch)
                assert token.cls is TokenClass.WORD, hex(cp)

    @pytest.mark.parametrize("text, tokens", [
        ("hruška", ("hruška",)),
        ("vysoká  škola", ("vysoká", "škola")),
        ("e-mail", ("e", "-", "mail")),
        ("COVID19", ("COVID", "19")),
        ("1\ufe0f\u20e3", ("1", "\ufe0f\u20e3")),
        ("   ", ()),
    ])
    def test_tokens_without_spaces(self, text, tokens):
        assert entry_tokens(text) == tokens


class TestTaxonomy:
    """Categories are registered through ``StoreState.register_category`` inside a write."""

    def test_register_chain(self):
        with Store().write() as state:
            assert state.register_category(("rastlina",)) == "inserted"
            assert state.register_category(("rastlina", "strom")) == "inserted"
        assert ("rastlina",) in state.taxonomy
        assert ("rastlina", "strom") in state.taxonomy

    def test_register_idempotent(self):
        with Store().write() as state:
            state.register_category(("rastlina",))
            assert state.register_category(("rastlina",)) == "unchanged"
        assert len(state.taxonomy) == 1

    def test_dangling_parent(self):
        with pytest.raises(UnknownCategoryError), Store().write() as state:
            state.register_category(("rastlina", "strom"))

    def test_all_fixture_ancestors_registered(self, snap):
        # Forest property: every proper prefix of a registered path is registered.
        for path in snap.taxonomy.paths():
            for i in range(1, len(path)):
                assert path[:i] in snap.taxonomy

    def test_fixture_category_count_matches_file(self, fixture_texts, snap):
        lines = [l for l in fixture_texts["taxonomy"].splitlines()[1:] if l]
        assert len(snap.taxonomy) == len(lines)


class TestRelationRegistry:
    def test_symmetric_reads_as_itself(self, snap):
        registry = snap.registry
        assert registry.reading_back("synonym") == "synonym"
        assert registry.reading_back("antonym") == "antonym"

    def test_diminutive_pairs_with_augmentative(self, snap):
        registry = snap.registry
        assert registry.reading_back("diminutive") == "augmentative"
        assert registry.reading_back("augmentative") == "diminutive"

    def test_involution_over_full_registry(self, snap):
        registry = snap.registry
        assert registry.pairing_problems() == {}
        for name in registry.names():
            rt = registry.get(name)
            if rt.symmetric or rt.inverse is not None:
                assert registry.reading_back(registry.reading_back(name)) == name

    def test_ships_at_least_twenty_types(self, snap):
        registry = snap.registry
        assert len(registry) >= 20
        for required in ("synonym", "antonym", "hypernym", "hyponym", "diminutive", "augmentative"):
            assert required in registry

    def test_symmetric_with_foreign_inverse_rejected(self):
        with pytest.raises(ValidationError):
            RelationType("synonym", symmetric=True, inverse="antonym")

    def test_bad_names_rejected(self):
        with pytest.raises(ValidationError):
            RelationType("Has Space")
        with pytest.raises(ValidationError):
            RelationType("UPPER")

    def test_missing_inverse_raises(self):
        with Store().write() as state:
            assert state.upsert_relation_type(RelationType("points-at")) == "inserted"
        # A forward-only type has no backwards reading.
        assert state.registry.reading_back("points-at") is None

    def test_pairing_problem_detected(self):
        # Ingest checks the types it stages this way before it writes any.
        types = [RelationType("a-rel", inverse="b-rel"), RelationType("b-rel", inverse="c-rel"),
                 RelationType("c-rel", inverse="b-rel")]
        problems = RelationRegistry({rt.name: rt for rt in types}).pairing_problems()
        assert "a-rel" in problems

    def test_upsert_dispositions(self):
        with Store().write() as state:
            assert state.upsert_relation_type(RelationType("points-at")) == "inserted"
            assert state.upsert_relation_type(RelationType("points-at")) == "unchanged"
            assert state.upsert_relation_type(RelationType("points-at", symmetric=True)) == "updated"
        assert state.registry.get("points-at").symmetric

    def test_fixture_registry_matches_default(self, fixture_texts, snap):
        # every type the fixture file declares survives the load
        fixture_names = {
            line.split("\t")[0]
            for line in fixture_texts["relation_types"].splitlines()[1:]
            if line
        }
        assert fixture_names == set(snap.registry.names())
