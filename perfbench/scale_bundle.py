"""Seeded synthetic dataset bundle for the scale workloads.

The bundle is built so that every tool has real work at scale:

* lemmas are letters only (four consonant-vowel syllables), so extraction
  over generated text finds them;
* each noun has two inflected forms, and one lemma in ten is shared by two
  concepts under different top-level categories (two senses to rank);
* one concept in twenty is a two-word ``mwe`` entry whose first word is an
  adjective with inflected forms (``<stem>á <noun>`` read as ``<stem>ej <noun>``);
* a few hundred ``symbol`` and ``emoticon`` entries carry single-character
  glyphs;
* a reserved category holds concepts with no edges and no forms, for the
  writer of the ``scale-write`` workload to attach new edges to.

Word shapes never collide: lemmas are eight letters, noun forms eleven,
adjective words seven or eight with a vowel where lemmas have a consonant,
and filler words six.  The generator keeps the tables the benchmark checks
responses against, so expectations never come from the program under test.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

SCHEMA = "konsepta/v1"
CONSONANTS = "bdklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]

RELATION_TYPES = (
    ("synonym", "1", "-"),
    ("related", "1", "-"),
    ("hypernym", "0", "hyponym"),
    ("hyponym", "0", "hypernym"),
)
INVERSE = {"hypernym": "hyponym"}
EDGE_TYPES = ("synonym", "related", "hypernym")
NOUN_SUFFIXES = (("ami", "pl.ins"), ("ách", "pl.loc"))
ZONE_CATEGORY = ("zapis", "zona")
GLYPH_CATEGORY = ("znak",)


def word(number: int, syllables: int) -> str:
    """The ``number``-th letters-only word of a fixed syllable count."""
    parts = []
    for _ in range(syllables):
        number, digit = divmod(number, len(SYLLABLES))
        parts.append(SYLLABLES[digit])
    return "".join(parts)


def _symbol_glyphs() -> list[str]:
    return [chr(cp) for cp in range(0x2200, 0x2300)
            if unicodedata.category(chr(cp)) == "Sm" and unicodedata.normalize("NFC", chr(cp)) == chr(cp)]


def _emoji_glyphs() -> list[str]:
    return [chr(cp) for cp in range(0x1F300, 0x1F600) if unicodedata.category(chr(cp)) == "So"]


@dataclass(frozen=True)
class Form:
    surface: str
    lemma: str
    gender: str   # "" for the adjective forms, which carry no gender
    tag: str


@dataclass
class ScaleData:
    """The generated bundle texts plus the tables checks are computed from."""

    texts: dict[str, str]
    keys: list[str]                       # every concept key, zone included
    main: list[str]                       # concepts that carry edges
    zone: list[str]                       # edge-less concepts reserved for writes
    lemma: dict[str, str]
    gender: dict[str, str]
    by_lemma: dict[str, list[str]]
    forms: list[Form]
    forms_of: dict[str, list[Form]]       # concept key -> its joined forms
    adjacency: dict[str, list[tuple[str, str]]]   # key -> as-read (label, other)
    incident: dict[str, list[tuple[str, str, str]]]  # key -> stored edges touching it
    edge_count: int
    mwe: dict[str, tuple[str, str]]       # mwe key -> (inflected first word, noun)
    glyph: dict[str, str]                 # glyph -> concept key
    concept_lines: dict[str, str]         # concept key -> its concepts.tsv line
    relation_lines: list[str]

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for kind, text in self.texts.items():
            (directory / f"{kind}.tsv").write_bytes(text.encode("utf-8"))

    def neighbors(self, key: str) -> set[str]:
        return {other for _label, other in self.adjacency.get(key, ())}

    def layers(self, seed: str, depth: int) -> dict[str, int]:
        """BFS layering over the generated graph, as the graph endpoint reads it."""
        layer = {seed: 0}
        frontier = [seed]
        for d in range(1, depth + 1):
            nxt = []
            for node in frontier:
                for other in sorted(self.neighbors(node)):
                    if other not in layer:
                        layer[other] = d
                        nxt.append(other)
            frontier = nxt
        return layer


def generate(seed: int, concepts: int, edges: int) -> ScaleData:
    """Build the bundle; the same arguments give byte-identical texts."""
    rng = random.Random(f"scale-bundle:{seed}")
    tops = [word(n, 3) for n in rng.sample(range(len(SYLLABLES) ** 3), 8)]
    categories = [(top, word(n, 3)) for top in tops
                  for n in rng.sample(range(len(SYLLABLES) ** 3), 20)]
    taxonomy = sorted({(top,) for top in tops} | set(categories)
                      | {ZONE_CATEGORY[:1], ZONE_CATEGORY, GLYPH_CATEGORY})

    n_zone = max(4, concepts // 100)
    n_glyph = min(300, max(4, concepts // 50))
    n_main = concepts - n_zone - n_glyph
    lemma_ids = rng.sample(range(len(SYLLABLES) ** 4), n_main + n_zone + n_glyph)
    adj_ids = rng.sample(range(len(SYLLABLES) ** 3), n_main)

    keys: list[str] = []
    lemma: dict[str, str] = {}
    gender: dict[str, str] = {}
    glyphs: dict[str, str] = {}
    mwe: dict[str, tuple[str, str]] = {}
    forms: list[Form] = []
    concept_lines: dict[str, str] = {}

    def add(key: str, lem: str, kind: str, gen: str, glyph: str = "") -> None:
        keys.append(key)
        lemma[key], gender[key] = lem, gen
        translations = f"en:{lem}" if rng.random() < 0.3 else "-"
        concept_lines[key] = "\t".join((key, kind, "noun", gen, glyph or "-", translations))

    senses: list[str] = []
    for i in range(n_main):
        path = rng.choice(categories)
        gen = rng.choice("mfn")
        if senses and rng.random() < 0.1:
            # Second sense of an earlier lemma, under another top-level branch.
            other = rng.choice(senses)
            choices = [c for c in categories if c[0] != other.split("/")[0]]
            path = rng.choice(choices)
            lem = lemma[other]
            kind = "word"
        elif rng.random() < 0.05:
            stem = word(adj_ids[i], 3)
            noun = word(lemma_ids[i], 4)
            lem = f"{stem}á {noun}"
            kind = "mwe"
        else:
            lem = word(lemma_ids[i], 4)
            kind = "word"
        key = "/".join(path + (lem,))
        if key in lemma:
            continue
        add(key, lem, kind, gen)
        if kind == "mwe":
            mwe[key] = (stem + "ej", noun)
            forms.append(Form(stem + "á", stem + "ý", "", "f.sg.nom"))
            forms.append(Form(stem + "ej", stem + "ý", "", "f.sg.loc"))
        else:
            senses.append(key)
            for suffix, tag in NOUN_SUFFIXES:
                forms.append(Form(lem + suffix, lem, gen, tag))
    main = list(keys)

    symbols, emoji = _symbol_glyphs(), _emoji_glyphs()
    chosen = rng.sample(symbols, min(len(symbols), n_glyph // 2))
    chosen += rng.sample(emoji, min(len(emoji), n_glyph - len(chosen)))
    for j, glyph in enumerate(chosen):
        lem = word(lemma_ids[n_main + j], 4)
        if j < n_glyph // 2:
            key = "/".join(GLYPH_CATEGORY + (lem,))
            add(key, lem, "symbol", rng.choice("mfn"), glyph)
        else:
            key = "/".join(rng.choice(categories) + (lem,))
            add(key, lem, "emoticon", rng.choice("mfn"), glyph)
            main.append(key)
        glyphs[glyph] = key

    zone = []
    for j in range(n_zone):
        key = "/".join(ZONE_CATEGORY + (word(lemma_ids[n_main + n_glyph + j], 4),))
        add(key, key.rsplit("/", 1)[1], "word", rng.choice("mfn"))
        zone.append(key)

    # Relations among main concepts; symmetric endpoints in canonical order.
    edge_set: set[tuple[str, str, str]] = set()
    adjacency: dict[str, list[tuple[str, str]]] = {}
    incident: dict[str, list[tuple[str, str, str]]] = {}
    relation_lines = []
    while len(edge_set) < edges:
        a, b = rng.choice(main), rng.choice(main)
        type_name = EDGE_TYPES[len(edge_set) % len(EDGE_TYPES)]
        if a == b:
            continue
        if type_name not in INVERSE and b < a:
            a, b = b, a
        edge = (a, b, type_name)
        if edge in edge_set:
            continue
        edge_set.add(edge)
        relation_lines.append(f"{a}\t{b}\t{type_name}")
        incident.setdefault(a, []).append(edge)
        incident.setdefault(b, []).append(edge)
        adjacency.setdefault(a, []).append((type_name, b))
        adjacency.setdefault(b, []).append((INVERSE.get(type_name, type_name), a))

    by_lemma: dict[str, list[str]] = {}
    for key in keys:
        by_lemma.setdefault(lemma[key], []).append(key)
    forms = sorted(set(forms), key=lambda f: (f.surface, f.lemma, f.gender))
    forms_of: dict[str, list[Form]] = {}
    for form in forms:
        for key in by_lemma.get(form.lemma, ()):
            if not form.gender or form.gender == gender[key]:
                forms_of.setdefault(key, []).append(form)

    def block(kind: str, lines) -> str:
        return "\n".join([f"{SCHEMA}\t{kind}", *lines]) + "\n"

    texts = {
        "relation_types": block("relation_types", ("\t".join(t) for t in RELATION_TYPES)),
        "taxonomy": block("taxonomy", ("/".join(p) for p in taxonomy)),
        "concepts": block("concepts", (concept_lines[k] for k in keys)),
        "forms": block("forms", (
            "\t".join((f.surface, f.lemma, "noun" if f.gender else "adjective", f.gender or "-", f.tag))
            for f in forms)),
        "relations": block("relations", relation_lines),
    }
    return ScaleData(
        texts=texts, keys=keys, main=main, zone=zone, lemma=lemma, gender=gender,
        by_lemma=by_lemma, forms=forms, forms_of=forms_of, adjacency=adjacency,
        incident=incident, edge_count=len(edge_set), mwe=mwe, glyph=glyphs,
        concept_lines=concept_lines, relation_lines=relation_lines,
    )
