"""Dataset loading and export in a line-delimited, diff-friendly format.

A dataset bundle is a directory of up to five TSV files, one per record
kind.  Every file starts with a header line naming the schema version and
the kind (``konsepta/v1<TAB>concepts``); records are tab-separated fields,
lists inside a field use ``|`` and an empty optional field is written as
``-``.  The loader applies kinds in a fixed phase order (relation types,
taxonomy, concepts, forms, relations), so record order inside a bundle
never matters.  Invalid records are rejected individually and never abort
the rest of the load.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    Concept,
    ConceptKind,
    Gender,
    KonseptaError,
    PartOfSpeech,
    RelationType,
    UnknownConceptError,
    UnknownRelationTypeError,
    ValidationError,
    WordForm,
    nfc,
    parse_concept_key,
)

SCHEMA_VERSION = "konsepta/v1"

#: Fixed load phase order; also the order of kinds in reports.
PHASES = ("relation_types", "taxonomy", "concepts", "forms", "relations")

FILE_NAMES = {kind: f"{kind}.tsv" for kind in PHASES}

_FIELD_COUNTS = {
    "relation_types": 3,
    "taxonomy": 1,
    "concepts": 6,
    "forms": 5,
    "relations": 3,
}


class BundleFormatError(KonseptaError):
    """A bundle file is unreadable or carries an unknown schema header."""


@dataclass(frozen=True)
class RawRecord:
    line: int
    fields: tuple[str, ...]


@dataclass
class DatasetBundle:
    """Parsed-but-unvalidated record streams for each kind."""

    records: dict[str, list[RawRecord]] = field(
        default_factory=lambda: {kind: [] for kind in PHASES}
    )

    @classmethod
    def from_texts(cls, texts: dict[str, str]) -> "DatasetBundle":
        bundle = cls()
        for kind, text in texts.items():
            if kind not in FILE_NAMES:
                raise BundleFormatError(f"unknown record kind: {kind}")
            bundle.records[kind] = _parse_lines(kind, text)
        return bundle

    @classmethod
    def read_dir(cls, directory: str | Path) -> "DatasetBundle":
        directory = Path(directory)
        if not directory.is_dir():
            raise BundleFormatError(f"not a bundle directory: {directory}")
        texts = {}
        for kind, name in FILE_NAMES.items():
            path = directory / name
            if path.exists():
                try:
                    texts[kind] = path.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError) as exc:
                    raise BundleFormatError(f"cannot read {path}: {exc}") from exc
        return cls.from_texts(texts)


def _parse_lines(kind: str, text: str) -> list[RawRecord]:
    lines = text.splitlines()
    if not lines:
        raise BundleFormatError(f"{kind}: empty file, expected header")
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != SCHEMA_VERSION or header[1] != kind:
        raise BundleFormatError(
            f"{kind}: bad header {lines[0]!r}, expected {SCHEMA_VERSION!r} + kind"
        )
    records = []
    for idx, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        records.append(RawRecord(idx, tuple(nfc(f) for f in line.split("\t"))))
    return records


def _opt(value: str) -> str:
    return "" if value == "-" else value


def _enc(value: str) -> str:
    return value if value else "-"


@dataclass
class KindCounts:
    inserted: int = 0
    updated: int = 0
    unchanged: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class Rejection:
    kind: str
    line: int
    rule: str
    detail: str = ""


@dataclass
class IngestReport:
    counts: dict[str, KindCounts] = field(
        default_factory=lambda: {kind: KindCounts() for kind in PHASES}
    )
    rejections: list[Rejection] = field(default_factory=list)

    def _tally(self, kind: str, disposition: str) -> None:
        counts = self.counts[kind]
        if disposition == "inserted":
            counts.inserted += 1
        elif disposition == "updated":
            counts.updated += 1
        else:
            counts.unchanged += 1

    def _reject(self, kind: str, line: int, rule: str, detail: str = "") -> None:
        self.counts[kind].rejected += 1
        self.rejections.append(Rejection(kind, line, rule, detail))

    @property
    def inserted(self) -> int:
        return sum(c.inserted for c in self.counts.values())

    @property
    def updated(self) -> int:
        return sum(c.updated for c in self.counts.values())

    @property
    def unchanged(self) -> int:
        return sum(c.unchanged for c in self.counts.values())

    @property
    def rejected(self) -> int:
        return sum(c.rejected for c in self.counts.values())

    def to_payload(self) -> dict:
        return {
            "counts": {
                kind: {
                    "inserted": c.inserted,
                    "updated": c.updated,
                    "unchanged": c.unchanged,
                    "rejected": c.rejected,
                }
                for kind, c in self.counts.items()
            },
            "inserted": self.inserted,
            "updated": self.updated,
            "unchanged": self.unchanged,
            "rejected": self.rejected,
            "rejections": [
                {"kind": r.kind, "line": r.line, "rule": r.rule, "detail": r.detail}
                for r in self.rejections
            ],
        }


# --- record decoding -------------------------------------------------------

def _decode_pos(value: str) -> tuple[PartOfSpeech | None, str]:
    raw = _opt(value)
    if not raw:
        return None, ""
    label = ""
    if raw.startswith("other:"):
        raw, label = "other", raw.split(":", 1)[1]
    try:
        return PartOfSpeech(raw), label
    except ValueError:
        raise ValidationError([f"unknown part of speech: {value!r}"]) from None


def _decode_gender(value: str) -> Gender:
    raw = _opt(value)
    if not raw:
        return Gender.UNSPECIFIED
    try:
        return Gender(raw)
    except ValueError:
        raise ValidationError([f"unknown gender: {value!r}"]) from None


def _decode_translations(value: str) -> tuple[tuple[str, str], ...]:
    raw = _opt(value)
    if not raw:
        return ()
    pairs = []
    for item in raw.split("|"):
        if ":" not in item:
            raise ValidationError([f"translation needs 'code:text': {item!r}"])
        code, text = item.split(":", 1)
        pairs.append((code, text))
    return tuple(pairs)


def decode_concept(fields: tuple[str, ...]) -> Concept:
    key = parse_concept_key(fields[0])
    try:
        kind = ConceptKind(fields[1])
    except ValueError:
        raise ValidationError([f"unknown concept kind: {fields[1]!r}"]) from None
    pos, pos_label = _decode_pos(fields[2])
    gender = _decode_gender(fields[3])
    glyph = _opt(fields[4])
    translations = _decode_translations(fields[5])
    return Concept(
        key=key,
        kind=kind,
        pos=pos,
        pos_label=pos_label,
        gender=gender,
        glyph=glyph,
        translations=translations,
    )


def decode_form(fields: tuple[str, ...]) -> WordForm:
    pos, _ = _decode_pos(fields[2])
    return WordForm(
        surface=fields[0],
        lemma=fields[1],
        pos=pos,
        gender=_decode_gender(fields[3]),
        tags=_opt(fields[4]),
    )


def decode_relation_type(fields: tuple[str, ...]) -> RelationType:
    if fields[1] not in ("0", "1"):
        raise ValidationError([f"symmetric flag must be 0 or 1: {fields[1]!r}"])
    inverse = _opt(fields[2]) or None
    return RelationType(name=fields[0], symmetric=fields[1] == "1", inverse=inverse)


# --- loading ---------------------------------------------------------------

def load_dataset(bundle: DatasetBundle, store) -> IngestReport:
    """Apply a bundle to a store as one exclusive write transaction.

    Valid records are upserted, invalid ones rejected individually with a
    diagnostic.  Re-loading an identical bundle changes nothing and reports
    every record as unchanged.
    """
    report = IngestReport()
    records = bundle.records
    with store.write() as state:
        _load_relation_types(records["relation_types"], state, report)
        # Parents first, so in-file order never matters; file order breaks ties.
        taxonomy = sorted(records["taxonomy"], key=lambda rec: rec.fields[0].count("/"))
        _load(taxonomy, "taxonomy", report, lambda rec: (
            "inserted" if state.taxonomy.register(rec.fields[0].split("/")) else "unchanged"))
        _load(records["concepts"], "concepts", report,
              lambda rec: state.upsert_concept(decode_concept(rec.fields)))
        _load(records["forms"], "forms", report, lambda rec: state.upsert_form(decode_form(rec.fields)))
        _load(records["relations"], "relations", report, lambda rec: _upsert_relation(state, *rec.fields))
    return report


def _load(records: list[RawRecord], kind: str, report: IngestReport, apply) -> None:
    """Check each record's field count, then decode and upsert it in one go.

    ``apply`` returns the record's disposition, or None when the caller
    tallies it later.  A record that fails is rejected with its rule.
    """
    width = _FIELD_COUNTS[kind]
    for rec in records:
        if len(rec.fields) != width:
            report._reject(kind, rec.line, f"expected {width} fields, got {len(rec.fields)}")
            continue
        try:
            disposition = apply(rec)
        except UnknownConceptError as exc:
            report._reject(kind, rec.line, "unknown endpoint", str(exc))
        except UnknownRelationTypeError as exc:
            report._reject(kind, rec.line, "unknown relation type", str(exc))
        except ValidationError as exc:
            # A concept is rejected for its first invariant problem only.
            report._reject(kind, rec.line, exc.problems[0] if kind == "concepts" else str(exc))
        except KonseptaError as exc:
            report._reject(kind, rec.line, str(exc))
        else:
            if disposition is not None:
                report._tally(kind, disposition)


def _upsert_relation(state, source: str, target: str, type_name: str) -> str:
    # A stored key is well formed, so only endpoints that do not resolve are
    # parsed; a malformed one is reported before an unknown type.
    for endpoint in (source, target):
        if endpoint not in state.concepts:
            parse_concept_key(endpoint)
    return state.upsert_relation(source, target, type_name)


def _load_relation_types(records, state, report) -> None:
    trial = state.registry.clone()
    accepted: list[tuple[RawRecord, RelationType]] = []

    def stage(rec: RawRecord) -> None:
        rt = decode_relation_type(rec.fields)
        if state.relation_count_for(rt.name) and state.registry.get(rt.name) != rt:
            raise KonseptaError(f"type in use by stored edges: {rt.name}")
        trial.upsert(rt)
        accepted.append((rec, rt))

    _load(records, "relation_types", report, stage)
    # Involution must hold over the final registry; drop offenders until the
    # remainder is consistent (removing one type can orphan its partner).
    dropped: dict[str, str] = {}
    while True:
        problems = trial.pairing_problems()
        fresh = {n: p for n, p in problems.items() if n not in dropped}
        if not fresh:
            break
        for name, why in fresh.items():
            trial.remove(name)
            dropped[name] = why
    for rec, rt in accepted:
        if rt.name in dropped:
            report._reject("relation_types", rec.line, dropped[rt.name])
        else:
            report._tally("relation_types", state.registry.upsert(rt))


# --- export ----------------------------------------------------------------

def export_dataset(state) -> dict[str, str]:
    """Serialize a store snapshot; deterministic, sorted by canonical key."""
    texts = {}

    lines = [f"{SCHEMA_VERSION}\trelation_types"]
    for rt in state.registry.types():
        lines.append(f"{rt.name}\t{1 if rt.symmetric else 0}\t{_enc(rt.inverse or '')}")
    texts["relation_types"] = "\n".join(lines) + "\n"

    lines = [f"{SCHEMA_VERSION}\ttaxonomy"]
    for path in state.taxonomy.paths():
        lines.append("/".join(path))
    texts["taxonomy"] = "\n".join(lines) + "\n"

    lines = [f"{SCHEMA_VERSION}\tconcepts"]
    for key in sorted(state.concepts):
        c = state.concepts[key]
        pos = c.pos.value if c.pos else ""
        if c.pos is PartOfSpeech.OTHER and c.pos_label:
            pos = f"other:{c.pos_label}"
        translations = "|".join(f"{code}:{text}" for code, text in c.translations)
        lines.append(
            "\t".join(
                (
                    key,
                    c.kind.value,
                    _enc(pos),
                    _enc("" if c.gender is Gender.UNSPECIFIED else c.gender.value),
                    _enc(c.glyph),
                    _enc(translations),
                )
            )
        )
    texts["concepts"] = "\n".join(lines) + "\n"

    lines = [f"{SCHEMA_VERSION}\tforms"]
    for identity in sorted(state.forms):
        f = state.forms[identity]
        lines.append(
            "\t".join(
                (
                    f.surface,
                    f.lemma,
                    _enc(f.pos.value if f.pos else ""),
                    _enc("" if f.gender is Gender.UNSPECIFIED else f.gender.value),
                    _enc(f.tags),
                )
            )
        )
    texts["forms"] = "\n".join(lines) + "\n"

    lines = [f"{SCHEMA_VERSION}\trelations"]
    for edge in state.edges():
        lines.append("\t".join((edge.source, edge.target, edge.type)))
    texts["relations"] = "\n".join(lines) + "\n"

    return texts


def write_bundle(directory: str | Path, texts: dict[str, str]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, text in texts.items():
        (directory / FILE_NAMES[kind]).write_text(text, encoding="utf-8")


# --- packaged data ---------------------------------------------------------

def fixture_dir() -> Path:
    """Directory of the sample dataset shipped with the package."""
    return Path(str(importlib.resources.files("konsepta") / "data" / "fixture"))
