"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance and
time budget is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
import urllib.parse
from contextlib import contextmanager
from pathlib import Path

from click.testing import CliRunner

from konsepta import (
    Concept,
    ConceptKey,
    ConceptKind,
    DatasetBundle,
    Gender,
    NoPathError,
    PartOfSpeech,
    Store,
    export_dataset,
    extract,
    load_dataset,
    solve_analogy,
)
from konsepta.api import dispatch, serialize_body
from konsepta.cli import main as cli_main
from konsepta.extract import MatchLevel
from konsepta.semantics import semantic_network

import oracles

FRUIT = "jedlo/ovocie/hruška"
TREE = "rastlina/strom/hruška"
MWE = "veda/škola/vysoká škola"
MUZ, ZENA = "človek/muž", "človek/žena"
KRAL, KRALOVNA = "človek/panovník/kráľ", "človek/panovník/kráľovná"

REPO_ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number:02d} {label}: PASS", flush=True)


def _states_deep_equal(a, b) -> bool:
    return (
        a.concepts == b.concepts
        and a.forms == b.forms
        and a.edges() == b.edges()
        and a.taxonomy.paths() == b.taxonomy.paths()
        and a.registry.types() == b.registry.types()
    )


def test_c01_fixture_round_trip(fixture_texts):
    with criterion(1, "fixture round-trip"):
        started = time.perf_counter()
        first = Store()
        report = load_dataset(DatasetBundle.from_texts(fixture_texts), first)
        assert report.rejected == 0, report.rejections
        exported = export_dataset(first.snapshot())
        second = Store()
        report2 = load_dataset(DatasetBundle.from_texts(exported), second)
        assert report2.rejected == 0
        assert _states_deep_equal(first.snapshot(), second.snapshot())
        assert export_dataset(second.snapshot()) == exported
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"


def test_c02_ambiguity_semantics():
    with criterion(2, "ambiguity semantics"):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["search", "--lemma", "hruška"], catch_exceptions=False)
        assert result.exit_code == 0
        rows = [line.split("\t")[0] for line in result.output.strip().splitlines()]
        assert len(rows) == 2
        paths = {tuple(key.split("/")[:-1]) for key in rows}
        assert len(paths) == 2, "senses must sit under distinct taxonomy paths"

        masculine = runner.invoke(cli_main, ["search", "--lemma", "zver", "--gender", "m"], catch_exceptions=False)
        feminine = runner.invoke(cli_main, ["search", "--lemma", "zver", "--gender", "f"], catch_exceptions=False)
        m_rows = set(masculine.output.strip().splitlines())
        f_rows = set(feminine.output.strip().splitlines())
        assert m_rows and f_rows
        assert m_rows.isdisjoint(f_rows)


def _build_vocabulary(raw) -> list[str]:
    vocab = [c.lemma for c in raw.concepts]
    vocab += [surface for surface, *_rest in raw.forms]
    # Inflected multiword variants (mixed surface/lemma positions).
    vocab += ["vysokej škole", "vysokú školu", "základnej škole", "Slovenskej republike", "New Yorku"]
    vocab += ["+", "*", "🍐", "a", "je", "na", "v", "do", "xyzzy", "qwert", "42", "7"]
    return sorted(set(vocab))


def test_c03_extraction_oracle_equivalence(snap, raw):
    with criterion(3, "extraction oracle equivalence (1000 random strings)"):
        started = time.perf_counter()
        tables = oracles.ExtractTables.build(raw)
        vocab = _build_vocabulary(raw)
        separators = [" ", " ", " ", "  ", ", ", ". ", " - ", "\n"]
        rng = random.Random(0xC0FFEE)
        checked = 0
        for _ in range(1000):
            items = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
            text = ""
            for index, item in enumerate(items):
                if index:
                    text += rng.choice(separators)
                text += item
            if rng.random() < 0.2:
                text = text.upper() if rng.random() < 0.5 else text.capitalize()
            got = [
                (a.start, a.end, frozenset(c.key for c in a.candidates))
                for a in extract(text, snap)
            ]
            expected = oracles.extract_oracle(text, tables)
            assert got == expected, repr(text)
            checked += 1
        elapsed = time.perf_counter() - started
        assert checked >= 1000
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_c04_mwe_behavior(snap):
    with criterion(4, "multiword expression behavior"):
        annotations = extract("vysoká škola", snap)
        assert len(annotations) == 1, "must be one annotation, not two single words"
        assert annotations[0].chosen == MWE
        assert (annotations[0].start, annotations[0].end) == (0, 12)

        inflected = extract("na vysokej škole", snap)
        assert [a.chosen for a in inflected] == [MWE]
        assert inflected[0].surface == "vysokej škole"
        assert inflected[0].match_level is MatchLevel.LEMMA


def test_c05_glyph_entries(snap):
    with criterion(5, "glyph entries"):
        plus = extract("2 + 2", snap)
        assert len(plus) == 1
        assert plus[0].chosen == "symbol/plus"
        assert plus[0].match_level is MatchLevel.GLYPH

        pear = extract("🍐", snap)
        assert len(pear) == 1
        assert pear[0].match_level is MatchLevel.GLYPH
        assert [c.key for c in pear[0].candidates] == [FRUIT]
        assert snap.get(FRUIT).key.lemma == "hruška"


def test_c06_analogy_oracle_all_triples(snap, raw):
    with criterion(6, "analogy ranked first + all-triples oracle"):
        started = time.perf_counter()
        results = solve_analogy(snap, MUZ, KRAL, ZENA)
        assert results[0][0] == KRALOVNA

        seqmaps = oracles.sequence_maps(raw, 2)
        keys = sorted(snap.concepts)
        for a1, b1, a2 in itertools.product(keys, keys, keys):
            expected = oracles.analogy_rank(seqmaps, a1, b1, a2, 10)
            if expected is None:
                try:
                    solve_analogy(snap, a1, b1, a2, 2, 10)
                except NoPathError:
                    continue
                raise AssertionError(f"expected NoPathError for {(a1, b1, a2)}")
            got = [key for key, _ in solve_analogy(snap, a1, b1, a2, 2, 10)]
            assert got == expected, (a1, b1, a2)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"all-triples sweep took {elapsed:.1f}s"


def test_c07_relation_semantics(snap, raw, fresh_store):
    with criterion(7, "relation semantics"):
        registry = snap.registry
        assert registry.pairing_problems() == {}
        for name in registry.names():
            rt = registry.get(name)
            if rt.symmetric:
                assert registry.reading_back(name) == name
            elif rt.inverse is not None:
                assert registry.reading_back(registry.reading_back(name)) == name
            else:
                assert registry.reading_back(name) is None

        # Symmetric canonicalization: both orientations store one edge.
        edges_before = len(fresh_store.snapshot().edges())
        for source, target, type_name in (
            ("zviera/pes", "zviera/šelma/vlk", "related"),
            ("zviera/šelma/vlk", "zviera/pes", "related"),
            ("spôsob/dobre", "spôsob/blažene", "synonym"),
        ):
            with fresh_store.write() as state:
                assert state.upsert_relation(source, target, type_name) == "unchanged"
        assert len(fresh_store.snapshot().edges()) == edges_before

        # Exhaustive as-read replay of every fixture edge, both directions.
        expected = oracles.as_read_adjacency(raw)
        for key in snap.concepts:
            assert set(snap.neighbors(key)) == expected[key], key


def test_c08_stats_audit(fresh_store, report):
    with criterion(8, "stats audit"):
        stats = fresh_store.snapshot().stats()
        assert stats.concepts == report.counts["concepts"].inserted
        assert stats.categories == report.counts["taxonomy"].inserted
        assert stats.relations == report.counts["relations"].inserted

        rng = random.Random(0x5EED)
        spare = []
        ops = 0
        while ops < 100:
            state = fresh_store.snapshot()
            choice = rng.random()
            if choice < 0.4:
                key = ConceptKey(("meno",), f"Syntetik{ops}")
                with fresh_store.write() as work:
                    work.upsert_concept(Concept(key, ConceptKind.WORD, PartOfSpeech.NOUN, gender=Gender.MASCULINE))
                spare.append(key.canonical)
            elif choice < 0.6 and spare:
                with fresh_store.write() as work:
                    work.remove_concept(spare.pop(rng.randrange(len(spare))))
            elif choice < 0.85:
                a, b = rng.sample(sorted(state.concepts), 2)
                type_name = rng.choice(state.registry.names())
                with fresh_store.write() as work:
                    work.upsert_relation(a, b, type_name)
            elif state.edges():
                edge = rng.choice(state.edges())
                with fresh_store.write() as work:
                    work.remove_relation(edge.source, edge.target, edge.type)
            else:
                continue
            ops += 1
            got = fresh_store.snapshot().stats().to_payload()
            scan = oracles.stats_by_scan(fresh_store.snapshot())
            scan = {
                key: (dict(sorted(value.items())) if isinstance(value, dict) else value)
                for key, value in scan.items()
            }
            assert got == scan, f"counters diverged after op {ops}"


def _q(key: str) -> str:
    return urllib.parse.quote(key, safe="")


def test_c09_interface_consistency(store, snap):
    with criterion(9, "interface consistency (API = CLI = library)"):
        runner = CliRunner()
        cases = [
            (["get", TREE, "--json"], "GET", f"/v1/concepts/{_q(TREE)}", None),
            (["relations", "meno/Miro", "--direction", "both", "--json"],
             "GET", f"/v1/concepts/{_q('meno/Miro')}/relations?direction=both", None),
            (["search", "--lemma", "hruška", "--json"], "GET", "/v1/search?lemma=" + _q("hruška"), None),
            (["search", "--form", "hrušky", "--json"], "GET", "/v1/search?form=" + _q("hrušky"), None),
            (["search", "--lemma", "zver", "--gender", "m", "--json"],
             "GET", "/v1/search?lemma=zver&gender=m", None),
            (["graph", "--seed", "miesto/mesto/Bratislava", "--depth", "2", "--json"],
             "GET", "/v1/graph?seed=" + _q("miesto/mesto/Bratislava") + "&depth=2", None),
            (["analogy", MUZ, KRAL, ZENA, "--json"],
             "GET", f"/v1/analogy?a1={_q(MUZ)}&b1={_q(KRAL)}&a2={_q(ZENA)}&k=10&max_len=2", None),
            (["stats", "--json"], "GET", "/v1/stats", None),
            (["extract", "--json"], "POST", "/v1/extract",
             json.dumps({"text": "jablko a hruška"}, ensure_ascii=False).encode()),
        ]
        import threading
        import urllib.request

        from konsepta.api import make_server

        server = make_server(store, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            for args, method, target, body in cases:
                api_status, api_payload = dispatch(store, method, target, body)
                assert api_status == 200, target
                kwargs = {"input": "jablko a hruška"} if args[0] == "extract" else {}
                cli = runner.invoke(cli_main, args, catch_exceptions=False, **kwargs)
                assert cli.output.encode("utf-8") == serialize_body(api_payload), args
                request = urllib.request.Request(
                    f"http://{host}:{port}{target}", data=body, method=method
                )
                with urllib.request.urlopen(request) as response:
                    assert response.read() == serialize_body(api_payload), target
        finally:
            server.shutdown()
            server.server_close()

        # Library-side checks, field by field.
        _status, payload = dispatch(store, "GET", "/v1/search?lemma=" + _q("hruška"))
        assert [r["key"] for r in payload["results"]] == [
            c.key.canonical for c in snap.find_by_lemma("hruška")
        ]
        _status, payload = dispatch(
            store, "GET", f"/v1/concepts/{_q('meno/Miro')}/relations?direction=both"
        )
        assert [(r["type"], r["key"]) for r in payload["results"]] == snap.neighbors("meno/Miro")
        _status, payload = dispatch(
            store, "GET", f"/v1/analogy?a1={_q(MUZ)}&b1={_q(KRAL)}&a2={_q(ZENA)}"
        )
        assert [r["key"] for r in payload["results"]] == [
            key for key, _ in solve_analogy(snap, MUZ, KRAL, ZENA)
        ]
        _status, payload = dispatch(store, "GET", "/v1/stats")
        assert payload["stats"] == snap.stats().to_payload()
        _status, payload = dispatch(
            store, "GET", "/v1/graph?seed=" + _q("miesto/mesto/Bratislava") + "&depth=2"
        )
        network = semantic_network(snap, ["miesto/mesto/Bratislava"], 2)
        assert payload["graph"] == network.to_payload()
        body = json.dumps({"text": "jablko a hruška"}, ensure_ascii=False).encode()
        _status, payload = dispatch(store, "POST", "/v1/extract", body)
        assert payload["annotations"] == [
            a.to_payload() for a in extract("jablko a hruška", snap)
        ]


def test_c10_scale_smoke(tmp_path):
    with criterion(10, "scale smoke (100k concepts, 200k edges)"):
        sys.path.insert(0, str(REPO_ROOT / "perfbench"))
        import scale_bundle

        bundle_dir = tmp_path / "scale"
        data = scale_bundle.generate(801, 100_000, 200_000)
        data.write(bundle_dir)

        store = Store()
        started = time.perf_counter()
        bundle = DatasetBundle.read_dir(bundle_dir)
        report = load_dataset(bundle, store)
        load_seconds = time.perf_counter() - started
        assert report.rejected == 0
        assert report.counts["concepts"].inserted == len(data.keys)
        assert report.counts["forms"].inserted == len(data.forms)
        assert report.counts["relations"].inserted == data.edge_count == 200_000
        assert load_seconds < 30.0, f"load took {load_seconds:.1f}s"

        snap = store.snapshot()
        keys = sorted(snap.concepts)
        rng = random.Random(11)
        probes = [rng.choice(keys) for _ in range(2000)]
        timings = []
        for key in probes:
            t0 = time.perf_counter()
            concept = snap.get(key)
            timings.append(time.perf_counter() - t0)
            assert concept is not None
        timings.sort()
        median = timings[len(timings) // 2]
        assert median < 0.001, f"median lookup {median * 1e6:.1f}us"
        print(
            f"[acceptance]   scale detail: load {load_seconds:.1f}s, "
            f"median lookup {median * 1e6:.1f}us",
            flush=True,
        )
