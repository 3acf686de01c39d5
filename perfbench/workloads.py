"""The benchmark's workloads: request streams and the checks on every reply.

Each workload runs one keep-alive connection in a closed loop.  The request
kinds a workload is about are dealt in equal shares; every other class
appears once per deck, only so that every end-to-end metric exists on
every workload.

* ``fixture-mix``: the shipped 60-concept fixture, every read endpoint and
  extraction of short texts.  Per-request fixed costs (transport, routing,
  JSON) dominate.
* ``extract-long``: the fixture, extraction of ~3.5k-character documents,
  where tokenizing and disambiguation dominate.  Their ~50 KiB replies fit
  one loopback segment, so each waits for the same delayed ACK; longer
  replies wait or not depending on how they split into segments.
* ``scale-read``: the seeded synthetic bundle, lookups, graph queries and
  analogies, whose cost grows with data size (form scan, full edge sort).
* ``scale-write``: the same bundle, one-record inserts back to back, each
  read back by key, lemma, extraction and graph; writes dominate.

Fixture requests come from a fixed pool, and the seed picks the sequence.
Their replies must hash to ``fixture_expected.json``, which records
``serialize_body(dispatch(...))`` of an in-process store for every request
in the pool; ``python3 perfbench/workloads.py`` rewrites it.  Scale replies
are checked against the generator's own tables.  Ingests on the read
workloads re-send a record the store already holds, so they run a full
write transaction and leave the data unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import urllib.parse
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import scale_bundle
from server import TOKEN, Request

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "fixture_expected.json"
SCALE_CONCEPTS = 10_000
FIXTURE_FILLER = ("a", "v", "na", "je", "to", "sme", "dnes", "tam", "aj", "ale", "pri", "bol",
                  "veľmi", "potom", "preto", "ktorý", "domov", "rýchlo", "spolu", "mesto")
READS = ("concept", "relations", "lemma", "form", "stats", "graph1", "graph2", "analogy")
KIND_CLASS = {**{kind: "lookup" for kind in READS[:5]}, **{kind: "graph" for kind in READS[5:]},
              "text": "extract", "reingest": "ingest"}

# Kind -> cards per deck.
DECKS = {
    "fixture-mix": {**{kind: 3 for kind in READS}, "text": 3, "reingest": 1},
    "scale-read": {**{kind: 8 for kind in READS}, "text": 4, "reingest": 1},
    "extract-long": {"text": 8, "concept": 1, "graph1": 1, "analogy": 1, "reingest": 1},
}
TEXT_CHARS = {"fixture-mix": (80, 1000), "extract-long": (3_500, 3_500),
              "scale-read": (200, 1000), "scale-write": (200, 1000)}
PROBE_CHARS = (1_000, 10_000, 40_000)
FIXTURE_WORKLOADS = ("fixture-mix", "extract-long")
FIXTURE_TEXTS = 32   # distinct texts in each fixture workload's pool

# Candidate base scores under konsepta's default disambiguation weights:
# the match level's weight, plus POS and gender agreement for a reading
# through a noun form.  Context adds CONTEXT_WEIGHT times the share of the
# other annotations with a candidate under the same top-level branch.
BASE = {"surface": 0.4, "glyph": 0.4, "lemma": 0.2, "form": 0.2 + 0.2 + 0.1}
CONTEXT_WEIGHT = 0.3


@dataclass
class Plan:
    """Everything a run needs: data, start-up check, request stream, probes."""

    data_dir: Path
    ready: Callable[[bytes], bool]
    stream: Callable[[], Iterator[Request]]
    probes: list[Request]
    key_records: int   # concept + relation records the server loads at start-up


def quote(key: str) -> str:
    return urllib.parse.quote(key, safe="")


def _deal(rng: random.Random, deck: dict[str, int], pick: Callable[[str], Request]) -> Iterator[Request]:
    """Request kinds from shuffled decks, one of each first so every window has every kind.

    Dealing from decks rather than drawing independently keeps the class
    mix, and with it each class's percentiles, nearly the same from seed to
    seed.
    """
    cards = [kind for kind, n in deck.items() for _ in range(n)]
    yield from map(pick, deck)
    while True:
        rng.shuffle(cards)
        yield from map(pick, cards)


def _text_body(text: str) -> bytes:
    return json.dumps({"text": text}, ensure_ascii=False).encode()


def _ingest_body(kind: str, line: str) -> bytes:
    return json.dumps({kind: f"konsepta/v1\t{kind}\n{line}\n"}, ensure_ascii=False).encode()


def _report(body: bytes) -> dict:
    return json.loads(body)["report"]


# -- fixture workloads ----------------------------------------------------------

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def request_id(method: str, target: str, body: bytes | None) -> str:
    return digest(b"\0".join((method.encode(), target.encode(), body or b"")))


class Fixture:
    """The shipped fixture and the fixed request pool of a fixture workload.

    The pool depends on the fixture's data only: everything drawn from the
    store is sorted first, and the draws use a generator seeded by the
    workload's name.
    """

    def __init__(self) -> None:
        from konsepta import DatasetBundle, Store, fixture_dir, load_dataset

        self.dir = fixture_dir()
        self.store = Store()
        load_dataset(DatasetBundle.read_dir(self.dir), self.store)
        state = self.store.snapshot()
        self.keys = sorted(state.concepts)
        self.lemmas = {k: state.concepts[k].key.lemma for k in self.keys}
        self.neighbors = {k: sorted(state.as_read_neighbors(k)) for k in self.keys}
        self.surfaces = sorted({f.surface for f in state.forms.values()})
        concepts = [state.concepts[k] for k in self.keys]
        words = {c.key.lemma for c in concepts if not c.glyph} | {c.glyph for c in concepts if c.glyph}
        words |= set(self.surfaces)
        self.vocabulary = sorted(words) + ["vysokej škole"]
        self.lines = {kind: (self.dir / f"{kind}.tsv").read_text(encoding="utf-8").splitlines()[1:]
                      for kind in ("concepts", "relations")}

    def text(self, rng: random.Random, chars: int) -> str:
        """Sentences of filler, numbers and fixture words (lemmas, forms, glyphs, multiwords)."""
        sentences = []
        length = 0
        while length < chars:
            words = []
            for _ in range(rng.randint(5, 12)):
                roll = rng.random()
                if roll < 0.45:
                    words.append(rng.choice(FIXTURE_FILLER))
                elif roll < 0.52:
                    words.append(str(rng.randint(1, 2026)))
                else:
                    words.append(rng.choice(self.vocabulary))
                if rng.random() < 0.08:
                    words[-1] += ","
            sentence = " ".join(words)
            sentences.append(sentence[0].upper() + sentence[1:] + rng.choice(".!?"))
            length += len(sentences[-1]) + 1
        return " ".join(sentences)

    def pool(self, name: str) -> tuple[dict[str, list[tuple[str, str, bytes | None]]], list[tuple[str, bytes]]]:
        """Candidate requests by kind, and the (kind, body) of each extraction probe."""
        rng = random.Random(f"{name}:pool")
        keys = self.keys
        linked = [k for k in keys if self.neighbors[k]]
        directions = ("", "?direction=outgoing", "?direction=incoming")
        candidates: dict[str, list[tuple[str, str, bytes | None]]] = {
            "concept": [("GET", f"/v1/concepts/{quote(k)}", None) for k in keys],
            "relations": [("GET", f"/v1/concepts/{quote(k)}/relations{rng.choice(directions)}", None)
                          for k in keys],
            "lemma": [("GET", "/v1/search?" + urllib.parse.urlencode({"lemma": self.lemmas[k]}), None)
                      for k in keys],
            "form": [("GET", "/v1/search?" + urllib.parse.urlencode({"form": s}), None) for s in self.surfaces],
            "stats": [("GET", "/v1/stats", None)],
            "graph1": [("GET", f"/v1/graph?seed={quote(k)}&depth=1", None) for k in linked],
            "graph2": [("GET", f"/v1/graph?seed={quote(k)}&depth=2", None) for k in linked],
            "analogy": [],
            "text": [],
            "reingest": [("POST", "/v1/admin/ingest", _ingest_body(kind, line))
                         for kind, lines in self.lines.items() for line in lines if line],
        }
        for a1 in linked:
            b1 = rng.choice(self.neighbors[a1])[1]
            a2 = rng.choice(linked)
            query = urllib.parse.urlencode({"a1": a1, "b1": b1, "a2": a2, "k": 5})
            candidates["analogy"].append(("GET", f"/v1/analogy?{query}", None))
        lo, hi = TEXT_CHARS[name]
        for _ in range(FIXTURE_TEXTS):
            candidates["text"].append(("POST", "/v1/extract", _text_body(self.text(rng, rng.randint(lo, hi)))))
        probes = [(f"c{chars // 1000}k", _text_body(self.text(rng, chars))) for chars in PROBE_CHARS]
        return candidates, probes

    def reply(self, method: str, target: str, body: bytes | None) -> bytes | None:
        """The in-process dispatcher's reply body, or None when it is not a 200."""
        from konsepta.api import ApiConfig, dispatch, serialize_body

        status, payload = dispatch(self.store, method, target, body, ApiConfig(admin_token=TOKEN),
                                   {"Authorization": f"Bearer {TOKEN}"})
        return serialize_body(payload) if status == 200 else None


def fixture_requests(fixture: Fixture) -> Iterator[tuple[str, str, bytes | None]]:
    """Every request the fixture workloads can send, start-up check included."""
    yield "GET", "/v1/stats", None
    for name in FIXTURE_WORKLOADS:
        candidates, probes = fixture.pool(name)
        for reqs in candidates.values():
            yield from reqs
        for _kind, body in probes:
            yield "POST", "/v1/extract", body


def record_expected(path: Path = EXPECTED_FILE) -> None:
    """Write the digest of the in-process reply (None for a non-200) of every fixture request."""
    fixture = Fixture()
    expected = {}
    for method, target, body in fixture_requests(fixture):
        reply = fixture.reply(method, target, body)
        expected[request_id(method, target, body)] = None if reply is None else digest(reply)
    path.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def fixture_plan(name: str, seed: int) -> Plan:
    fixture = Fixture()
    expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))

    def request(cls: str, kind: str, method: str, target: str, body: bytes | None) -> Request | None:
        rid = request_id(method, target, body)
        if rid not in expected:
            raise RuntimeError(f"no recorded reply for {method} {target}; run python3 perfbench/workloads.py")
        want = expected[rid]
        if want is None:   # the dispatcher does not answer it with a 200
            return None
        return Request(cls, kind, method, target, body, lambda reply: digest(reply) == want)

    candidates, probe_bodies = fixture.pool(name)
    pool: dict[str, list[Request]] = {}
    for kind, reqs in candidates.items():
        for method, target, body in reqs:
            req = request(KIND_CLASS[kind], kind, method, target, body)
            if req is not None:
                pool.setdefault(kind, []).append(req)
    probes = [request("probe", kind, "POST", "/v1/extract", body) for kind, body in probe_bodies]

    def stream() -> Iterator[Request]:
        rng = random.Random(f"{name}:{seed}:stream")
        return _deal(rng, DECKS[name], lambda kind: rng.choice(pool[kind]))

    ready = request("lookup", "stats", "GET", "/v1/stats", None).check
    return Plan(fixture.dir, ready, stream, probes,
                len(fixture.lines["concepts"]) + len(fixture.lines["relations"]))


# -- scale workloads ------------------------------------------------------------

Planted = tuple[int, int, str, list[str]]   # start, end, reading (a BASE key), concept keys


def expected_annotations(text: str, planted: list[Planted]) -> list[dict]:
    """Expected annotations of a text whose only matches are the planted ones.

    Candidates are ranked as ``disambiguate`` documents: base score plus
    context, rounded to six places; ties go to the deeper taxonomy path,
    then to key order.
    """
    tops = [{key.split("/")[0] for key in keys} for *_span, keys in planted]
    sharing = Counter(top for segments in tops for top in segments)
    others = len(planted) - 1
    result = []
    for start, end, reading, keys in planted:
        scored = []
        for key in keys:
            top = key.split("/")[0]
            context = CONTEXT_WEIGHT * ((sharing[top] - 1) / others) if others else 0.0
            scored.append((key, round(min(1.0, BASE[reading] + context), 6), key.count("/")))
        scored.sort(key=lambda c: (-c[1], -c[2], c[0]))
        result.append({"start": start, "end": end, "surface": text[start:end],
                       "candidates": [{"key": k, "score": score} for k, score, _depth in scored],
                       "chosen": scored[0][0], "match_level": "lemma" if reading == "form" else reading})
    return result


def _same_annotation(got: dict, want: dict) -> bool:
    """Equal, with scores compared to their six rounded places."""
    if {k: v for k, v in got.items() if k != "candidates"} != {k: v for k, v in want.items() if k != "candidates"}:
        return False
    return ([c["key"] for c in got["candidates"]] == [c["key"] for c in want["candidates"]]
            and all(abs(g["score"] - w["score"]) <= 1e-6 for g, w in zip(got["candidates"], want["candidates"])))


class ScaleChecks:
    """Requests over the synthetic bundle, each checked against generator tables."""

    def __init__(self, data: scale_bundle.ScaleData) -> None:
        self.data = data
        self.noun_forms = [f for f in data.forms if f.gender]
        self.forms_by_surface: dict[str, list[scale_bundle.Form]] = {}
        for form in data.forms:
            self.forms_by_surface.setdefault(form.surface, []).append(form)
        self.linked = [k for k in data.main if data.adjacency.get(k)]
        self.glyph_items = sorted(data.glyph.items())
        self.mwe_items = sorted(data.mwe.items())

    # lookups
    def concept(self, rng: random.Random) -> Request:
        d = self.data
        key = rng.choice(d.main)
        surfaces = sorted(f.surface for f in d.forms_of.get(key, ()))
        relations = [{"type": t, "count": n}
                     for t, n in sorted(Counter(t for t, _ in d.adjacency.get(key, ())).items())]

        def check(body: bytes) -> bool:
            c = json.loads(body)["concept"]
            return (c["key"] == key and sorted(f["surface"] for f in c["forms"]) == surfaces
                    and c["relations"] == relations)

        return Request("lookup", "concept", "GET", f"/v1/concepts/{quote(key)}", None, check)

    def relations(self, rng: random.Random) -> Request:
        key = rng.choice(self.data.main)
        expected = [{"type": t, "key": o} for t, o in sorted(self.data.adjacency.get(key, ()))]
        return Request("lookup", "relations", "GET", f"/v1/concepts/{quote(key)}/relations", None,
                       lambda body: json.loads(body)["results"] == expected)

    def lemma(self, rng: random.Random) -> Request:
        lemma = self.data.lemma[rng.choice(self.data.main)]
        return self._search("lemma", lemma, sorted(self.data.by_lemma[lemma]))

    def form(self, rng: random.Random) -> Request:
        surface = rng.choice(self.noun_forms).surface
        return self._search("form", surface, self.form_senses(surface))

    def form_senses(self, surface: str) -> list[str]:
        """Concepts a noun form reads as: its lemma's senses of the form's gender."""
        d = self.data
        return sorted({k for f in self.forms_by_surface[surface] for k in d.by_lemma[f.lemma]
                       if d.gender[k] == f.gender})

    def _search(self, field: str, value: str, expected: list[str]) -> Request:
        def check(body: bytes) -> bool:
            payload = json.loads(body)
            return payload["total"] == len(expected) and sorted(r["key"] for r in payload["results"]) == expected

        target = "/v1/search?" + urllib.parse.urlencode({field: value})
        return Request("lookup", field, "GET", target, None, check)

    def stats(self, rng: random.Random | None = None) -> Request:
        expected = (len(self.data.keys), self.data.edge_count)
        return Request("lookup", "stats", "GET", "/v1/stats", None,
                       lambda body: (json.loads(body)["stats"]["concepts"],
                                     json.loads(body)["stats"]["relations"]) == expected)

    # graph queries
    def graph(self, rng: random.Random, depth: int) -> Request:
        d = self.data
        seed = rng.choice(d.main)
        layer = d.layers(seed, depth)
        nodes = [{"key": k, "depth": n} for k, n in sorted(layer.items(), key=lambda kv: (kv[1], kv[0]))]
        edges = sorted({e for k in layer for e in d.incident.get(k, ()) if e[0] in layer and e[1] in layer})
        expected = {"nodes": nodes, "edges": [{"source": s, "target": t, "type": ty} for s, t, ty in edges]}
        return Request("graph", f"graph{depth}", "GET", f"/v1/graph?seed={quote(seed)}&depth={depth}", None,
                       lambda body: json.loads(body)["graph"] == expected)

    def analogy(self, rng: random.Random) -> Request:
        """The top five b2 for a1:b1 :: a2:b2, ranked and explained as the analogy endpoint documents."""
        d = self.data
        a1 = rng.choice(self.linked)
        b1 = rng.choice(d.adjacency[a1])[1]
        a2 = rng.choice(self.linked)
        # Label sequences of simple a1 -> b1 paths of at most two hops, replayed from a2.
        sequences = {(t,) for t, o in d.adjacency[a1] if o == b1}
        sequences |= {(t1, t2) for t1, mid in d.adjacency[a1] if mid != b1
                      for t2, o in d.adjacency.get(mid, ()) if o == b1}
        paths: dict[str, list[tuple[tuple[str, str], ...]]] = {}
        support: dict[str, set[tuple[str, ...]]] = {}
        for sequence in sequences:
            walks = [(a2, ())]
            for label in sequence:
                walks = [(o, hops + ((t, o),)) for node, hops in walks for t, o in d.adjacency.get(node, ())
                         if t == label and o != a2 and all(o != k for _t, k in hops)]
            for node, hops in walks:
                if node not in (a1, b1, a2):
                    paths.setdefault(node, []).append(hops)
                    support.setdefault(node, set()).add(sequence)
        ranked = sorted(paths, key=lambda e: (min(map(len, paths[e])), -len(support[e]), e))[:5]
        expected = []
        for endpoint in ranked:
            hops = min(paths[endpoint], key=lambda p: (len(p), [t for t, _ in p], [k for _, k in p]))
            expected.append({"key": endpoint, "explanation": [{"type": t, "key": k} for t, k in hops]})
        query = urllib.parse.urlencode({"a1": a1, "b1": b1, "a2": a2, "k": 5})
        return Request("graph", "analogy", "GET", f"/v1/analogy?{query}", None,
                       lambda body: json.loads(body)["results"] == expected)

    # extraction
    def planted_text(self, rng: random.Random, chars: int) -> tuple[str, list[Planted]]:
        """Text of filler words with planted entries; returns it with their spans and senses."""
        d = self.data
        parts: list[str] = []
        planted: list[Planted] = []
        pos = 0

        def put(piece: str, reading: str = "", keys: list[str] | None = None) -> None:
            nonlocal pos
            if parts:
                parts.append(" ")
                pos += 1
            if keys:
                planted.append((pos, pos + len(piece), reading, keys))
            parts.append(piece)
            pos += len(piece)

        while pos < chars:
            for i in range(rng.randint(5, 12)):
                roll = rng.random()
                if roll < 0.45:
                    filler = self._filler(rng)
                    put(filler.capitalize() if i == 0 else filler)
                elif roll < 0.52:
                    put(str(rng.randint(1, 2026)))
                elif roll < 0.72:
                    lemma = d.lemma[rng.choice(d.main)]
                    put(lemma, "surface", d.by_lemma[lemma])
                elif roll < 0.88:
                    surface = rng.choice(self.noun_forms).surface
                    put(surface, "form", self.form_senses(surface))
                elif roll < 0.95:
                    key, (first, noun) = rng.choice(self.mwe_items)
                    put(f"{first} {noun}", "lemma", [key])
                else:
                    glyph, key = rng.choice(self.glyph_items)
                    put(glyph, "glyph", [key])
            parts.append(rng.choice(".!?"))
            pos += 1
        return "".join(parts), planted

    def extract(self, rng: random.Random, chars: int, cls: str = "extract", kind: str = "text") -> Request:
        return self._extract(*self.planted_text(rng, chars), cls, kind)

    @staticmethod
    def _extract(text: str, planted: list[Planted], cls: str = "extract", kind: str = "text") -> Request:
        expected = expected_annotations(text, planted)

        def check(body: bytes) -> bool:
            got = json.loads(body)["annotations"]
            return len(got) == len(expected) and all(_same_annotation(g, w) for g, w in zip(got, expected))

        return Request(cls, kind, "POST", "/v1/extract", _text_body(text), check)

    @staticmethod
    def _filler(rng: random.Random) -> str:
        """A six-letter word, a shape no lemma or form has."""
        return scale_bundle.word(rng.randrange(len(scale_bundle.SYLLABLES) ** 3), 3)

    # writes
    def reingest(self, rng: random.Random) -> Request:
        if rng.random() < 0.5:
            body = _ingest_body("concepts", self.data.concept_lines[rng.choice(self.data.main)])
        else:
            body = _ingest_body("relations", rng.choice(self.data.relation_lines))

        def check(body: bytes) -> bool:
            report = _report(body)
            return report["unchanged"] == 1 and report["inserted"] == 0 and report["rejected"] == 0

        return Request("ingest", "reingest", "POST", "/v1/admin/ingest", body, check)

    def writer(self, rng: random.Random, chars: tuple[int, int]) -> Iterator[Request]:
        """One-record inserts back to back, each read back by the next requests.

        A cycle inserts a concept in the reserved category, reads it back by
        key, by lemma and by extraction, inserts an edge from it to a
        reserved concept, reads that back by relations and by graph, and
        runs one graph query, one analogy and one extraction over the main
        concepts.  Nothing written is reachable from the main concepts, so
        the other checks keep their expectations.
        """
        offset = rng.randrange(len(scale_bundle.SYLLABLES) ** 5 // 2)
        for n in itertools.count():
            lemma = scale_bundle.word(offset + n, 5)
            key = "/".join(scale_bundle.ZONE_CATEGORY + (lemma,))
            yield self._insert("concepts", "\t".join((key, "word", "noun", rng.choice("mfn"), "-", "-")))
            yield Request("lookup", "concept", "GET", f"/v1/concepts/{quote(key)}", None,
                          lambda body, key=key: self._bare_concept(body, key))
            yield self._search("lemma", lemma, [key])
            before = " ".join(self._filler(rng) for _ in range(rng.randint(2, 8)))
            text = f"{before.capitalize()} {lemma} {self._filler(rng)}."
            yield self._extract(text, [(len(before) + 1, len(before) + 1 + len(lemma), "surface", [key])])
            target = rng.choice(self.data.zone)
            yield self._insert("relations", f"{key}\t{target}\trelated")
            expected = [{"type": "related", "key": target}]
            yield Request("lookup", "relations", "GET", f"/v1/concepts/{quote(key)}/relations", None,
                          lambda body, expected=expected: json.loads(body)["results"] == expected)
            nodes = [{"key": key, "depth": 0}, {"key": target, "depth": 1}]
            source, sink = sorted((key, target))
            graph = {"nodes": nodes, "edges": [{"source": source, "target": sink, "type": "related"}]}
            yield Request("graph", "graph1", "GET", f"/v1/graph?seed={quote(key)}&depth=1", None,
                          lambda body, graph=graph: json.loads(body)["graph"] == graph)
            yield self.graph(rng, 2)
            yield self.analogy(rng)
            yield self.extract(rng, rng.randint(*chars))

    @staticmethod
    def _bare_concept(body: bytes, key: str) -> bool:
        concept = json.loads(body)["concept"]
        return concept["key"] == key and concept["forms"] == [] and concept["relations"] == []

    def _insert(self, kind: str, line: str) -> Request:
        def check(body: bytes) -> bool:
            report = _report(body)
            return report["inserted"] == 1 and report["rejected"] == 0

        return Request("ingest", "insert", "POST", "/v1/admin/ingest", _ingest_body(kind, line), check)

    def pick(self, rng: random.Random, kind: str, chars: tuple[int, int]) -> Request:
        if kind in ("graph1", "graph2"):
            return self.graph(rng, int(kind[-1]))
        if kind == "text":
            return self.extract(rng, rng.randint(*chars))
        return getattr(self, kind)(rng)


def scale_plan(name: str, seed: int, workdir: Path) -> Plan:
    data = scale_bundle.generate(seed, SCALE_CONCEPTS, 2 * SCALE_CONCEPTS)
    data_dir = workdir / "bundle"
    data.write(data_dir)
    checks = ScaleChecks(data)
    chars = TEXT_CHARS[name]

    def stream() -> Iterator[Request]:
        rng = random.Random(f"{name}:{seed}:stream")
        if name == "scale-write":
            return checks.writer(rng, chars)
        return _deal(rng, DECKS[name], lambda kind: checks.pick(rng, kind, chars))

    probe_rng = random.Random(f"{name}:{seed}:probes")
    probes = [checks.extract(probe_rng, n, "probe", f"c{n // 1000}k") for n in PROBE_CHARS]
    ready = checks.stats().check
    return Plan(data_dir, ready, stream, probes, len(data.keys) + data.edge_count)


def make_plan(name: str, seed: int, workdir: Path) -> Plan:
    if name not in TEXT_CHARS:
        raise ValueError(f"unknown workload: {name}")
    if name.startswith("scale"):
        return scale_plan(name, seed, workdir)
    return fixture_plan(name, seed)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    record_expected()
    print(f"wrote {EXPECTED_FILE}")
