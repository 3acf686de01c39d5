"""Spans and counts recorded around konsepta's layer boundaries.

The launcher installs the wrappers in the server process before it serves.
Each wrapper replaces a module attribute or class method that konsepta looks
up at call time, so nothing under ``src/`` changes.  A span carries a name,
start, end, parent span and request id; spans stay in memory, one list per
thread, and are written once when the server stops.  Hot helpers get a
counting wrapper instead of a span.

:class:`Trace` reads the file back in the benchmark process and derives
self time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from time import perf_counter

#: Header carrying the benchmark's request id; the server ignores it.
REQUEST_HEADER = "X-Bench-Request"

# (module, attribute, span name); the decode_* functions share one name.
SPANS = (
    ("konsepta.api", "dispatch", "api.dispatch"),
    ("konsepta.api", "serialize_body", "api.serialize_body"),
    ("konsepta.api", "extract", "extract.extract"),
    ("konsepta.semantics", "semantic_network", "semantics.semantic_network"),
    ("konsepta.semantics", "solve_analogy", "semantics.solve_analogy"),
    ("konsepta.extract", "tokenize", "extract.tokenize"),
    ("konsepta.extract", "disambiguate", "extract.disambiguate"),
    ("konsepta.ingest", "validate_record", "ingest.validate_record"),
    ("konsepta.ingest", "decode_concept", "ingest.decode"),
    ("konsepta.ingest", "decode_form", "ingest.decode"),
    ("konsepta.ingest", "decode_relation_type", "ingest.decode"),
    ("konsepta.cli", "load_dataset", "ingest.load_dataset"),
)
COUNTS = (
    ("konsepta.api", "form_matches_concept", "api.form_matches_concept"),
    ("konsepta.extract", "lemma_candidates", "extract.lemma_candidates"),
    ("konsepta.ingest", "parse_concept_key", "ingest.parse_concept_key"),
)
STORE_SPANS = ("clone", "freeze", "edges", "upsert_concept", "upsert_form", "upsert_relation")
STORE_COUNTS = ("as_read_neighbors",)
#: Span names whose result length is counted too (edges scanned, tokens, annotations).
SIZED = {"store.edges", "extract.tokenize", "extract.disambiguate"}


class _ThreadRecord:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name id, start, end, parent index, request id]
        self.stack: list[int] = []
        self.counts: dict[tuple[int, int], int] = {}
        self.rid = 0


class Tracer:
    """In-memory span recorder; one record per thread, so no locking per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
        return rec

    def _count(self, rec: _ThreadRecord, nid: int, n: int = 1) -> None:
        key = (nid, rec.rid)
        rec.counts[key] = rec.counts.get(key, 0) + n

    def span(self, name: str, fn, request_id_arg: int | None = None):
        nid = self._nid(name)
        size_nid = self._nid(name + ".items") if name in SIZED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._record()
            if request_id_arg is not None:
                headers = args[request_id_arg] if len(args) > request_id_arg else kwargs.get("headers")
                rec.rid = int((headers or {}).get(REQUEST_HEADER, 0))
            entry = [nid, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.rid]
            rec.stack.append(len(rec.spans))
            rec.spans.append(entry)
            entry[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                rec.stack.pop()
            if size_nid is not None:
                self._count(rec, size_nid, len(result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(self._record(), nid)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layer boundaries of konsepta; names it no longer has are skipped."""
        from konsepta.ingest import DatasetBundle
        from konsepta.store import StoreState

        for table, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if name == "api.dispatch":
                    setattr(module, attr, self.span(name, fn, request_id_arg=5))
                else:
                    setattr(module, attr, make(name, fn))
        for attrs, make in ((STORE_SPANS, self.span), (STORE_COUNTS, self.counter)):
            for attr in attrs:
                if hasattr(StoreState, attr):
                    setattr(StoreState, attr, make(f"store.{attr}", getattr(StoreState, attr)))
        read_dir = DatasetBundle.__dict__["read_dir"].__func__
        DatasetBundle.read_dir = classmethod(self.span("ingest.read_dir", read_dir))

    def dump(self, path: str) -> None:
        with self._lock:
            records = list(self._records)
        payload = {
            "names": self.names,
            "threads": [
                {"spans": rec.spans, "counts": [[nid, rid, n] for (nid, rid), n in rec.counts.items()]}
                for rec in records
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class Trace:
    """Spans read back from a dump, with self times and per-request lookups."""

    def __init__(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        names = payload["names"]
        # (name, request id) -> list of (duration s, self time s)
        self.spans: dict[tuple[str, int], list[tuple[float, float]]] = {}
        self.counts: dict[tuple[str, int], int] = {}
        for thread in payload["threads"]:
            spans = thread["spans"]
            child_time = [0.0] * len(spans)
            for nid, start, end, parent, rid in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for idx, (nid, start, end, parent, rid) in enumerate(spans):
                self.spans.setdefault((names[nid], rid), []).append(
                    (end - start, end - start - child_time[idx]))
            for nid, rid, n in thread["counts"]:
                key = (names[nid], rid)
                self.counts[key] = self.counts.get(key, 0) + n

    def total(self, name: str, rid: int, self_time: bool = False) -> float:
        """Summed duration (or self time) of one name's spans for one request."""
        return sum(s[1] if self_time else s[0] for s in self.spans.get((name, rid), ()))

    def durations(self, name: str, rids, self_time: bool = False) -> list[float]:
        """One summed duration per request that has the span."""
        return [self.total(name, rid, self_time) for rid in rids if (name, rid) in self.spans]

    def count(self, name: str, rids) -> int:
        return sum(self.counts.get((name, rid), 0) for rid in rids)
