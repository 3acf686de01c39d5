"""HTTP JSON interface over the store and tools.

All endpoint logic lives in :func:`dispatch`, a pure function from request
to ``(status, payload)``.  The HTTP server is a thin wrapper around it, and
the CLI's ``--json`` mode prints exactly the same bytes, so the three
surfaces cannot drift apart.  Each read request binds one store snapshot
for its whole lifetime; ingest requests serialize on the store write lock.
"""

from __future__ import annotations

import hmac
import json
import logging
import time
import urllib.parse
from collections import Counter
from dataclasses import dataclass, field, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import semantics
from .core import (
    ConceptKind,
    Gender,
    KonseptaError,
    PartOfSpeech,
    UnknownCategoryError,
    UnknownConceptError,
    UnknownEdgeError,
    UnknownRelationTypeError,
    form_matches_concept,
    nfc,
    parse_concept_key,
)
from .extract import DEFAULT_WEIGHTS, DisambiguationWeights, extract
from .ingest import PHASES, BundleFormatError, DatasetBundle, load_dataset
from .store import BOTH, INCOMING, OUTGOING, LookupFilter, Store, StoreState

SCHEMA = "konsepta/v1"

#: Page size of ``/v1/search`` when the request gives no ``limit``.
DEFAULT_LIMIT = 50

logger = logging.getLogger("konsepta.api")


@dataclass(frozen=True)
class ApiConfig:
    admin_token: str = ""
    weights: DisambiguationWeights = field(default_factory=lambda: DEFAULT_WEIGHTS)


DEFAULT_CONFIG = ApiConfig()


def serialize_body(payload: dict) -> bytes:
    """The one JSON serialization shared by the HTTP server and the CLI."""
    return (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")


class _HttpError(Exception):
    def __init__(self, status: int, code: str, message: str, detail=None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail


def _error_payload(code: str, message: str, detail=None) -> dict:
    error: dict = {"code": code, "message": message}
    if detail is not None:
        error["detail"] = detail
    return {"schema": SCHEMA, "error": error}


def dispatch(store: Store, method: str, target: str, body: bytes | None = None,
             config: ApiConfig = DEFAULT_CONFIG,
             headers: dict[str, str] | None = None) -> tuple[int, dict]:
    """Route one request; returns ``(http status, response payload)``."""
    try:
        return _route(store, method, target, body, config, headers or {})
    except _HttpError as exc:
        return exc.status, _error_payload(exc.code, exc.message, exc.detail)
    except (UnknownConceptError, UnknownCategoryError, UnknownRelationTypeError,
            UnknownEdgeError, semantics.NoPathError) as exc:
        return 404, _error_payload("not_found", str(exc))
    except KonseptaError as exc:
        return 400, _error_payload("bad_request", str(exc))
    except Exception:  # noqa: BLE001 - transport boundary
        logger.exception("unhandled error for %s %s", method, target)
        return 500, _error_payload("internal", "internal error")


def _route(store: Store, method: str, target: str, body: bytes | None,
           config: ApiConfig, headers: dict[str, str]) -> tuple[int, dict]:
    split = urllib.parse.urlsplit(target)
    raw_segments = [seg for seg in split.path.split("/") if seg != ""]
    segments = [urllib.parse.unquote(seg) for seg in raw_segments]
    query = _parse_query(split.query)

    if len(segments) < 1 or segments[0] != "v1":
        raise _HttpError(404, "not_found", f"no such endpoint: {split.path}")
    rest = segments[1:]

    if rest and rest[0] == "concepts":
        if len(rest) == 2:
            _need_method(method, "GET")
            return 200, _concept_view(store.snapshot(), rest[1], query)
        if len(rest) == 3 and rest[2] == "relations":
            _need_method(method, "GET")
            return 200, _relations_view(store.snapshot(), rest[1], query)
        raise _HttpError(400, "bad_request",
                         "concept keys in URLs must be a single percent-encoded segment")
    if rest == ["search"]:
        _need_method(method, "GET")
        return 200, _search_view(store.snapshot(), query)
    if rest == ["graph"]:
        _need_method(method, "GET")
        return 200, _graph_view(store.snapshot(), query)
    if rest == ["analogy"]:
        _need_method(method, "GET")
        return 200, _analogy_view(store.snapshot(), query)
    if rest == ["stats"]:
        _need_method(method, "GET")
        _allow_params(query, set())
        return 200, {"schema": SCHEMA, "stats": store.snapshot().stats().to_payload()}
    if rest == ["extract"]:
        _need_method(method, "POST")
        _allow_params(query, set())
        return 200, _extract_view(store.snapshot(), body, config)
    if rest == ["admin", "ingest"]:
        _need_method(method, "POST")
        _allow_params(query, set())
        _check_admin(headers.get("Authorization"), config)
        return 200, _admin_ingest(store, body, config)
    raise _HttpError(404, "not_found", f"no such endpoint: {split.path}")


def _need_method(method: str, expected: str) -> None:
    if method != expected:
        raise _HttpError(405, "method_not_allowed", f"method {method} not allowed, use {expected}")


def _parse_query(query_string: str) -> dict[str, list[str]]:
    pairs = urllib.parse.parse_qsl(query_string, keep_blank_values=True)
    query: dict[str, list[str]] = {}
    for name, value in pairs:
        query.setdefault(name, []).append(value)
    return query


def _allow_params(query: dict[str, list[str]], allowed: set[str], repeatable: set[str] = frozenset()) -> None:
    for name, values in query.items():
        if name not in allowed:
            raise _HttpError(400, "bad_request", f"unknown query parameter: {name}")
        if len(values) > 1 and name not in repeatable:
            raise _HttpError(400, "bad_request", f"duplicate query parameter: {name}")


def _single(query: dict[str, list[str]], name: str) -> str | None:
    values = query.get(name)
    return values[0] if values else None


def _int_param(query: dict[str, list[str]], name: str, default: int, minimum: int) -> int:
    raw = _single(query, name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise _HttpError(400, "bad_request", f"{name} must be an integer: {raw!r}") from None
    if value < minimum:
        raise _HttpError(400, "bad_request", f"{name} must be >= {minimum}")
    return value


# -- payload builders ---------------------------------------------------------

def _concept_summary(concept) -> dict:
    return {
        "key": concept.key.canonical,
        "lemma": concept.key.lemma,
        "path": list(concept.key.path),
        "kind": concept.kind.value,
        "pos": concept.pos.value if concept.pos else None,
        "gender": None if concept.gender is Gender.UNSPECIFIED else concept.gender.value,
        "glyph": concept.glyph or None,
    }


def _concept_view(state: StoreState, key: str, query) -> dict:
    _allow_params(query, set())
    concept = state.get(parse_concept_key(key))
    if concept is None:
        raise _HttpError(404, "not_found", f"unknown concept: {key}")
    payload = _concept_summary(concept)
    if concept.pos_label:
        payload["pos_label"] = concept.pos_label
    payload["translations"] = dict(concept.translations)
    payload["forms"] = [
        {
            "surface": f.surface,
            "pos": f.pos.value if f.pos else None,
            "gender": None if f.gender is Gender.UNSPECIFIED else f.gender.value,
            "tags": f.tags or None,
        }
        for f in sorted(
            (f for f in state.forms.values() if form_matches_concept(f, concept)),
            key=lambda f: f.identity,
        )
    ]
    counts = Counter(label for label, _ in state.as_read_neighbors(concept.key.canonical))
    payload["relations"] = [
        {"type": label, "count": count} for label, count in sorted(counts.items())
    ]
    return {"schema": SCHEMA, "concept": payload}


def _relations_view(state: StoreState, key: str, query) -> dict:
    _allow_params(query, {"type", "direction"})
    direction = _single(query, "direction") or BOTH
    if direction not in (OUTGOING, INCOMING, BOTH):
        raise _HttpError(400, "bad_request", f"direction must be outgoing|incoming|both: {direction!r}")
    type_name = _single(query, "type")
    canonical = parse_concept_key(key).canonical
    results = state.neighbors(canonical, type_name, direction)
    return {
        "schema": SCHEMA,
        "key": canonical,
        "results": [{"type": label, "key": other} for label, other in results],
    }


def _decode_filter(query) -> LookupFilter:
    flt = LookupFilter()
    pos = _single(query, "pos")
    if pos is not None:
        try:
            flt = replace(flt, pos=PartOfSpeech(pos))
        except ValueError:
            raise _HttpError(400, "bad_request", f"unknown pos: {pos!r}") from None
    gender = _single(query, "gender")
    if gender is not None:
        if gender not in ("m", "f", "n"):
            raise _HttpError(400, "bad_request", f"gender must be m|f|n: {gender!r}")
        flt = replace(flt, gender=Gender(gender))
    kind = _single(query, "kind")
    if kind is not None:
        try:
            flt = replace(flt, kind=ConceptKind(kind))
        except ValueError:
            raise _HttpError(400, "bad_request", f"unknown kind: {kind!r}") from None
    category = _single(query, "category")
    if category is not None:
        segments = tuple(nfc(category).split("/"))
        if any(not seg for seg in segments):
            raise _HttpError(400, "bad_request", f"bad category path: {category!r}")
        flt = replace(flt, category_prefix=segments)
    return flt


def _search_view(state: StoreState, query) -> dict:
    _allow_params(query, {"lemma", "form", "pos", "gender", "category", "kind", "limit", "offset"})
    lemma = _single(query, "lemma")
    form = _single(query, "form")
    if lemma is None and form is None:
        raise _HttpError(400, "bad_request", "one of lemma or form is required")
    if lemma is not None and form is not None:
        raise _HttpError(400, "bad_request", "lemma and form are mutually exclusive")
    flt = _decode_filter(query)
    limit = _int_param(query, "limit", DEFAULT_LIMIT, 0)
    offset = _int_param(query, "offset", 0, 0)
    if lemma is not None:
        concepts = state.find_by_lemma(lemma, flt)
    else:
        seen = set()
        concepts = []
        for _form, matched in state.find_by_form(form, flt):
            for concept in matched:
                if concept.key.canonical not in seen:
                    seen.add(concept.key.canonical)
                    concepts.append(concept)
        concepts.sort(key=lambda c: c.key.canonical)
    page = concepts[offset : offset + limit]
    return {
        "schema": SCHEMA,
        "total": len(concepts),
        "limit": limit,
        "offset": offset,
        "results": [_concept_summary(c) for c in page],
    }


def _graph_view(state: StoreState, query) -> dict:
    _allow_params(query, {"seed", "depth", "types"}, repeatable={"seed"})
    seeds = [parse_concept_key(s).canonical for s in query.get("seed", [])]
    if not seeds:
        raise _HttpError(400, "bad_request", "at least one seed is required")
    depth = _int_param(query, "depth", 1, 0)
    types_raw = _single(query, "types")
    type_filter = None
    if types_raw is not None:
        type_filter = {t for t in types_raw.split(",") if t}
        if not type_filter:
            raise _HttpError(400, "bad_request", "types must be a comma-separated list")
    network = semantics.semantic_network(state, seeds, depth, type_filter)
    return {"schema": SCHEMA, "graph": network.to_payload()}


def _analogy_view(state: StoreState, query) -> dict:
    _allow_params(query, {"a1", "b1", "a2", "k", "max_len"})
    keys = {}
    for name in ("a1", "b1", "a2"):
        raw = _single(query, name)
        if raw is None:
            raise _HttpError(400, "bad_request", f"missing required parameter: {name}")
        keys[name] = parse_concept_key(raw).canonical
    k = _int_param(query, "k", 10, 1)
    max_len = _int_param(query, "max_len", 2, 1)
    results = semantics.solve_analogy(state, keys["a1"], keys["b1"], keys["a2"], max_len, k)
    return {
        "schema": SCHEMA,
        "results": [
            {
                "key": key,
                "explanation": [{"type": hop.label, "key": hop.key} for hop in explanation],
            }
            for key, explanation in results
        ],
    }


def _extract_view(state: StoreState, body: bytes | None, config: ApiConfig) -> dict:
    data = _json_object(body)
    if set(data) != {"text"}:
        raise _HttpError(400, "bad_request", 'body must be {"text": ...}')
    if not isinstance(data["text"], str):
        raise _HttpError(400, "bad_request", "text must be a string")
    annotations = extract(data["text"], state, config.weights)
    return {"schema": SCHEMA, "annotations": [a.to_payload() for a in annotations]}


def _check_admin(auth_header: str | None, config: ApiConfig) -> None:
    """Bearer-token gate: 401 without credentials, 403 with bad ones."""
    if auth_header is None:
        raise _HttpError(401, "unauthorized", "missing bearer token")
    parts = auth_header.split(None, 1)
    if len(parts) != 2 or parts[0].lower() != "bearer":
        raise _HttpError(401, "unauthorized", "authorization must be 'Bearer <token>'")
    if not config.admin_token or not hmac.compare_digest(
            parts[1].encode("utf-8"), config.admin_token.encode("utf-8")):
        raise _HttpError(403, "forbidden", "invalid admin token")


def _admin_ingest(store: Store, body: bytes | None, config: ApiConfig) -> dict:
    data = _json_object(body)
    unknown = set(data) - set(PHASES)
    if unknown:
        raise _HttpError(400, "bad_request", f"unknown record kinds: {sorted(unknown)}")
    for kind, text in data.items():
        if not isinstance(text, str):
            raise _HttpError(400, "bad_request", f"{kind} must be a string of records")
    try:
        bundle = DatasetBundle.from_texts(data)
    except BundleFormatError as exc:
        raise _HttpError(400, "bad_request", str(exc)) from None
    report = load_dataset(bundle, store)
    return {"schema": SCHEMA, "report": report.to_payload()}


def _json_object(body: bytes | None) -> dict:
    if not body:
        raise _HttpError(400, "bad_request", "request body required")
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, "bad_request", f"invalid JSON body: {exc}") from None
    if not isinstance(data, dict):
        raise _HttpError(400, "bad_request", "body must be a JSON object")
    return data


# -- HTTP server --------------------------------------------------------------

def make_server(store: Store, host: str, port: int, config: ApiConfig = DEFAULT_CONFIG) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            self._handle("GET")

        def do_POST(self):  # noqa: N802
            self._handle("POST")

        def _handle(self, method: str) -> None:
            started = time.perf_counter()
            raw_length = self.headers.get("Content-Length") or "0"
            framed = raw_length.isascii() and raw_length.isdigit()
            if framed:
                length = int(raw_length)
                body = self.rfile.read(length) if length else None
                status, payload = dispatch(store, method, self.path, body, config, dict(self.headers))
            else:
                status, payload = 400, _error_payload("bad_request", f"invalid Content-Length: {raw_length!r}")
            raw = serialize_body(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(raw)))
            if not framed:  # the body's end is unknown, so the connection cannot be reused
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(raw)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            logger.info("%s %s %d %.1fms", method, self.path, status, elapsed_ms)

        def log_message(self, fmt, *args):  # default stderr chatter -> logging
            logger.debug(fmt, *args)

    return ThreadingHTTPServer((host, port), Handler)


def serve(store: Store, host: str, port: int, config: ApiConfig = DEFAULT_CONFIG) -> None:
    server = make_server(store, host, port, config)
    logger.info("listening on %s:%d", *server.server_address[:2])
    try:
        server.serve_forever()
    finally:
        server.server_close()
