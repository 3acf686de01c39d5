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
from typing import Callable, NamedTuple

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
from .ingest import PHASES, SCHEMA_VERSION as SCHEMA, BundleFormatError, DatasetBundle, load_dataset
from .store import BOTH, INCOMING, OUTGOING, LookupFilter, Store

#: Page size of ``/v1/search`` when the request gives no ``limit``.
DEFAULT_LIMIT = 50

#: The largest request body the server reads; a larger declared length gets 413 unread.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: The longest text ``/v1/extract`` takes, in characters; a longer one gets 413 before any work.
MAX_TEXT_CHARS = 100_000

#: Seconds a connection may sit idle, or stall mid-request, before the server closes it and frees its thread.
IDLE_TIMEOUT_S = 30

#: The one error code of each status; fixed, as ``HTTPStatus`` phrases vary by Python version.
ERROR_CODES = {
    400: "bad_request", 401: "unauthorized", 403: "forbidden", 404: "not_found", 405: "method_not_allowed",
    413: "content_too_large", 414: "uri_too_long", 431: "request_header_fields_too_large",
    500: "internal", 501: "not_implemented", 505: "http_version_not_supported",
}

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
    """Raised as ``_HttpError(status, message)``; :func:`dispatch` replies with it."""


def _error(status: int, message: str) -> tuple[int, dict]:
    return status, {"schema": SCHEMA, "error": {"code": ERROR_CODES[status], "message": message}}


def dispatch(store: Store, method: str, target: str, body: bytes | None = None,
             config: ApiConfig = DEFAULT_CONFIG,
             headers: dict[str, str] | None = None) -> tuple[int, dict]:
    """Route one request; returns ``(http status, response payload)``."""
    try:
        return _route(store, method, target, body, config, headers or {})
    except _HttpError as exc:
        return _error(*exc.args)
    except (UnknownConceptError, UnknownCategoryError, UnknownRelationTypeError,
            UnknownEdgeError, semantics.NoPathError) as exc:
        return _error(404, str(exc))
    except KonseptaError as exc:
        return _error(400, str(exc))
    except Exception:  # noqa: BLE001 - transport boundary
        logger.exception("unhandled error for %s %s", method, target)
        return _error(500, "internal error")


class _Request(NamedTuple):
    """What a route handler reads; ``key`` is the URL's ``{key}`` segment, if any."""

    store: Store
    key: str | None
    query: dict[str, list[str]]
    body: bytes | None
    config: ApiConfig
    headers: dict[str, str]


class Route(NamedTuple):
    """One endpoint; a ``{key}`` part of the template matches any one URL segment."""

    method: str
    template: tuple[str, ...]
    params: tuple[str, ...]
    repeatable: tuple[str, ...]
    handler: Callable[[_Request], dict]


def _routes_at(path: str) -> tuple[list[Route], list[str]]:
    """The routes whose template matches ``path``, and its percent-decoded segments."""
    segments = [urllib.parse.unquote(seg) for seg in path.split("/") if seg != ""]
    return [route for route in ROUTES if len(route.template) == len(segments)
            and all(part in (seg, "{key}") for part, seg in zip(route.template, segments))], segments


def _methods(routes: list[Route]) -> list[str]:
    """The methods ``routes`` answer; a GET route also answers HEAD (RFC 9110, section 9.1)."""
    return [method for route in routes
            for method in ([route.method, "HEAD"] if route.method == "GET" else [route.method])]


def _route(store: Store, method: str, target: str, body: bytes | None,
           config: ApiConfig, headers: dict[str, str]) -> tuple[int, dict]:
    split = urllib.parse.urlsplit(target)
    routes, segments = _routes_at(split.path)
    if not routes:
        if segments[:2] == ["v1", "concepts"]:
            raise _HttpError(400, "concept keys in URLs must be a single percent-encoded segment")
        raise _HttpError(404, f"no such endpoint: {split.path}")
    methods = _methods(routes)
    if method not in methods:
        raise _HttpError(405, f"method {method} not allowed, use {', '.join(methods)}")
    route = next(route for route in routes if route.method == ("GET" if method == "HEAD" else method))
    query: dict[str, list[str]] = {}
    for name, value in urllib.parse.parse_qsl(split.query, keep_blank_values=True):
        query.setdefault(name, []).append(value)
    for name, values in query.items():
        if name not in route.params:
            raise _HttpError(400, f"unknown query parameter: {name}")
        if len(values) > 1 and name not in route.repeatable:
            raise _HttpError(400, f"duplicate query parameter: {name}")
    key = next((seg for part, seg in zip(route.template, segments) if part == "{key}"), None)
    return 200, route.handler(_Request(store, key, query, body, config, headers))


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
        raise _HttpError(400, f"{name} must be an integer: {raw!r}") from None
    if value < minimum:
        raise _HttpError(400, f"{name} must be >= {minimum}")
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


def _concept_view(req: _Request) -> dict:
    state = req.store.snapshot()
    concept = state.get(parse_concept_key(req.key))
    if concept is None:
        raise _HttpError(404, f"unknown concept: {req.key}")
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
        for f in state.forms_by_lemma(concept.key.lemma)
        if form_matches_concept(f, concept)
    ]
    counts = Counter(label for label, _ in state.as_read_neighbors(concept.key.canonical))
    payload["relations"] = [
        {"type": label, "count": count} for label, count in sorted(counts.items())
    ]
    return {"schema": SCHEMA, "concept": payload}


def _relations_view(req: _Request) -> dict:
    direction = _single(req.query, "direction") or BOTH
    if direction not in (OUTGOING, INCOMING, BOTH):
        raise _HttpError(400, f"direction must be outgoing|incoming|both: {direction!r}")
    type_name = _single(req.query, "type")
    canonical = parse_concept_key(req.key).canonical
    results = req.store.snapshot().neighbors(canonical, type_name, direction)
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
            raise _HttpError(400, f"unknown pos: {pos!r}") from None
    gender = _single(query, "gender")
    if gender is not None:
        if gender not in ("m", "f", "n"):
            raise _HttpError(400, f"gender must be m|f|n: {gender!r}")
        flt = replace(flt, gender=Gender(gender))
    kind = _single(query, "kind")
    if kind is not None:
        try:
            flt = replace(flt, kind=ConceptKind(kind))
        except ValueError:
            raise _HttpError(400, f"unknown kind: {kind!r}") from None
    category = _single(query, "category")
    if category is not None:
        segments = tuple(nfc(category).split("/"))
        if any(not seg for seg in segments):
            raise _HttpError(400, f"bad category path: {category!r}")
        flt = replace(flt, category_prefix=segments)
    return flt


def _search_view(req: _Request) -> dict:
    state, query = req.store.snapshot(), req.query
    lemma = _single(query, "lemma")
    form = _single(query, "form")
    if lemma is None and form is None:
        raise _HttpError(400, "one of lemma or form is required")
    if lemma is not None and form is not None:
        raise _HttpError(400, "lemma and form are mutually exclusive")
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


def _graph_view(req: _Request) -> dict:
    query = req.query
    seeds = [parse_concept_key(s).canonical for s in query.get("seed", [])]
    if not seeds:
        raise _HttpError(400, "at least one seed is required")
    depth = _int_param(query, "depth", 1, 0)
    types_raw = _single(query, "types")
    type_filter = None
    if types_raw is not None:
        type_filter = {t for t in types_raw.split(",") if t}
        if not type_filter:
            raise _HttpError(400, "types must be a comma-separated list")
    network = semantics.semantic_network(req.store.snapshot(), seeds, depth, type_filter)
    return {"schema": SCHEMA, "graph": network.to_payload()}


def _analogy_view(req: _Request) -> dict:
    keys = {}
    for name in ("a1", "b1", "a2"):
        raw = _single(req.query, name)
        if raw is None:
            raise _HttpError(400, f"missing required parameter: {name}")
        keys[name] = parse_concept_key(raw).canonical
    k = _int_param(req.query, "k", 10, 1)
    max_len = _int_param(req.query, "max_len", 2, 1)
    results = semantics.solve_analogy(req.store.snapshot(), keys["a1"], keys["b1"], keys["a2"], max_len, k)
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


def _extract_view(req: _Request) -> dict:
    data = _json_object(req.body)
    if set(data) != {"text"}:
        raise _HttpError(400, 'body must be {"text": ...}')
    if not isinstance(data["text"], str):
        raise _HttpError(400, "text must be a string")
    if len(data["text"]) > MAX_TEXT_CHARS:
        raise _HttpError(413, f"text over the {MAX_TEXT_CHARS}-character limit")
    annotations = extract(data["text"], req.store.snapshot(), req.config.weights)
    return {"schema": SCHEMA, "annotations": [a.to_payload() for a in annotations]}


def _check_admin(auth_header: str | None, config: ApiConfig) -> None:
    """Bearer-token gate: 401 without credentials, 403 with bad ones."""
    if auth_header is None:
        raise _HttpError(401, "missing bearer token")
    parts = auth_header.split(None, 1)
    if len(parts) != 2 or parts[0].lower() != "bearer":
        raise _HttpError(401, "authorization must be 'Bearer <token>'")
    if not config.admin_token or not hmac.compare_digest(
            parts[1].encode("utf-8"), config.admin_token.encode("utf-8")):
        raise _HttpError(403, "invalid admin token")


def _admin_ingest(req: _Request) -> dict:
    _check_admin(req.headers.get("Authorization"), req.config)
    data = _json_object(req.body)
    unknown = set(data) - set(PHASES)
    if unknown:
        raise _HttpError(400, f"unknown record kinds: {sorted(unknown)}")
    for kind, text in data.items():
        if not isinstance(text, str):
            raise _HttpError(400, f"{kind} must be a string of records")
    try:
        bundle = DatasetBundle.from_texts(data)
    except BundleFormatError as exc:
        raise _HttpError(400, str(exc)) from None
    report = load_dataset(bundle, req.store)
    return {"schema": SCHEMA, "report": report.to_payload()}


def _json_object(body: bytes | None) -> dict:
    if not body:
        raise _HttpError(400, "request body required")
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(data, dict):
        raise _HttpError(400, "body must be a JSON object")
    return data


#: Every endpoint, in the order of README's endpoint table, which lists the same rows.
ROUTES = (
    Route("GET", ("v1", "concepts", "{key}"), (), (), _concept_view),
    Route("GET", ("v1", "concepts", "{key}", "relations"), ("type", "direction"), (), _relations_view),
    Route("GET", ("v1", "search"),
          ("lemma", "form", "pos", "gender", "category", "kind", "limit", "offset"), (), _search_view),
    Route("GET", ("v1", "graph"), ("seed", "depth", "types"), ("seed",), _graph_view),
    Route("GET", ("v1", "analogy"), ("a1", "b1", "a2", "k", "max_len"), (), _analogy_view),
    Route("GET", ("v1", "stats"), (), (),
          lambda req: {"schema": SCHEMA, "stats": req.store.snapshot().stats().to_payload()}),
    Route("POST", ("v1", "extract"), (), (), _extract_view),
    Route("POST", ("v1", "admin", "ingest"), (), (), _admin_ingest),
)


# -- HTTP server --------------------------------------------------------------

def make_server(store: Store, host: str, port: int, config: ApiConfig = DEFAULT_CONFIG) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # StreamRequestHandler.setup puts it on the socket; handle_one_request closes on the timeout.
        timeout = IDLE_TIMEOUT_S

        def _handle(self) -> None:
            started = time.perf_counter()
            raw_length = self.headers.get("Content-Length") or "0"
            framed = raw_length.isascii() and raw_length.isdigit()
            digits = raw_length.lstrip("0") or "0"
            # Digit count first: int() refuses a string of over 4,300 digits.
            fits = framed and len(digits) <= len(str(MAX_BODY_BYTES)) and int(digits) <= MAX_BODY_BYTES
            if fits:
                body = self.rfile.read(int(digits)) or None
                status, payload = dispatch(store, self.command, self.path, body, config, dict(self.headers))
            elif framed:
                status, payload = _error(413, f"request body over the {MAX_BODY_BYTES}-byte limit")
            else:
                status, payload = _error(400, f"invalid Content-Length: {raw_length!r}")
            self._reply(status, payload, close=not fits)  # an unread body's end is unknown
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            logger.info("%s %s %d %.1fms", self.command, self.path, status, elapsed_ms)

        # Every method reaches the route table, which answers 405 or 404.
        do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = do_HEAD = do_OPTIONS = _handle  # noqa: N815

        def send_error(self, code, message=None, explain=None):
            """``http.server``'s own rejections (bad request line, 414, 431, 501, 505) as JSON."""
            self.log_error("code %d, message %s", code, message)
            # An unparsed request line leaves HTTP/0.9, which sends no status line.
            self.request_version = self.protocol_version
            self._reply(*_error(code, message or self.responses[code][0]), close=True)

        def _reply(self, status: int, payload: dict, close: bool) -> None:
            raw = serialize_body(payload)
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(raw)))
            if status == 405:
                routes, _segments = _routes_at(urllib.parse.urlsplit(self.path).path)
                self.send_header("Allow", ", ".join(_methods(routes)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(raw)

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
