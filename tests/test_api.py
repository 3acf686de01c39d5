import hmac
import http.client
import json
import logging
import re
import socket
import threading
import time
import unicodedata
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from konsepta import api, extract, solve_analogy
from konsepta.api import ERROR_CODES, ROUTES, ApiConfig, dispatch, make_server, serialize_body
from konsepta.ingest import SCHEMA_VERSION

FRUIT = "jedlo/ovocie/hruška"
TREE = "rastlina/strom/hruška"


def q(key: str) -> str:
    return urllib.parse.quote(key, safe="")


def get(store, target):
    return dispatch(store, "GET", target)


class TestConceptEndpoint:
    def test_percent_encoded_key(self, store):
        status, payload = get(store, f"/v1/concepts/{q(TREE)}")
        assert status == 200
        concept = payload["concept"]
        assert concept["key"] == TREE
        assert concept["path"] == ["rastlina", "strom"]
        assert concept["translations"]["en"] == "pear tree"
        assert any(f["surface"] == "hrušky" for f in concept["forms"])
        assert {r["type"] for r in concept["relations"]} == {"hypernym", "related"}

    def test_unknown_key_404(self, store):
        status, payload = get(store, f"/v1/concepts/{q('rastlina/strom/baobab')}")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_single_component_key_400(self, store):
        status, payload = get(store, "/v1/concepts/hruska")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_unencoded_slash_rejected(self, store):
        status, payload = get(store, "/v1/concepts/rastlina/strom/hruska")
        assert status == 400

    def test_glyph_serialized(self, store):
        status, payload = get(store, f"/v1/concepts/{q('symbol/plus')}")
        assert status == 200
        assert payload["concept"]["glyph"] == "+"


class TestSearchEndpoint:
    def test_lemma_two_results(self, store):
        status, payload = get(store, "/v1/search?lemma=" + q("hruška"))
        assert status == 200
        assert payload["total"] == 2
        assert [r["key"] for r in payload["results"]] == [FRUIT, TREE]

    def test_gender_filter_single_result(self, store):
        status, payload = get(store, "/v1/search?lemma=zver&gender=f")
        assert status == 200
        assert [r["key"] for r in payload["results"]] == ["zviera/zver"]

    def test_form_search(self, store):
        status, payload = get(store, "/v1/search?form=" + q("hrušky"))
        assert status == 200
        assert [r["key"] for r in payload["results"]] == [FRUIT, TREE]

    def test_requires_lemma_or_form(self, store):
        status, payload = get(store, "/v1/search?pos=noun")
        assert status == 400

    def test_lemma_and_form_mutually_exclusive(self, store):
        status, _ = get(store, "/v1/search?lemma=a&form=b")
        assert status == 400

    def test_unknown_parameter_rejected(self, store):
        status, payload = get(store, "/v1/search?lemma=x&fuzzy=1")
        assert status == 400
        assert "fuzzy" in payload["error"]["message"]

    def test_duplicate_parameter_rejected(self, store):
        status, payload = get(store, "/v1/search?lemma=a&lemma=b")
        assert status == 400
        assert "duplicate" in payload["error"]["message"]

    def test_bad_enum_values(self, store):
        assert get(store, "/v1/search?lemma=x&gender=q")[0] == 400
        assert get(store, "/v1/search?lemma=x&pos=gerund")[0] == 400
        assert get(store, "/v1/search?lemma=x&kind=idiom")[0] == 400
        assert get(store, "/v1/search?lemma=x&limit=ten")[0] == 400

    def test_pagination_deterministic(self, store):
        status, all_rows = get(store, "/v1/search?lemma=" + q("hruška") + "&limit=50")
        first = get(store, "/v1/search?lemma=" + q("hruška") + "&limit=1&offset=0")[1]
        second = get(store, "/v1/search?lemma=" + q("hruška") + "&limit=1&offset=1")[1]
        assert first["results"][0] == all_rows["results"][0]
        assert second["results"][0] == all_rows["results"][1]
        assert first["total"] == second["total"] == 2

    def test_category_filter(self, store):
        status, payload = get(store, "/v1/search?lemma=" + q("hruška") + "&category=jedlo")
        assert [r["key"] for r in payload["results"]] == [FRUIT]
        # The category is NFC-normalized like lemma and form.
        for category in ("človek", unicodedata.normalize("NFD", "človek")):
            status, payload = get(store, "/v1/search?lemma=" + q("muž") + "&category=" + q(category))
            assert payload["total"] == 1, category


class TestOtherReadEndpoints:
    def test_relations(self, store):
        target = f"/v1/concepts/{q('meno/Miro')}/relations?type=diminutive&direction=outgoing"
        status, payload = get(store, target)
        assert status == 200
        assert payload["results"] == [{"type": "diminutive", "key": "meno/Mirko"}]

    def test_relations_unknown_direction(self, store):
        target = f"/v1/concepts/{q('meno/Miro')}/relations?direction=sideways"
        assert get(store, target)[0] == 400

    def test_graph(self, store):
        target = "/v1/graph?seed=" + q("miesto/mesto/Bratislava") + "&depth=1"
        status, payload = get(store, target)
        assert status == 200
        nodes = {n["key"]: n["depth"] for n in payload["graph"]["nodes"]}
        assert nodes["miesto/mesto/Bratislava"] == 0
        assert nodes["vlastnosť/bratislavský"] == 1

    def test_graph_requires_seed(self, store):
        assert get(store, "/v1/graph?depth=1")[0] == 400

    def test_graph_unknown_seed_404(self, store):
        assert get(store, "/v1/graph?seed=" + q("meno/Nikto"))[0] == 404

    def test_analogy(self, store):
        target = (
            "/v1/analogy?a1=" + q("človek/muž") + "&b1=" + q("človek/panovník/kráľ")
            + "&a2=" + q("človek/žena")
        )
        status, payload = get(store, target)
        assert status == 200
        assert payload["results"][0]["key"] == "človek/panovník/kráľovná"

    def test_analogy_missing_parameter(self, store):
        assert get(store, "/v1/analogy?a1=" + q("človek/muž"))[0] == 400

    def test_analogy_no_premise_path_404(self, store):
        target = (
            "/v1/analogy?a1=" + q("človek/muž") + "&b1=" + q("človek/muž")
            + "&a2=" + q("človek/žena")
        )
        status, payload = get(store, target)
        assert status == 404
        assert "no relation path" in payload["error"]["message"]

    def test_analogy_unknown_key_404(self, store):
        target = (
            "/v1/analogy?a1=" + q("meno/Nikto") + "&b1=" + q("človek/muž")
            + "&a2=" + q("človek/žena")
        )
        assert get(store, target)[0] == 404

    def test_stats(self, store):
        status, payload = get(store, "/v1/stats")
        assert status == 200
        assert payload["stats"]["concepts"] == 60

    def test_unknown_route(self, store):
        assert get(store, "/v1/nonsense")[0] == 404

    def test_wrong_method(self, store):
        status, payload = dispatch(store, "POST", "/v1/stats")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"


class TestExtractEndpoint:
    def test_empty_text(self, store):
        status, payload = dispatch(store, "POST", "/v1/extract", b'{"text": ""}')
        assert status == 200
        assert payload["annotations"] == []

    def test_round_trips_annotations(self, store):
        body = json.dumps({"text": "jablko a hruška"}, ensure_ascii=False).encode()
        status, payload = dispatch(store, "POST", "/v1/extract", body)
        assert status == 200
        direct = extract("jablko a hruška", store.snapshot())
        assert payload["annotations"] == [a.to_payload() for a in direct]

    def test_requires_text_key(self, store):
        assert dispatch(store, "POST", "/v1/extract", b'{"txt": "x"}')[0] == 400
        assert dispatch(store, "POST", "/v1/extract", b'{"text": 5}')[0] == 400
        assert dispatch(store, "POST", "/v1/extract", b"not json")[0] == 400
        assert dispatch(store, "POST", "/v1/extract", None)[0] == 400


class TestAdminIngest:
    CONFIG = ApiConfig(admin_token="sezam")

    def _body(self):
        text = "\n".join([
            f"{SCHEMA_VERSION}\ttaxonomy",
            "vesmír",
        ]) + "\n"
        return json.dumps({"taxonomy": text}).encode()

    def test_missing_token_401(self, fresh_store):
        status, payload = dispatch(fresh_store, "POST", "/v1/admin/ingest", self._body(), self.CONFIG)
        assert status == 401
        assert payload["error"]["code"] == "unauthorized"

    def test_wrong_token_403(self, fresh_store):
        headers = {"Authorization": "Bearer zlodej"}
        status, _ = dispatch(fresh_store, "POST", "/v1/admin/ingest", self._body(), self.CONFIG, headers)
        assert status == 403

    def test_disabled_without_configuration(self, fresh_store):
        headers = {"Authorization": "Bearer sezam"}
        status, _ = dispatch(fresh_store, "POST", "/v1/admin/ingest", self._body(), ApiConfig(), headers)
        assert status == 403

    def test_valid_token_loads(self, fresh_store):
        headers = {"Authorization": "Bearer sezam"}
        status, payload = dispatch(fresh_store, "POST", "/v1/admin/ingest", self._body(), self.CONFIG, headers)
        assert status == 200
        assert payload["report"]["counts"]["taxonomy"]["inserted"] == 1
        assert ("vesmír",) in fresh_store.snapshot().taxonomy

    @pytest.mark.parametrize("token, status", [("zlodej", 403), ("sézam", 403), ("sezam", 200)])
    def test_token_compared_in_constant_time(self, fresh_store, monkeypatch, token, status):
        compared = []
        real = hmac.compare_digest

        def compare_digest(a, b):
            compared.append((a, b))
            return real(a, b)

        monkeypatch.setattr(api.hmac, "compare_digest", compare_digest)
        headers = {"Authorization": f"Bearer {token}"}
        got, payload = dispatch(fresh_store, "POST", "/v1/admin/ingest", self._body(), self.CONFIG, headers)
        assert got == status
        assert compared == [(token.encode("utf-8"), b"sezam")]
        if status == 403:
            assert payload["error"] == {"code": "forbidden", "message": "invalid admin token"}

    def test_non_ascii_token_loads(self, fresh_store):
        headers = {"Authorization": "Bearer sézam"}
        config = ApiConfig(admin_token="sézam")
        assert dispatch(fresh_store, "POST", "/v1/admin/ingest", self._body(), config, headers)[0] == 200

    def test_rejections_are_data_not_transport_errors(self, fresh_store):
        headers = {"Authorization": "Bearer sezam"}
        text = f"{SCHEMA_VERSION}\ttaxonomy\nvesmír/hviezda\n"
        body = json.dumps({"taxonomy": text}).encode()
        status, payload = dispatch(fresh_store, "POST", "/v1/admin/ingest", body, self.CONFIG, headers)
        assert status == 200
        assert payload["report"]["rejected"] == 1


class TestEnvelope:
    def test_every_response_declares_schema_version(self, store):
        targets = [
            ("GET", f"/v1/concepts/{q(TREE)}", None),
            ("GET", f"/v1/concepts/{q('meno/Nikto')}", None),
            ("GET", f"/v1/concepts/{q('meno/Miro')}/relations", None),
            ("GET", "/v1/search?lemma=" + q("hruška"), None),
            ("GET", "/v1/search", None),
            ("GET", "/v1/graph?seed=" + q("človek/muž"), None),
            ("GET", "/v1/analogy?a1=x", None),
            ("GET", "/v1/stats", None),
            ("POST", "/v1/extract", b'{"text": "pes"}'),
            ("POST", "/v1/admin/ingest", b"{}"),
            ("GET", "/v1/void", None),
        ]
        for method, target, body in targets:
            _status, payload = dispatch(store, method, target, body)
            assert payload["schema"] == SCHEMA_VERSION, target
            raw = serialize_body(payload)
            assert json.loads(raw.decode("utf-8"))  # valid JSON, UTF-8

    def test_error_payload_carries_exactly_one_error(self, store):
        for method, target in (("GET", "/v1/concepts/x"), ("GET", "/v1/void"), ("GET", "/v1/search"),
                               ("POST", "/v1/stats"), ("POST", "/v1/admin/ingest")):
            status, payload = dispatch(store, method, target)
            assert set(payload) == {"schema", "error"}
            assert set(payload["error"]) == {"code", "message"}
            assert payload["error"]["code"] == ERROR_CODES[status], target


class TestRouteTable:
    def test_readme_endpoint_table_matches_routes(self):
        """README's endpoint table lists each route: method, path template, query parameters."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = []
        for endpoint in re.findall(r"^\| `([A-Z]+ /v1/[^`]*)`", readme, re.MULTILINE):
            method, target = endpoint.split(" ", 1)
            path, _, query = target.partition("?")
            names = [pair.split("=")[0] for pair in query.replace("\\|", "&").split("&") if pair]
            rows.append((method, tuple(path.strip("/").split("/")), names))
        assert rows == [(r.method, r.template, list(r.params)) for r in ROUTES]


class TestTransportTransparency:
    def test_analogy_payload_equals_library(self, store):
        target = (
            "/v1/analogy?a1=" + q("človek/muž") + "&b1=" + q("človek/panovník/kráľ")
            + "&a2=" + q("človek/žena")
        )
        _, payload = get(store, target)
        direct = solve_analogy(store.snapshot(), "človek/muž", "človek/panovník/kráľ", "človek/žena")
        assert [r["key"] for r in payload["results"]] == [key for key, _ in direct]
        assert payload["results"][0]["explanation"] == [
            {"type": hop.label, "key": hop.key} for hop in direct[0][1]
        ]

    def test_search_payload_equals_library(self, store):
        _, payload = get(store, "/v1/search?lemma=" + q("hruška"))
        direct = store.snapshot().find_by_lemma("hruška")
        assert [r["key"] for r in payload["results"]] == [c.key.canonical for c in direct]

    def test_snapshot_bound_per_request(self, fresh_store):
        before = get(fresh_store, "/v1/stats")[1]["stats"]["concepts"]
        with fresh_store.write() as state:
            state.remove_concept(TREE)
        after = get(fresh_store, "/v1/stats")[1]["stats"]["concepts"]
        assert after == before - 1


class TestLiveServer:
    @pytest.fixture()
    def server(self, store):
        srv = make_server(store, "127.0.0.1", 0, ApiConfig(admin_token="sezam"))
        # A short poll interval keeps shutdown() from waiting the default 0.5 s per test.
        thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()

    def _url(self, server, target):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{target}"

    def test_get_concept_over_http(self, server, store, caplog):
        def logged():
            access = [r.getMessage() for r in caplog.records if r.name == "konsepta.api"]
            return any(m.startswith("GET /v1/concepts/") and " 200 " in m and m.endswith("ms") for m in access)

        url = self._url(server, f"/v1/concepts/{q(TREE)}")
        with caplog.at_level(logging.INFO, logger="konsepta.api"):
            with urllib.request.urlopen(url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("application/json")
                body = response.read()
            # The handler thread logs after it has written the body.
            deadline = time.monotonic() + 5.0
            while not logged() and time.monotonic() < deadline:
                time.sleep(0.01)
        status, payload = get(store, f"/v1/concepts/{q(TREE)}")
        assert body == serialize_body(payload)
        # one structured log line per request: method, path, status, duration
        access = [r.getMessage() for r in caplog.records if r.name == "konsepta.api"]
        assert any(m.startswith("GET /v1/concepts/") and " 200 " in m and m.endswith("ms") for m in access)

    def test_post_extract_over_http(self, server):
        url = self._url(server, "/v1/extract")
        data = json.dumps({"text": "2 + 2"}).encode()
        request = urllib.request.Request(url, data=data, method="POST")
        with urllib.request.urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["annotations"][0]["chosen"] == "symbol/plus"

    def test_error_status_over_http(self, server):
        url = self._url(server, "/v1/concepts/" + q("meno/Nikto"))
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url)
        assert info.value.code == 404
        payload = json.loads(info.value.read())
        assert payload["error"]["code"] == "not_found"

    def test_admin_over_http(self, server):
        url = self._url(server, "/v1/admin/ingest")
        data = json.dumps({"taxonomy": f"{SCHEMA_VERSION}\ttaxonomy\n"}).encode()
        request = urllib.request.Request(url, data=data, method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 401

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_bad_content_length_400(self, server, length):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", "/v1/extract")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert response.headers["Connection"] == "close"
        assert payload == {
            "schema": "konsepta/v1",
            "error": {"code": "bad_request", "message": f"invalid Content-Length: {length!r}"},
        }

    def _exchange(self, server, data: bytes, methods=("GET",)):
        """Send raw request bytes, read to EOF and split the replies, one per method."""
        received = b""
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(data)
            try:
                while chunk := sock.recv(65536):
                    received += chunk
            except ConnectionResetError:  # the server may close with request bytes unread
                pass
        replies = []
        for method in methods:
            head, _, received = received.partition(b"\r\n\r\n")
            status_line, *lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            length = 0 if method == "HEAD" else int(headers["Content-Length"])
            replies.append((int(status_line.split()[1]), headers, received[:length]))
            received = received[length:]
        assert received == b""
        return replies

    @pytest.mark.parametrize("request_line, status", [
        ("POST /v1/stats HTTP/1.1", 405),
        ("PUT /v1/stats HTTP/1.1", 405),
        ("DELETE /v1/nonsense HTTP/1.1", 404),
        ("BREW /v1/stats HTTP/1.1", 501),
        ("GARBAGE", 400),
        ("GET /v1/stats HTTP/2.0", 505),
        ("GET /v1/" + "x" * 70_000 + " HTTP/1.1", 414),
        ("GET /v1/stats HTTP/1.1\r\nX-Long: " + "y" * 70_000, 431),
    ], ids=["post", "put", "delete", "unknown-method", "garbage", "http2", "long-url", "long-header"])
    def test_every_reply_is_json(self, server, request_line, status):
        data = f"{request_line}\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
        [(got, headers, body)] = self._exchange(server, data)
        assert got == status
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        payload = json.loads(body)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["error"]["code"] == ERROR_CODES[status]
        assert headers.get("Allow") == ("GET" if status == 405 else None)

    def test_head_sends_no_body_and_keeps_the_connection(self, server, store):
        data = (b"HEAD /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        (head_status, head_headers, head_body), (status, _, body) = self._exchange(server, data, ("HEAD", "GET"))
        assert (head_status, head_headers["Allow"], head_body) == (405, "GET", b"")
        assert "Connection" not in head_headers
        assert status == 200
        assert body == serialize_body(get(store, "/v1/stats")[1])
