"""Command-line interface.

Every read command goes through the same request dispatcher as the HTTP
service and ``--json`` prints the exact response body bytes, so CLI and API
output cannot diverge.  Exit codes: 0 success, 1 domain error (not found or
no result), 2 usage error, 3 data error.
"""

from __future__ import annotations

import json
import logging
import sys
import urllib.parse
from pathlib import Path

import click

from .api import SCHEMA, ApiConfig, dispatch, serialize_body, serve
from .extract import DEFAULT_WEIGHTS, DisambiguationWeights
from .ingest import (
    BundleFormatError,
    DatasetBundle,
    IngestReport,
    export_dataset,
    fixture_dir,
    load_dataset,
    write_bundle,
)
from .semantics import to_dot
from .store import Store

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def load_weights(path: str | Path) -> DisambiguationWeights:
    """Disambiguation weights from a JSON file of field overrides."""
    overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(overrides, dict):
        raise ValueError("weights file must be a JSON object")
    return DisambiguationWeights(**overrides)


class CliEnv:
    def __init__(self, data_dir: str | None):
        self.data_dir = Path(data_dir) if data_dir else fixture_dir()
        self._store: Store | None = None

    def store(self) -> Store:
        if self._store is None:
            store = Store()
            try:
                bundle = DatasetBundle.read_dir(self.data_dir)
                report = load_dataset(bundle, store)
            except (BundleFormatError, OSError) as exc:
                click.echo(f"error: cannot load dataset: {exc}", err=True)
                sys.exit(EXIT_DATA)
            if report.rejected:
                click.echo(
                    f"error: dataset has {report.rejected} rejected records "
                    f"(first: {report.rejections[0]})",
                    err=True,
                )
                sys.exit(EXIT_DATA)
            self._store = store
        return self._store


def _request(env: CliEnv, target: str, as_json: bool, body: bytes | None = None,
             method: str = "GET") -> dict:
    """Dispatch one request; in JSON mode print the body and exit by status."""
    status, payload = dispatch(env.store(), method, target, body)
    if as_json:
        sys.stdout.buffer.write(serialize_body(payload))
        sys.stdout.buffer.flush()
        sys.exit(_exit_for(status, payload))
    if status >= 400:
        message = payload.get("error", {}).get("message", "request failed")
        click.echo(f"error: {message}", err=True)
        sys.exit(_exit_for(status, payload))
    return payload


def _exit_for(status: int, payload: dict) -> int:
    if status < 400:
        if payload.get("total") == 0 or payload.get("results") == []:
            return EXIT_DOMAIN
        return EXIT_OK
    if status == 400:
        return EXIT_USAGE
    if status in (404, 401, 403, 405):
        return EXIT_DOMAIN
    return EXIT_DATA


def _quote(key: str) -> str:
    return urllib.parse.quote(key, safe="")


def _encode(params: list[tuple[str, str]]) -> str:
    return urllib.parse.urlencode(params, doseq=False)


@click.group()
@click.version_option(package_name="konsepta")
@click.option(
    "--data",
    "data_dir",
    envvar="KONSEPTA_DATA",
    type=click.Path(file_okay=False),
    default=None,
    help="Dataset bundle directory (defaults to the packaged sample data).",
)
@click.pass_context
def main(ctx: click.Context, data_dir: str | None) -> None:
    """Concept dictionary engine: lookup, extraction, graph queries, analogies."""
    ctx.obj = CliEnv(data_dir)


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Print the ingest report as JSON.")
def ingest(directory: str, as_json: bool) -> None:
    """Validate and load a dataset bundle; exit 0 only with zero rejections."""
    store = Store()
    try:
        bundle = DatasetBundle.read_dir(directory)
        report = load_dataset(bundle, store)
    except (BundleFormatError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    if as_json:
        sys.stdout.buffer.write(serialize_body({"schema": SCHEMA, "report": report.to_payload()}))
    else:
        _print_report(report)
    sys.exit(EXIT_OK if report.rejected == 0 else EXIT_DATA)


def _print_report(report: IngestReport) -> None:
    click.echo("kind            inserted  updated  unchanged  rejected")
    for kind, counts in report.counts.items():
        click.echo(
            f"{kind:<15} {counts.inserted:>8}  {counts.updated:>7}  "
            f"{counts.unchanged:>9}  {counts.rejected:>8}"
        )
    for rejection in report.rejections:
        click.echo(
            f"rejected {rejection.kind}:{rejection.line}: {rejection.rule}"
            + (f" ({rejection.detail})" if rejection.detail else "")
        )


@main.command()
@click.argument("directory", type=click.Path(file_okay=False))
@click.pass_obj
def export(env: CliEnv, directory: str) -> None:
    """Write the loaded dataset to a bundle directory, sorted and normalized."""
    texts = export_dataset(env.store().snapshot())
    write_bundle(directory, texts)
    records = sum(len(t.splitlines()) - 1 for t in texts.values())
    click.echo(f"exported {records} records to {directory}")


@main.command()
@click.argument("key")
@click.option("--json", "as_json", is_flag=True, help="Print the API response body.")
@click.pass_obj
def get(env: CliEnv, key: str, as_json: bool) -> None:
    """Show one concept by its canonical key."""
    payload = _request(env, f"/v1/concepts/{_quote(key)}", as_json)
    concept = payload["concept"]
    click.echo(f"key:     {concept['key']}")
    click.echo(f"lemma:   {concept['lemma']}")
    click.echo(f"kind:    {concept['kind']}")
    click.echo(f"pos:     {concept['pos'] or '-'}")
    click.echo(f"gender:  {concept['gender'] or '-'}")
    if concept["glyph"]:
        click.echo(f"glyph:   {concept['glyph']}")
    if concept["translations"]:
        pairs = ", ".join(f"{code}:{text}" for code, text in concept["translations"].items())
        click.echo(f"translations: {pairs}")
    if concept["forms"]:
        click.echo("forms:   " + ", ".join(f["surface"] for f in concept["forms"]))
    for rel in concept["relations"]:
        click.echo(f"relation {rel['type']}: {rel['count']}")


@main.command()
@click.option("--lemma", default=None)
@click.option("--form", default=None)
@click.option("--pos", default=None)
@click.option("--gender", default=None)
@click.option("--category", default=None)
@click.option("--kind", default=None)
@click.option("--limit", type=click.IntRange(min=0), default=None)
@click.option("--offset", type=click.IntRange(min=0), default=None)
@click.option("--json", "as_json", is_flag=True, help="Print the API response body.")
@click.pass_obj
def search(env: CliEnv, lemma, form, pos, gender, category, kind, limit, offset, as_json) -> None:
    """Find concepts by lemma or by inflected surface form."""
    params = []
    for name, value in (
        ("lemma", lemma), ("form", form), ("pos", pos), ("gender", gender),
        ("category", category), ("kind", kind),
        ("limit", str(limit) if limit is not None else None),
        ("offset", str(offset) if offset is not None else None),
    ):
        if value is not None:
            params.append((name, value))
    payload = _request(env, f"/v1/search?{_encode(params)}", as_json)
    for row in payload["results"]:
        click.echo(
            f"{row['key']}\t{row['kind']}\t{row['pos'] or '-'}\t{row['gender'] or '-'}"
        )
    if payload["total"] == 0:
        click.echo("no results", err=True)
        sys.exit(EXIT_DOMAIN)


@main.command()
@click.argument("key")
@click.option("--type", "type_name", default=None, help="Restrict to one relation type as read.")
@click.option("--direction", type=click.Choice(["outgoing", "incoming", "both"]), default="both")
@click.option("--json", "as_json", is_flag=True, help="Print the API response body.")
@click.pass_obj
def relations(env: CliEnv, key: str, type_name, direction, as_json) -> None:
    """List neighbors of a concept with relation names as read from it."""
    params = [("direction", direction)]
    if type_name is not None:
        params.insert(0, ("type", type_name))
    payload = _request(env, f"/v1/concepts/{_quote(key)}/relations?{_encode(params)}", as_json)
    for row in payload["results"]:
        click.echo(f"{row['type']}\t{row['key']}")
    if not payload["results"]:
        click.echo("no relations", err=True)
        sys.exit(EXIT_DOMAIN)


@main.command()
@click.option("--seed", "seeds", multiple=True, required=True, help="Seed concept key (repeatable).")
@click.option("--depth", type=click.IntRange(min=0), default=1)
@click.option("--types", default=None, help="Comma-separated relation type filter.")
@click.option("--format", "fmt", type=click.Choice(["records", "graphtext"]), default="records")
@click.option("--json", "as_json", is_flag=True, help="Alias for --format records.")
@click.pass_obj
def graph(env: CliEnv, seeds, depth, types, fmt, as_json) -> None:
    """Export the semantic network around seed concepts."""
    params = [("seed", s) for s in seeds] + [("depth", str(depth))]
    if types is not None:
        params.append(("types", types))
    payload = _request(env, f"/v1/graph?{_encode(params)}", as_json or fmt == "records")
    click.echo(to_dot(payload["graph"]), nl=False)


@main.command()
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Read text from a file instead of stdin.")
@click.option("--json", "as_json", is_flag=True, help="Print the API response body.")
@click.pass_obj
def extract(env: CliEnv, path, as_json) -> None:
    """Annotate text (from --file or stdin) with concept candidates."""
    text = Path(path).read_text(encoding="utf-8") if path else sys.stdin.read()
    body = json.dumps({"text": text}, ensure_ascii=False).encode("utf-8")
    payload = _request(env, "/v1/extract", as_json, body=body, method="POST")
    for ann in payload["annotations"]:
        click.echo(
            f"[{ann['start']},{ann['end']}) {ann['surface']!r} -> {ann['chosen']} "
            f"({ann['candidates'][0]['score']:.2f}, {ann['match_level']})"
        )


@main.command()
@click.argument("a1")
@click.argument("b1")
@click.argument("a2")
@click.option("-k", "top_k", type=click.IntRange(min=1), default=10, help="Number of candidates to return.")
@click.option("--max-len", type=click.IntRange(1, 2), default=2, help="Longest premise path to replay (1 or 2).")
@click.option("--json", "as_json", is_flag=True, help="Print the API response body.")
@click.pass_obj
def analogy(env: CliEnv, a1, b1, a2, top_k, max_len, as_json) -> None:
    """Solve 'a1 is to b1 as a2 is to ?' over the relation graph."""
    params = [("a1", a1), ("b1", b1), ("a2", a2), ("k", str(top_k)), ("max_len", str(max_len))]
    payload = _request(env, f"/v1/analogy?{_encode(params)}", as_json)
    if not payload["results"]:
        click.echo("no candidates", err=True)
        sys.exit(EXIT_DOMAIN)
    for rank, row in enumerate(payload["results"], start=1):
        steps = " ".join(f"-{hop['type']}-> {hop['key']}" for hop in row["explanation"])
        click.echo(f"{rank}. {row['key']}   (via {steps})")


@main.command()
@click.option("--json", "as_json", is_flag=True, help="Print the API response body.")
@click.pass_obj
def stats(env: CliEnv, as_json) -> None:
    """Dataset statistics: totals and per-group concept/relation counts."""
    payload = _request(env, "/v1/stats", as_json)
    data = payload["stats"]
    click.echo(f"concepts:   {data['concepts']}")
    click.echo(f"categories: {data['categories']}")
    click.echo(f"relations:  {data['relations']}")
    for group in ("by_pos", "by_kind", "by_relation_type"):
        for name, count in data[group].items():
            click.echo(f"{group[3:]}.{name}: {count}")


@main.command("serve")
@click.option("--addr", default="127.0.0.1:8080", show_default=True, help="host:port to listen on.")
@click.option("--admin-token", envvar="KONSEPTA_ADMIN_TOKEN", default="",
              help="Bearer token for POST /v1/admin/ingest (disabled when empty).")
@click.option("--weights", "weights_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file overriding disambiguation weights.")
@click.pass_obj
def serve_cmd(env: CliEnv, addr: str, admin_token: str, weights_path) -> None:
    """Run the HTTP JSON API over the loaded dataset."""
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    host, _, port_raw = addr.rpartition(":")
    if not host or not port_raw.isdigit():
        click.echo(f"error: --addr must be host:port, got {addr!r}", err=True)
        sys.exit(EXIT_USAGE)
    weights = DEFAULT_WEIGHTS
    if weights_path:
        try:
            weights = load_weights(weights_path)
        except (ValueError, TypeError) as exc:
            click.echo(f"error: bad weights file: {exc}", err=True)
            sys.exit(EXIT_DATA)
    config = ApiConfig(admin_token=admin_token, weights=weights)
    store = env.store()
    click.echo(f"serving on http://{host}:{port_raw}", err=True)
    serve(store, host, int(port_raw), config)


if __name__ == "__main__":
    main()
