"""konsepta benchmark: HTTP round-trip latency per request class, and a traced run per layer.

Usage:

    python3 perfbench/run.py --workload fixture-mix --seed 1 --seconds 15 --trace 0

It starts ``konsepta serve`` from ``src/`` as a child process and drives it
over one keep-alive connection in a closed loop: the next request goes out
when the previous reply has arrived and been checked, after a think time of
at most one kernel tick.

``--trace 0`` measures one server for ``--seconds``, in five slices;
between slices another server is launched and stopped, and ``setup_s`` is
the median launch-to-first-correct-reply time of all five launches, spread
over the run.  ``--trace 1`` measures an untraced server for half the
window and a traced one for the other half (their throughput ratio is the
tracing overhead), then sends extraction probes of 1k, 10k and 40k
characters to the traced server, three times each, and reports the
per-layer numbers (medians where a metric has several samples).

The last line of standard output is the result object; the line before it
records the environment, the sample count behind every metric and the share
of the client's waiting time each request class took.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import mean, median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402
from server import Client, Request, Server  # noqa: E402
from spans import Trace  # noqa: E402

SLICES = 5
PROBE_REPEATS = 3
LATENCY_CLASSES = ("lookup", "graph", "extract")
CLASSES = LATENCY_CLASSES + ("ingest",)
UPSERT_PHASES = (("concepts", "store.upsert_concept"), ("forms", "store.upsert_form"),
                 ("relations", "store.upsert_relation"))


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[-1]


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(), "git_sha": sha,
            "seed": seed, "src_lines": src_lines}


class Run:
    """One benchmark invocation: a plan, a scratch directory and the results."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path) -> None:
        self.workdir = workdir
        self.plan = workloads.make_plan(workload, seed, workdir)
        self.seconds = seconds
        self.samples = []

    def _server(self, trace_file: Path | None = None) -> Server:
        return Server(self.plan.data_dir, self.workdir, self.plan.ready, trace_file)

    def _client(self, srv: Server) -> Client:
        """A client on a started server, its connection warmed up."""
        client = Client(srv.port)
        warmup = Request("warmup", "stats", "GET", "/v1/stats", None, self.plan.ready)
        for _ in range(2):
            client.send(warmup)
        client.samples.clear()
        return client

    def _measure(self, srv: Server, seconds: float) -> tuple[Client, list, float]:
        """Closed loop against a started server; returns the client, its samples and throughput."""
        client = self._client(srv)
        elapsed = client.closed_loop(self.plan.stream(), seconds)
        return client, list(client.samples), sum(s.ok for s in client.samples) / elapsed

    def untraced(self) -> tuple[dict, dict]:
        setups = []
        with self._server() as srv:
            setups.append(srv.start())
            client = self._client(srv)
            stream = self.plan.stream()
            elapsed = 0.0
            for i in range(SLICES):
                if i:
                    with self._server() as extra:
                        setups.append(extra.start())
                        extra.stop()
                elapsed += client.closed_loop(stream, self.seconds / SLICES)
            client.close()
            maxrss_kb = srv.stop()
        window = self.samples = list(client.samples)
        ok = [s for s in window if s.ok]
        metrics, counts = {}, {}
        for cls in CLASSES:
            values = [s.ms for s in ok if s.cls == cls]
            counts[cls] = len(values)
            if not values:
                continue
            if cls in LATENCY_CLASSES:
                metrics[f"{cls}_p50_ms"] = (median(values), "ms")
                metrics[f"{cls}_p90_ms"] = (p90(values), "ms")
            else:
                # Writes at scale take one of two times, as a full garbage
                # collection runs in about half of them or not.  A median
                # flips between the two; the mean moves with their share.
                metrics[f"{cls}_mean_ms"] = (mean(values), "ms")
        metrics["throughput_rps"] = (len(ok) / elapsed, "req/s")
        metrics["rss_mb"] = (maxrss_kb / 1024, "MB")
        metrics["setup_s"] = (median(setups), "s")
        counts["setup"] = len(setups)
        return metrics, counts

    def traced(self) -> tuple[dict, dict]:
        with self._server() as srv:
            srv.start()
            client, plain, plain_rps = self._measure(srv, self.seconds / 2)
            client.close()
            srv.stop()
        trace_file = self.workdir / "spans.json"
        with self._server(trace_file) as srv:
            srv.start()
            client, window, traced_rps = self._measure(srv, self.seconds / 2)
            probes = [client.send(req) for req in self.plan.probes for _ in range(PROBE_REPEATS)]
            client.close()
            srv.stop()
        self.samples = plain + window + probes
        trace = Trace(str(trace_file))
        metrics, counts = layer_metrics(trace, [s for s in window if s.ok], probes, self.plan.key_records)
        metrics["trace.overhead_pct"] = ((plain_rps - traced_rps) / plain_rps * 100, "%")
        counts["trace.overhead_pct"] = len(plain) + len(window)
        return metrics, counts


def wall_share(samples) -> dict[str, float]:
    """Share of the client's waiting time each request class takes."""
    total = sum(s.ms for s in samples) or 1.0
    return {cls: round(sum(s.ms for s in samples if s.cls == cls) / total, 4)
            for cls in sorted({s.cls for s in samples})}


def layer_metrics(trace, window, probes, key_records: int) -> tuple[dict, dict]:
    """Per-layer numbers from the traced window, the probes and the traced start-up."""
    metrics: dict[str, tuple[float, str]] = {}
    counts: dict[str, int] = {}

    def put(name: str, values: list[float], unit: str, scale: float = 1.0) -> None:
        if values:
            metrics[name] = (median(values) * scale, unit)
            counts[name] = len(values)

    def per(name: str, span: str, rids: list[int]) -> None:
        if rids:
            metrics[name] = (trace.count(span, rids) / len(rids), "count")
            counts[name] = len(rids)

    def rids(pred) -> list[int]:
        return [s.rid for s in window if pred(s)]

    served = [s for s in window if ("api.dispatch", s.rid) in trace.spans]
    put("api.transport_ms", [s.ms - 1000 * (trace.total("api.dispatch", s.rid)
                                            + trace.total("api.serialize_body", s.rid)) for s in served], "ms")
    for cls in CLASSES:
        put(f"api.dispatch_ms.{cls}", trace.durations("api.dispatch", rids(lambda s: s.cls == cls)), "ms", 1000)
        put(f"api.response_kb.{cls}", [s.size / 1024 for s in window if s.cls == cls], "KiB")
    put("api.serialize_ms", trace.durations("api.serialize_body", [s.rid for s in window]), "ms", 1000)
    per("api.forms_examined_per_concept_view", "api.form_matches_concept",
        rids(lambda s: s.cls == "lookup" and s.kind == "concept"))

    writes = rids(lambda s: s.cls == "ingest")
    put("store.clone_ms", trace.durations("store.clone", writes), "ms", 1000)
    put("store.freeze_ms", trace.durations("store.freeze", writes), "ms", 1000)
    graphs = rids(lambda s: s.kind in ("graph1", "graph2"))
    put("store.edges_ms", trace.durations("store.edges", graphs), "ms", 1000)
    per("store.edges_examined_per_graph", "store.edges.items", graphs)
    per("store.as_read_neighbors_calls_per_graph", "store.as_read_neighbors", graphs)
    put("semantics.semantic_network_ms", trace.durations("semantics.semantic_network", graphs, self_time=True),
        "ms", 1000)
    put("semantics.solve_analogy_ms",
        trace.durations("semantics.solve_analogy", rids(lambda s: s.kind == "analogy")), "ms", 1000)

    probe_rids: dict[str, list[int]] = {}
    for probe in probes:
        if probe.ok:
            probe_rids.setdefault(probe.kind, []).append(probe.rid)
    for size, rid in probe_rids.items():
        put(f"extract.tokenize_ms.{size}", trace.durations("extract.tokenize", rid), "ms", 1000)
        put(f"extract.match_ms.{size}", trace.durations("extract.extract", rid, self_time=True), "ms", 1000)
        put(f"extract.disambiguate_ms.{size}", trace.durations("extract.disambiguate", rid), "ms", 1000)
        per(f"extract.lemma_candidates_calls.{size}", "extract.lemma_candidates", rid)
        per(f"extract.tokens.{size}", "extract.tokenize.items", rid)
        per(f"extract.annotations.{size}", "extract.disambiguate.items", rid)

    for name, span, self_time in (("parse_s", "ingest.read_dir", False), ("load_s", "ingest.load_dataset", False),
                                  ("validate_s", "ingest.validate_record", True), ("decode_s", "ingest.decode", False)):
        metrics[f"ingest.{name}"] = (trace.total(span, 0, self_time), "s")
        counts[f"ingest.{name}"] = len(trace.spans.get((span, 0), ()))
    for phase, span in UPSERT_PHASES:
        metrics[f"ingest.upsert_s.{phase}"] = (trace.total(span, 0), "s")
        counts[f"ingest.upsert_s.{phase}"] = len(trace.spans.get((span, 0), ()))
    metrics["ingest.parse_concept_key_per_record"] = (trace.count("ingest.parse_concept_key", [0]) / key_records,
                                                      "count")
    counts["ingest.parse_concept_key_per_record"] = key_records
    return metrics, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.TEXT_CHARS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "konsepta" / "__init__.py").is_file():
        print(f"perfbench: konsepta sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir)
        metrics, counts = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.samples)
    failed = sum(not s.ok for s in run.samples)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "samples": counts,
              "wall_share": wall_share([s for s in run.samples if s.cls != "probe"]),
              "error_rate": failed / attempted if attempted else 1.0}
    print(json.dumps(report))
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
