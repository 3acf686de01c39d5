"""Self-test of the benchmark at a tiny scale.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import scale_bundle  # noqa: E402
import workloads  # noqa: E402
from server import TOKEN, Client, Request, Server  # noqa: E402

from konsepta import DatasetBundle, Store, load_dataset  # noqa: E402
from konsepta.api import ApiConfig, dispatch, serialize_body  # noqa: E402

TINY = 400
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_store(seed: int = 3):
    data = scale_bundle.generate(seed, TINY, 2 * TINY)
    store = Store()
    report = load_dataset(DatasetBundle.from_texts(data.texts), store)
    return data, store, report


def _reply(store, req: Request) -> bytes:
    status, payload = dispatch(store, req.method, req.target, req.body, ApiConfig(admin_token=TOKEN),
                               {"Authorization": f"Bearer {TOKEN}"})
    assert status == 200
    return serialize_body(payload)


def _corrupted(req: Request, store, change) -> bytes:
    payload = json.loads(_reply(store, req))
    change(payload)
    return json.dumps(payload).encode()


def test_scale_bundle_is_deterministic_and_loads_cleanly():
    data, store, report = _tiny_store()
    assert scale_bundle.generate(3, TINY, 2 * TINY).texts == data.texts
    assert scale_bundle.generate(4, TINY, 2 * TINY).texts != data.texts
    assert report.rejected == 0
    stats = store.snapshot().stats()
    assert (stats.concepts, stats.relations) == (len(data.keys), data.edge_count)
    assert data.mwe and data.glyph and any(len(keys) == 2 for keys in data.by_lemma.values())


def test_recorded_fixture_replies_match_the_in_process_dispatcher(tmp_path):
    workloads.record_expected(tmp_path / "expected.json")
    assert (tmp_path / "expected.json").read_bytes() == workloads.EXPECTED_FILE.read_bytes()


def test_scale_checks_accept_the_program_and_reject_corrupted_replies():
    data, store, _report = _tiny_store()
    checks = workloads.ScaleChecks(data)
    rng = random.Random(5)
    for _ in range(30):
        for kind in workloads.KIND_CLASS:
            req = checks.pick(rng, kind, (200, 600))
            assert req.check(_reply(store, req)), (kind, req.target)
    for req in itertools.islice(checks.writer(rng, (200, 600)), 40):
        assert req.check(_reply(store, req)), (req.kind, req.target)

    graph = checks.graph(rng, 1)
    assert not graph.check(_corrupted(graph, store, lambda p: p["graph"]["nodes"].pop()))

    analogy = next(a for a in (checks.analogy(rng) for _ in range(200)) if json.loads(_reply(store, a))["results"])
    assert not analogy.check(_corrupted(analogy, store, lambda p: p["results"].clear()))
    assert not analogy.check(_corrupted(analogy, store, lambda p: p["results"].pop()))

    text = checks.extract(rng, 600)
    assert not text.check(_corrupted(text, store, lambda p: p["annotations"].pop(0)))

    def swap_senses(payload):
        ann = next(a for a in payload["annotations"] if len(a["candidates"]) == 2)
        ann["candidates"].reverse()
        ann["chosen"] = ann["candidates"][0]["key"]

    two_senses = next(t for t in (checks.extract(rng, 2000) for _ in range(50))
                      if any(len(a["candidates"]) == 2 for a in json.loads(_reply(store, t))["annotations"]))
    assert not two_senses.check(_corrupted(two_senses, store, swap_senses))


def test_failed_check_counts_as_failure(tmp_path):
    plan = workloads.make_plan("fixture-mix", 1, tmp_path)
    good = next(plan.stream())
    corrupted = Request(good.cls, good.kind, good.method, good.target, good.body,
                        lambda body: good.check(body.replace(b"konsepta/v1", b"konsepta/v2")))
    with Server(plan.data_dir, tmp_path, plan.ready) as srv:
        srv.start()
        client = Client(srv.port)
        ok, bad = client.send(good), client.send(corrupted)
        client.close()
        srv.stop()
    assert ok.ok and not bad.ok


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean_and_reports_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SCALE_CONCEPTS", TINY)
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "2", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
