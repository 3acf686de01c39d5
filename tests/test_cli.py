import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import konsepta
from konsepta.api import dispatch, serialize_body
from konsepta.cli import main
from konsepta.ingest import SCHEMA_VERSION, export_dataset, write_bundle


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestVersion:
    def test_version_without_installed_metadata(self, runner):
        # The version comes from the package itself, so a source checkout reports it too.
        result = run(runner, ["--version"])
        assert result.exit_code == 0
        assert result.output.endswith(f", version {konsepta.__version__}\n")

    def test_version_matches_pyproject(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE) == [konsepta.__version__]


class TestSearch:
    def test_two_rows(self, runner):
        result = run(runner, ["search", "--lemma", "hruška"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("jedlo/ovocie/hruška")
        assert lines[1].startswith("rastlina/strom/hruška")

    def test_no_results_exits_one(self, runner):
        result = run(runner, ["search", "--lemma", "xyzzy"])
        assert result.exit_code == 1

    def test_gender_filters_disjoint(self, runner):
        masculine = run(runner, ["search", "--lemma", "zver", "--gender", "m"]).output
        feminine = run(runner, ["search", "--lemma", "zver", "--gender", "f"]).output
        assert masculine.strip() and feminine.strip()
        assert set(masculine.splitlines()).isdisjoint(feminine.splitlines())

    def test_usage_error_exit_two(self, runner):
        result = runner.invoke(main, ["search"])
        assert result.exit_code == 2

    def test_bad_value_exit_two(self, runner):
        result = runner.invoke(main, ["search", "--lemma", "x", "--gender", "q"])
        assert result.exit_code == 2


class TestGet:
    def test_found(self, runner):
        result = run(runner, ["get", "rastlina/strom/hruška"])
        assert result.exit_code == 0
        assert "rastlina/strom/hruška" in result.output

    def test_not_found_exit_one_no_traceback(self, runner):
        result = runner.invoke(main, ["get", "nonexistent/key"])
        assert result.exit_code == 1
        assert "Traceback" not in result.stderr
        assert "error:" in result.stderr
        assert result.stdout == ""


class TestAnalogy:
    def test_queen_first(self, runner):
        result = run(
            runner,
            ["analogy", "človek/muž", "človek/panovník/kráľ", "človek/žena"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0].startswith("1. človek/panovník/kráľovná")

    def test_no_premise_path_exit_one(self, runner):
        result = runner.invoke(main, ["analogy", "človek/muž", "človek/muž", "človek/žena"])
        assert result.exit_code == 1


class TestJsonEqualsApi:
    @pytest.mark.parametrize(
        "args,target",
        [
            (["get", "rastlina/strom/hruška", "--json"],
             "/v1/concepts/rastlina%2Fstrom%2Fhru%C5%A1ka"),
            (["search", "--lemma", "hruška", "--json"],
             "/v1/search?lemma=hru%C5%A1ka"),
            (["search", "--lemma", "zver", "--gender", "f", "--json"],
             "/v1/search?lemma=zver&gender=f"),
            (["relations", "meno/Miro", "--type", "diminutive", "--direction", "outgoing", "--json"],
             "/v1/concepts/meno%2FMiro/relations?type=diminutive&direction=outgoing"),
            (["graph", "--seed", "miesto/mesto/Bratislava", "--depth", "1", "--json"],
             "/v1/graph?seed=miesto%2Fmesto%2FBratislava&depth=1"),
            (["analogy", "človek/muž", "človek/panovník/kráľ", "človek/žena", "--json"],
             "/v1/analogy?a1=%C4%8Dlovek%2Fmu%C5%BE&b1=%C4%8Dlovek%2Fpanovn%C3%ADk%2Fkr%C3%A1%C4%BE&a2=%C4%8Dlovek%2F%C5%BEena&k=10&max_len=2"),
            (["stats", "--json"], "/v1/stats"),
        ],
    )
    def test_body_bytes_equal(self, runner, store, args, target):
        result = run(runner, args)
        _status, payload = dispatch(store, "GET", target)
        assert result.output.encode("utf-8") == serialize_body(payload)

    def test_extract_json_equals_api(self, runner, store):
        result = run(runner, ["extract", "--json"], input="jablko a hruška")
        body = json.dumps({"text": "jablko a hruška"}, ensure_ascii=False).encode()
        _status, payload = dispatch(store, "POST", "/v1/extract", body)
        assert result.output.encode("utf-8") == serialize_body(payload)


class TestExtractCommand:
    def test_stdin(self, runner):
        result = run(runner, ["extract"], input="2 + 2")
        assert result.exit_code == 0
        assert "symbol/plus" in result.output

    def test_file(self, runner, tmp_path):
        path = tmp_path / "text.txt"
        path.write_text("vysoká škola", encoding="utf-8")
        result = run(runner, ["extract", "--file", str(path)])
        assert "veda/škola/vysoká škola" in result.output


class TestIngestExport:
    def test_ingest_fixture_exit_zero(self, runner, tmp_path, store):
        out = tmp_path / "bundle"
        write_bundle(out, export_dataset(store.snapshot()))
        result = run(runner, ["ingest", str(out)])
        assert result.exit_code == 0
        assert "rejected" in result.output

    def test_ingest_with_rejections_exit_three(self, runner, tmp_path):
        bundle_dir = tmp_path / "bad"
        bundle_dir.mkdir()
        (bundle_dir / "taxonomy.tsv").write_text(
            f"{SCHEMA_VERSION}\ttaxonomy\nvec\nchýba/rodič\n", encoding="utf-8"
        )
        result = run(runner, ["ingest", str(bundle_dir)])
        assert result.exit_code == 3

    def test_ingest_bad_header_exit_three(self, runner, tmp_path):
        bundle_dir = tmp_path / "bad2"
        bundle_dir.mkdir()
        (bundle_dir / "taxonomy.tsv").write_text("garbage\n", encoding="utf-8")
        result = run(runner, ["ingest", str(bundle_dir)])
        assert result.exit_code == 3

    def test_export_round_trip(self, runner, tmp_path, store):
        out = tmp_path / "exported"
        result = run(runner, ["export", str(out)])
        assert result.exit_code == 0
        again = run(runner, ["--data", str(out), "search", "--lemma", "hruška"])
        assert again.exit_code == 0
        assert len(again.output.strip().splitlines()) == 2

    def test_data_option_with_missing_dir_exit_three(self, runner, tmp_path):
        result = runner.invoke(main, ["--data", str(tmp_path / "void"), "stats"])
        assert result.exit_code == 3


class TestGraphCommand:
    def test_graphtext_format(self, runner):
        result = run(
            runner,
            ["graph", "--seed", "miesto/mesto/Bratislava", "--depth", "1", "--format", "graphtext"],
        )
        assert result.exit_code == 0
        assert result.output.startswith("digraph konsepta {")
        assert '"miesto/mesto/Bratislava"' in result.output

    def test_unknown_seed_exit_one(self, runner):
        result = runner.invoke(main, ["graph", "--seed", "meno/Nikto"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "args,exit_code",
        [
            (["--seed", "meno/Nikto"], 1),
            (["--seed", "miesto/mesto/Bratislava", "--types", ","], 2),
            (["--seed", "Bratislava"], 2),
        ],
    )
    def test_graphtext_errors_match_records(self, runner, args, exit_code):
        records = runner.invoke(main, ["graph", *args, "--format", "records"])
        graphtext = runner.invoke(main, ["graph", *args, "--format", "graphtext"])
        message = json.loads(records.stdout)["error"]["message"]
        assert records.exit_code == graphtext.exit_code == exit_code
        assert graphtext.stderr == f"error: {message}\n"
        assert graphtext.stdout == ""


class TestStatsCommand:
    def test_human_output(self, runner):
        result = run(runner, ["stats"])
        assert result.exit_code == 0
        assert "concepts:   60" in result.output


class TestWeightsFile:
    def test_overrides_applied(self, tmp_path):
        from konsepta.cli import load_weights

        path = tmp_path / "weights.json"
        path.write_text('{"context": 0.5, "lemma": 0.1}', encoding="utf-8")
        weights = load_weights(path)
        assert weights.context == 0.5
        assert weights.lemma == 0.1
        assert weights.surface == 0.4  # untouched default

    def test_unknown_field_rejected(self, tmp_path):
        from konsepta.cli import load_weights

        path = tmp_path / "weights.json"
        path.write_text('{"charisma": 1.0}', encoding="utf-8")
        with pytest.raises(TypeError):
            load_weights(path)

    @pytest.mark.parametrize("value", ['"0.2"', "true", "null", "NaN", "Infinity", "-Infinity", "[0.2]"])
    def test_non_numeric_value_rejected(self, tmp_path, value):
        from konsepta.cli import load_weights

        path = tmp_path / "weights.json"
        path.write_text(f'{{"lemma": {value}}}', encoding="utf-8")
        with pytest.raises(ValueError, match="'lemma'"):
            load_weights(path)

    def test_integer_value_accepted(self, tmp_path):
        from konsepta.cli import load_weights

        path = tmp_path / "weights.json"
        path.write_text('{"context": 0, "lemma": -1}', encoding="utf-8")
        weights = load_weights(path)
        assert (weights.context, weights.lemma) == (0, -1)

    def test_serve_refuses_bad_value(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("konsepta.cli.serve", lambda *args: pytest.fail("served with bad weights"))
        path = tmp_path / "weights.json"
        path.write_text('{"lemma": "0.2"}', encoding="utf-8")
        result = run(runner, ["serve", "--addr", "127.0.0.1:0", "--weights", str(path)])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: bad weights file: weight 'lemma'")
