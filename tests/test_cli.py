import json
from pathlib import Path

import pytest

from convogen.cli import EXIT_CONFIG, EXIT_ENDPOINT, EXIT_FINDINGS, EXIT_OK, EXIT_RUNTIME, main
from convogen.metadata import record_line

from conftest import PROMPTS_DIR
from test_pipeline import rich_record, write_fixture_manifest


def write_config(tmp_path, manifest, **overrides) -> Path:
    data = {
        "manifest_path": str(manifest),
        "output_dir": str(tmp_path / "out"),
        "prompts_dir": str(PROMPTS_DIR),
        "prompts_set": "staged_min",
        "shard_dir": str(tmp_path / "shards"),
        "parallelism": 2,
        "gateway": {"mode": "scripted", "backoff_base_ms": 1},
        "features": {"filtering": True, "bbox_conversion": True, "reduction": True},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestValidate:
    def test_clean_manifest_exit_zero(self, tmp_path, capsys):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 3)
        assert main(["validate", "--manifest", str(manifest)]) == EXIT_OK
        assert "0 problems" in capsys.readouterr().out

    def test_problems_exit_one(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        lines = [record_line(rich_record(1)), "un-parseable line", record_line(rich_record(1))]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "duplicate" in out


def write_bad_lines_manifest(path: Path) -> Path:
    """Two good records around a ``bbox: null`` record and a non-JSON line
    (lines 2 and 3)."""
    null_bbox = rich_record(1)
    null_bbox["boxes"][0]["bbox"] = None
    lines = [rich_record(0), null_bbox, "{not json", rich_record(2)]
    path.write_text(
        "".join((r if isinstance(r, str) else record_line(r)) + "\n" for r in lines),
        encoding="utf-8",
    )
    return path


class TestBadLines:
    def test_validate_reports_each_bad_line(self, tmp_path, capsys):
        manifest = write_bad_lines_manifest(tmp_path / "m.jsonl")
        assert main(["validate", "--manifest", str(manifest)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "checked 2 records: 2 problems" in out
        assert "'line': 2" in out and "'line': 3" in out

    def test_plan_skips_and_reports_unparseable_lines(self, tmp_path, capsys):
        manifest = write_bad_lines_manifest(tmp_path / "m.jsonl")
        assert main(["plan", "--manifest", str(manifest), "--shards", "1",
                     "--out-dir", str(tmp_path / "shards")]) == EXIT_OK
        out = capsys.readouterr().out
        # the null bbox is a fault of its image, left to the run
        assert "over 3 records" in out
        assert "skipped 1 unparseable lines: 3" in out


class TestTree:
    def test_renders_record(self, tmp_path, capsys):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 2)
        assert main(["tree", "--manifest", str(manifest), "--index", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lamp" in out and "center=" in out

    def test_missing_record(self, tmp_path):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        assert main(["tree", "--manifest", str(manifest), "--index", "9"]) == EXIT_CONFIG


class TestRun:
    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_unknown_config_key_exits_two(self, tmp_path):
        # the shards exist, so the unknown key is all that is wrong here
        from convogen.sharding import plan_shards

        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        path = write_config(tmp_path, manifest)
        data = json.loads(path.read_text())
        data["surprise"] = 1
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key",
        ["registry_path", "id_map_path", "shard_count", "simulated_sidecar_ms",
         "conversion_prompts_dir"],
    )
    def test_removed_config_keys_exit_two(self, tmp_path, key):
        # registry, id map and shard count belong to ingest and plan, not
        # run, the pipeline has no sidecar stand-in, and the conversion
        # prompts are fixed; the shards exist, so the key is all that is
        # wrong here
        from convogen.sharding import plan_shards

        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        path = write_config(tmp_path, manifest)
        data = json.loads(path.read_text())
        data[key] = str(manifest) if key.endswith("_path") else 1
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_quality_filter_key_exits_two(self, tmp_path):
        # the filter is switched by features.filtering alone
        from convogen.sharding import plan_shards

        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, manifest, generation={"quality_filter": True})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "body, weight",
        [("{context} {mystery}", 1.0), ("no facts here", 1.0), ("{context}", 0.0)],
        ids=["unknown-placeholder", "no-context", "zero-weight"],
    )
    def test_bad_prompt_set_exits_two_before_any_image(self, tmp_path, body, weight):
        from convogen.sharding import plan_shards

        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        prompts = tmp_path / "prompts" / "bad"
        prompts.mkdir(parents=True)
        (prompts / "turn.txt").write_text(body, encoding="utf-8")
        (prompts / "distribution.json").write_text(json.dumps({"turn": weight}))
        config = write_config(
            tmp_path, manifest, prompts_dir=str(tmp_path / "prompts"), prompts_set="bad"
        )
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert not list((tmp_path / "shards").glob("*.claim.*"))

    def test_every_call_rejected_exits_four(self, tmp_path, capsys):
        # a systematic fault (say, a wrong model name answered with 400)
        # costs every image, and a run with no conversation is no success
        from convogen.sharding import plan_shards

        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 3)
        plan_shards(manifest, 1, tmp_path / "shards")
        fixtures = tmp_path / "reject.jsonl"
        fixtures.write_text(json.dumps({"pattern": ".", "status": 400}) + "\n")
        config = write_config(tmp_path, manifest)
        assert main(["run", "--config", str(config),
                     "--scripted-fixtures", str(fixtures)]) == EXIT_RUNTIME
        assert "0 conversations from 3 images" in capsys.readouterr().out
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "errors.jsonl").read_text().splitlines()]
        assert [row["error"] for row in rows] == ["ProtocolError"] * 3
        claim = json.loads((tmp_path / "shards" / "shard_00000.json.claim.1").read_text())
        assert claim["released"] is True

    def test_unreachable_live_endpoint_exits_three(self, tmp_path):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        from convogen.sharding import plan_shards

        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(
            tmp_path,
            manifest,
            gateway={"mode": "live", "endpoint_url": "http://127.0.0.1:9"},
        )
        assert main(["run", "--config", str(config)]) == EXIT_ENDPOINT

    def test_scripted_run_end_to_end(self, tmp_path, capsys):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 4)
        config = write_config(tmp_path, manifest)
        assert main(["plan", "--manifest", str(manifest), "--shards", "1",
                     "--out-dir", str(tmp_path / "shards")]) == EXIT_OK
        assert main(["run", "--config", str(config), "--worker-id", "cli-w"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4 conversations" in out

    def test_feature_flag_override(self, tmp_path):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 2)
        config = write_config(tmp_path, manifest, prompts_set="direct_min")
        main(["plan", "--manifest", str(manifest), "--shards", "1",
              "--out-dir", str(tmp_path / "shards")])
        assert main(["run", "--config", str(config), "--features", ""]) == EXIT_OK
        line = json.loads(
            (tmp_path / "out" / "conversations_shard_00000.jsonl").read_text().splitlines()[0]
        )
        prov = line["provenance"]
        assert prov["context_chars_final"] == prov["context_chars_initial"]


class TestIngest:
    def test_ingest_groups_across_datasets(self, tmp_path, capsys):
        rec_a = rich_record(0)
        rec_b = {
            "dataset": "other",
            "image_id": "zz",
            "uri": "elsewhere/FIXTURE_0000.JPG",  # same stem as fixture_0000
            "width": 640,
            "height": 480,
            "captions": [{"text": "An overlapping dataset caption.", "source": "other"}],
            "boxes": [],
            "qas": [],
        }
        (tmp_path / "a.jsonl").write_text(record_line(rec_a) + "\n")
        (tmp_path / "b.jsonl").write_text(record_line(rec_b) + "\n")
        registry = tmp_path / "registry.json"
        registry.write_text(
            json.dumps(
                [
                    {"dataset_id": "fixture", "manifest_path": str(tmp_path / "a.jsonl")},
                    {"dataset_id": "other", "manifest_path": str(tmp_path / "b.jsonl")},
                ]
            )
        )
        out = tmp_path / "grouped.jsonl"
        assert main(["ingest", "--registry", str(registry), "--out", str(out)]) == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 1
        assert len(records[0]["captions"]) == 3  # 2 fixture + 1 other

    def test_conflicting_registry_exits_two(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(record_line(rich_record(0)) + "\n")
        (tmp_path / "b.jsonl").write_text(record_line(rich_record(1)) + "\n")
        registry = tmp_path / "registry.json"
        registry.write_text(
            json.dumps(
                [
                    {"dataset_id": "fixture", "manifest_path": str(tmp_path / "a.jsonl")},
                    {"dataset_id": "fixture", "manifest_path": str(tmp_path / "b.jsonl")},
                ]
            )
        )
        out = tmp_path / "grouped.jsonl"
        assert main(["ingest", "--registry", str(registry), "--out", str(out)]) == EXIT_CONFIG
