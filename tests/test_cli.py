import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convogen import rle
from convogen.cli import EXIT_CONFIG, EXIT_ENDPOINT, EXIT_FINDINGS, EXIT_OK, EXIT_RUNTIME, main
from convogen.metadata import record_line
from convogen.sharding import plan_shards

from conftest import PROMPTS_DIR, REPO_ROOT
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

    @pytest.mark.parametrize("select", [["--index", "1"], ["--image-id", "0001"]])
    def test_skips_non_json_lines_before_the_record(self, tmp_path, capsys, select):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("{not json\n" + record_line(rich_record(1)) + "\n")
        assert main(["tree", "--manifest", str(manifest), *select]) == EXIT_OK
        assert "fixture_0001.jpg" in capsys.readouterr().out

    def test_renders_the_tree_run_builds(self, tmp_path, capsys):
        # a mask from another grid is dropped at ingest, as in `run`
        record = rich_record(0)
        record["boxes"][0]["mask_rle"] = rle.from_bbox((1, 1, 4, 4), 64, 48)
        record["boxes"][1]["mask_rle"] = rle.from_bbox((200, 100, 80, 120), 640, 480)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(record_line(record) + "\n")
        assert main(["tree", "--manifest", str(manifest), "--index", "0"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "lamp" in captured.out and "chair" in captured.out
        assert "invalid mask on box 'lamp', mask dropped" in captured.err


    @pytest.mark.parametrize("select", [["--index", "1"], ["--image-id", "0001"]])
    def test_record_ingest_rejects_exits_two_naming_the_line(self, tmp_path, capsys, select):
        manifest = write_bad_lines_manifest(tmp_path / "m.jsonl")  # line 2: bbox null
        assert main(["tree", "--manifest", str(manifest), *select]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(manifest) in err and "line 2" in err


def write_bad_input(tmp_path, flag: str, kind: str) -> Path:
    """The file for ``flag`` with one fault after a valid line 1: a non-JSON
    line 2, an unknown program on line 2, or no file at all."""
    path = tmp_path / f"{kind}.jsonl"
    if flag == "--id-map":
        valid = {"dataset": "fixture", "image_id": "0000", "canonical_id": "x"}
    else:
        valid = {"pattern": "x", "response": "y"}
    bad = {
        "non-json": "{not json",
        "unknown-program": json.dumps({"pattern": ".", "program": "no-such-program"}),
    }
    if kind in bad:
        path.write_text(json.dumps(valid) + "\n" + bad[kind] + "\n")
    return path


class TestInputFileFaults:
    """A fault in an input file named on the command line is exit 2 with a
    message naming the file (and the line), before any image runs."""

    @pytest.mark.parametrize(
        "command, flag, kind",
        [
            ("ingest", "--id-map", "non-json"),
            ("ingest", "--id-map", "missing"),
            ("plan", "--id-map", "non-json"),
            ("plan", "--id-map", "missing"),
            ("plan", "--manifest", "missing"),
            ("run", "--scripted-fixtures", "non-json"),
            ("run", "--scripted-fixtures", "unknown-program"),
            ("run", "--scripted-fixtures", "missing"),
            ("validate", "--manifest", "missing"),
            ("tree", "--manifest", "missing"),
        ],
    )
    def test_exits_two_naming_the_file(self, tmp_path, capsys, command, flag, kind):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 2)
        bad = str(write_bad_input(tmp_path, flag, kind))
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([{"dataset_id": "fixture", "manifest_path": str(manifest)}]))
        args = {
            "ingest": ["--registry", str(registry), "--out", str(tmp_path / "grouped.jsonl")],
            "plan": ["--manifest", str(manifest), "--shards", "1",
                     "--out-dir", str(tmp_path / "shards")],
            "run": ["--config", str(write_config(tmp_path, manifest))],
            "validate": [],
            "tree": ["--index", "0"],
        }[command]
        if command == "run":
            plan_shards(manifest, 1, tmp_path / "shards")
        if flag in args:
            args[args.index(flag) + 1] = bad
        else:
            args += [flag, bad]
        assert main([command, *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert bad in err
        if kind != "missing":
            assert "line 2" in err
        assert not list(tmp_path.glob("shards/*.claim.*"))


class TestRun:
    def test_missing_config_exits_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_config_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("5")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "must be a JSON object" in capsys.readouterr().err

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
        "body, entry",
        [
            ("{context} {mystery}", 1.0),
            ("no facts here", 1.0),
            ("{context}", 0.0),
            ("{context}", {"weight": 1.0, "requires": "tree"}),
            ("{context}", {"weight": 1.0, "requires": ["trees"]}),
            ("{context}", {"weigth": 5, "requries": ["tree"]}),
        ],
        ids=["unknown-placeholder", "no-context", "zero-weight", "requires-string",
             "unknown-origin", "misspelt-keys"],
    )
    def test_bad_prompt_set_exits_two_before_any_image(self, tmp_path, body, entry):
        from convogen.sharding import plan_shards

        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        prompts = tmp_path / "prompts" / "bad"
        prompts.mkdir(parents=True)
        (prompts / "turn.txt").write_text(body, encoding="utf-8")
        (prompts / "distribution.json").write_text(json.dumps({"turn": entry}))
        config = write_config(
            tmp_path, manifest, prompts_dir=str(tmp_path / "prompts"), prompts_set="bad"
        )
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert not list((tmp_path / "shards").glob("*.claim.*"))

    @pytest.mark.parametrize(
        "section", [{"generation": None}, {"gateway": 5}, {"features": []}],
        ids=["generation-null", "gateway-number", "features-list"],
    )
    def test_section_not_an_object_exits_two(self, tmp_path, capsys, section):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, manifest, **section)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert "must be a JSON object" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "setting", [{"temperature": -1}, {"max_tokens": 0}], ids=["temperature", "max-tokens"]
    )
    def test_bad_gateway_setting_exits_two_before_any_image(self, tmp_path, setting):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, manifest, gateway={"mode": "scripted", **setting})
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert not list((tmp_path / "shards").glob("*.claim.*"))

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

    def test_run_imports_no_third_party_http_client(self, tmp_path):
        # the gateway is on http.client; a fresh interpreter shows what a
        # whole run imports
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 2)
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, manifest)
        code = (
            "import sys\n"
            "from convogen.cli import main\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))\n"
        )
        env = dict(os.environ)
        paths = (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

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

    @pytest.mark.parametrize(
        "entry",
        [
            {"manifest_path": "a.jsonl"},
            {"dataset_id": "fixture", "manifest_path": "a.jsonl", "kind": "mixed"},
            {"dataset_id": "fixture", "manifest_path": "a.jsonl", "link_namspace": "coco"},
            5,
            None,
        ],
        ids=["no-dataset-id", "kind", "misspelt-key", "number", "null"],
    )
    def test_bad_registry_entry_exits_two(self, tmp_path, capsys, entry):
        (tmp_path / "a.jsonl").write_text(record_line(rich_record(0)) + "\n")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([entry]))
        out = tmp_path / "grouped.jsonl"
        assert main(["ingest", "--registry", str(registry), "--out", str(out)]) == EXIT_CONFIG
        assert str(registry) in capsys.readouterr().err
        assert not out.exists()
