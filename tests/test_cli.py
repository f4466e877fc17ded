import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convogen import rle
from convogen.cli import EXIT_CONFIG, EXIT_ENDPOINT, EXIT_FINDINGS, EXIT_OK, EXIT_RUNTIME, main
from convogen.config import PipelineConfig
from convogen.ingestion import (
    group_by_image,
    link_key,
    load_id_map,
    load_manifest,
    load_registry,
    write_manifest,
)
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
    line 2, a rule on line 2 with an unknown program, no answer, a ``times``
    or a ``status`` that is not an int, an id-map row with a value that is not a
    string or is blank on line 2, or no file at all."""
    path = tmp_path / f"{kind}.jsonl"
    if flag == "--id-map":
        valid = {"dataset": "fixture", "image_id": "0000", "canonical_id": "x"}
    else:
        valid = {"pattern": "x", "response": "y"}
    bad = {
        "non-json": "{not json",
        "unknown-program": json.dumps({"pattern": ".", "program": "no-such-program"}),
        "no-answer": json.dumps({"pattern": "x"}),
        "times-not-int": json.dumps({"pattern": ".", "response": "y", "times": "2"}),
        "status-not-int": json.dumps({"pattern": ".", "responses": ["y", {"status": "x"}]}),
        "canonical-id-not-string": json.dumps(
            {"dataset": "fixture", "image_id": "0001", "canonical_id": 5}),
        "canonical-id-blank": json.dumps(
            {"dataset": "fixture", "image_id": "0001", "canonical_id": " "}),
        "image-id-not-string": json.dumps(
            {"dataset": "fixture", "image_id": 1, "canonical_id": "y"}),
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
            ("ingest", "--id-map", "canonical-id-not-string"),
            ("ingest", "--id-map", "canonical-id-blank"),
            ("plan", "--id-map", "image-id-not-string"),
            ("plan", "--id-map", "non-json"),
            ("plan", "--id-map", "missing"),
            ("plan", "--manifest", "missing"),
            ("run", "--scripted-fixtures", "non-json"),
            ("run", "--scripted-fixtures", "unknown-program"),
            ("run", "--scripted-fixtures", "no-answer"),
            ("run", "--scripted-fixtures", "times-not-int"),
            ("run", "--scripted-fixtures", "status-not-int"),
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
            ("{context}", {"weight": 1.0, "intent": "conversation"}),
        ],
        ids=["unknown-placeholder", "no-context", "zero-weight", "requires-string",
             "unknown-origin", "misspelt-keys", "intent-key"],
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

    @pytest.mark.parametrize("missing", ["prompt-set", "template", "fixtures"])
    def test_missing_file_exits_two_naming_it_before_any_claim(self, tmp_path, capsys, missing):
        # each file is checked by the code that opens it
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        prompts = tmp_path / "prompts"
        (prompts / "bare").mkdir(parents=True)
        (prompts / "bare" / "distribution.json").write_text(json.dumps({"turn": 1.0}))
        overrides, named = {
            "prompt-set": ({"prompts_set": "absent"}, prompts / "absent"),
            "template": ({"prompts_set": "bare"}, prompts / "bare" / "turn.txt"),
            "fixtures": ({"scripted_fixtures": str(tmp_path / "absent.jsonl")},
                         tmp_path / "absent.jsonl"),
        }[missing]
        if missing != "fixtures":
            overrides["prompts_dir"] = str(prompts)
        config = write_config(tmp_path, manifest, **overrides)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert str(named) in capsys.readouterr().err
        assert not list((tmp_path / "shards").glob("*.claim.*"))

    def test_manifest_path_is_not_read(self, tmp_path, capsys):
        # run reads the manifest each shard file names
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, tmp_path / "absent.jsonl")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        assert "1 conversations from 1 images" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"parallelism": "4"}, "parallelism"),
            ({"rng_seed": 1.5}, "rng_seed"),
            ({"features": {"filtering": "no"}}, "filtering"),
            ({"claim_staleness_s": 0}, "claim_staleness_s"),
            ({"parallelism": 0}, "parallelism"),
        ],
        ids=["parallelism-string", "rng-seed-float", "filtering-string", "staleness-zero",
             "parallelism-zero"],
    )
    def test_wrong_typed_value_exits_two(self, tmp_path, capsys, overrides, key):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, manifest, **overrides)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not list((tmp_path / "shards").glob("*.claim.*"))

    @pytest.mark.parametrize("key, value", [("claim_staleness_s", 0.0),
                                            ("claim_staleness_s", -1.0), ("parallelism", 0)])
    def test_a_config_built_in_code_refuses_what_a_loaded_one_does(self, key, value):
        # a staleness of 0 would refresh the claim at every wait of the committer
        with pytest.raises(ValueError, match=key):
            PipelineConfig(**{key: value})

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
        "section, key, value",
        [
            ("gateway", "temperature", -1),
            ("gateway", "max_tokens", 0),
            ("gateway", "retry_budget", -1),
            ("gateway", "backoff_base_ms", -5),
            ("gateway", "timeout_s", 0),
            ("gateway", "timeout_s", -1),
            ("generation", "max_turns", 0),
        ],
        ids=["temperature", "max-tokens", "retry-budget", "backoff-base", "timeout-zero",
             "timeout-negative", "generation-max-turns"],
    )
    def test_bad_gateway_setting_exits_two_before_any_image(self, tmp_path, capsys, section,
                                                             key, value):
        # each value would fail every model call, or run no stage at all
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        plan_shards(manifest, 1, tmp_path / "shards")
        sections = {"gateway": {"mode": "scripted"}, "generation": {}}
        sections[section][key] = value
        config = write_config(tmp_path, manifest, **sections)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not list((tmp_path / "shards").glob("*.claim.*"))

    def test_moved_shard_manifest_exits_two_and_releases_the_claim(self, tmp_path, capsys):
        # the shard names the manifest that was planned, not manifest_path
        planned = write_fixture_manifest(tmp_path / "m.jsonl", 2)
        plan_shards(planned, 1, tmp_path / "shards")
        moved = planned.rename(tmp_path / "moved.jsonl")
        config = write_config(tmp_path, moved)
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert f"cannot read manifest {planned}" in capsys.readouterr().err
        claim = json.loads((tmp_path / "shards" / "shard_00000.json.claim.1").read_text())
        assert claim["released"] is True

    def test_shards_planned_from_a_relative_manifest_run_from_any_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        # the shard file names its manifest by absolute path
        planning, elsewhere = tmp_path / "planning", tmp_path / "elsewhere"
        planning.mkdir()
        elsewhere.mkdir()
        write_fixture_manifest(planning / "m.jsonl", 3)
        monkeypatch.chdir(planning)
        assert main(["plan", "--manifest", "m.jsonl", "--shards", "1",
                     "--out-dir", str(tmp_path / "shards")]) == EXIT_OK
        conversations = {}
        for cwd in (elsewhere, planning):
            monkeypatch.chdir(cwd)
            config = write_config(cwd, planning / "m.jsonl", shard_dir=str(tmp_path / "shards"))
            assert main(["run", "--config", str(config)]) == EXIT_OK, capsys.readouterr().err
            assert "3 conversations" in capsys.readouterr().out
            conversations[cwd] = (cwd / "out" / "conversations_shard_00000.jsonl").read_bytes()
        assert conversations[elsewhere] == conversations[planning]

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
        # the gateway and the scripted model speak HTTP over the socket
        # module, and masks are intervals on tuples of ints; a fresh
        # interpreter shows what a whole scripted run imports, with the mask
        # overlap and merge of bbox conversion taking part
        manifest = tmp_path / "m.jsonl"
        lines = []
        for i in range(2):
            record = rich_record(i)
            twin = dict(record["boxes"][0], bbox=[12.0 + i, 10.0, 40.0, 40.0])
            record["boxes"].append(twin)  # merges with the first lamp
            for box in record["boxes"]:
                box["mask_rle"] = rle.from_bbox(box["bbox"], 640, 480)
            lines.append(record_line(record) + "\n")
        manifest.write_text("".join(lines), encoding="utf-8")
        plan_shards(manifest, 1, tmp_path / "shards")
        config = write_config(tmp_path, manifest)
        code = (
            "import sys\n"
            "from convogen import rle\n"
            "from convogen.cli import main\n"
            "calls = set()\n"
            "for name in ('overlap', 'union'):\n"
            "    real = getattr(rle, name)\n"
            "    setattr(rle, name, lambda *a, real=real, name=name: calls.add(name) or real(*a))\n"
            f"assert main(['run', '--config', {str(config)!r}]) == 0\n"
            "print(sorted(calls), sorted(m for m in ('numpy', 'requests', 'urllib3', 'http.server',\n"
            "                                         'http.client', 'email.parser')\n"
            "                            if m in sys.modules))\n"
        )
        env = dict(os.environ)
        paths = (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "['overlap', 'union'] []"

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

    def test_plan_agrees_with_ingest_on_link_keys(self, tmp_path):
        # A and B link by file stem, C by its own image ids; an id-map entry
        # links A's image 7 to B's "shared" stem
        def record(dataset, image_id, uri):
            caption = {"text": f"Caption of {dataset}/{image_id}.", "source": dataset}
            return {"dataset": dataset, "image_id": image_id, "uri": uri, "width": 64,
                    "height": 48, "captions": [caption], "boxes": [], "qas": []}

        corpus = {
            "A": [record("A", "7", "a/renamed.jpg"), record("A", "8", "a/only_a.jpg")],
            "B": [record("B", "1", "b/SHARED.jpg"), record("B", "2", "b/only_a.jpg")],
            "C": [record("C", "X42", "c/x.jpg"), record("C", "x42", "c/y.jpg"),
                  record("C", "43", "c/only_a.jpg")],
        }
        entries = []
        for dataset, records in corpus.items():
            manifest = tmp_path / f"{dataset}.jsonl"
            manifest.write_text("".join(record_line(r) + "\n" for r in records))
            entries.append({"dataset_id": dataset, "manifest_path": str(manifest),
                            "link_namespace": "coco" if dataset == "C" else "file-stem"})
        registry_path = tmp_path / "registry.json"
        registry_path.write_text(json.dumps(entries))
        id_map_path = tmp_path / "id_map.jsonl"
        id_map_path.write_text(
            json.dumps({"dataset": "A", "image_id": "7", "canonical_id": "SHARED"}) + "\n"
        )
        grouped = tmp_path / "grouped.jsonl"
        linking = ["--registry", str(registry_path), "--id-map", str(id_map_path)]
        assert main(["ingest", "--out", str(grouped), *linking]) == EXIT_OK
        assert main(["plan", "--manifest", str(grouped), "--shards", "3",
                     "--out-dir", str(tmp_path / "shards"), *linking]) == EXIT_OK

        registry = load_registry(registry_path)
        id_map = load_id_map(id_map_path)
        sources = {}
        with open(grouped, encoding="utf-8") as fh:
            for shard_path in sorted((tmp_path / "shards").glob("shard_*.json")):
                shard = json.loads(shard_path.read_text())
                for offset, key in zip(shard["offsets"], shard["keys"]):
                    fh.seek(offset)
                    rec = json.loads(fh.readline())
                    assert key == str(
                        link_key(rec["dataset"], str(rec["image_id"]), rec["uri"], registry, id_map)
                    )
                    sources[key] = sorted(c["text"] for c in rec["captions"])
        assert sources == {
            "file-stem:shared": ["Caption of A/7.", "Caption of B/1."],
            "file-stem:only_a": ["Caption of A/8.", "Caption of B/2."],
            "coco:x42": ["Caption of C/X42.", "Caption of C/x42."],
            "coco:43": ["Caption of C/43."],
        }

    def test_dimension_conflict_drops_only_that_image(self, tmp_path, capsys):
        def record(dataset, stem, width, height):
            caption = {"text": f"Caption of {dataset}/{stem}.", "source": dataset}
            return {"dataset": dataset, "image_id": stem, "uri": f"{dataset}/{stem}.jpg",
                    "width": width, "height": height, "captions": [caption], "boxes": [],
                    "qas": []}

        corpus = {
            "a": [record("a", "img0", 640, 480), record("a", "img1", 640, 480)],
            "b": [record("b", "img1", 800, 600), record("b", "img2", 320, 240)],
        }
        entries = []
        for dataset, records in corpus.items():
            manifest = tmp_path / f"{dataset}.jsonl"
            manifest.write_text("".join(record_line(r) + "\n" for r in records))
            entries.append({"dataset_id": dataset, "manifest_path": str(manifest)})
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(entries))
        out = tmp_path / "grouped.jsonl"
        assert main(["ingest", "--registry", str(registry), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr()
        assert printed.out == f"wrote 2 grouped records to {out} (1 warnings)\n"
        assert printed.err == ("warning: image file-stem:img1: image dropped: "
                               "640x480 vs 800x600 for 'a/img1.jpg'\n")
        ids = [json.loads(line)["image_id"] for line in out.read_text().splitlines()]
        assert ids == ["img0", "img2"]

        warnings = []
        bundles = [b for d in ("a", "b") for b in load_manifest(tmp_path / f"{d}.jsonl")]
        assert len(list(group_by_image(bundles, on_warning=warnings.append))) == 2
        assert warnings == [{"image_id": "file-stem:img1",
                             "reason": "image dropped: 640x480 vs 800x600 for 'a/img1.jpg'"}]

    def test_ingest_prints_a_line_warning_naming_the_manifest(self, tmp_path, capsys):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 2)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([{"dataset_id": "fixture", "manifest_path": str(manifest)}]))
        out = tmp_path / "grouped.jsonl"
        assert main(["ingest", "--registry", str(registry), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr()
        assert printed.out == f"wrote 2 grouped records to {out} (1 warnings)\n"
        assert printed.err.startswith(f"warning: manifest {manifest}, line 3: unparseable record")
        assert printed.err.count("\n") == 1

    def test_write_manifest_leaves_no_partial_file(self, tmp_path):
        bundles = list(load_manifest(write_fixture_manifest(tmp_path / "m.jsonl", 3)))

        def fails_midway():
            yield from bundles[:2]
            raise RuntimeError("source went away")

        out = tmp_path / "grouped.jsonl"
        with pytest.raises(RuntimeError):
            write_manifest(fails_midway(), out)
        assert sorted(os.listdir(tmp_path)) == ["m.jsonl"]
        assert write_manifest(iter(bundles), out) == 3
        assert sorted(os.listdir(tmp_path)) == ["grouped.jsonl", "m.jsonl"]

    def test_plan_refuses_a_repeated_link_key(self, tmp_path, capsys):
        # two images that share a file stem, grouped apart by their coco ids,
        # would share one conversation id if planned without the registry
        records = [dict(rich_record(i), uri=f"{d}/img.jpg") for i, d in enumerate("ab")]
        (tmp_path / "a.jsonl").write_text("".join(record_line(r) + "\n" for r in records))
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([{"dataset_id": "fixture", "manifest_path": "a.jsonl",
                                         "link_namespace": "coco"}]))
        grouped = tmp_path / "grouped.jsonl"
        assert main(["ingest", "--registry", str(registry), "--out", str(grouped)]) == EXIT_OK
        assert main(["plan", "--manifest", str(grouped), "--shards", "2",
                     "--out-dir", str(tmp_path / "shards")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"manifest {grouped}, line 2: link key file-stem:img repeats line 1" in err
        assert not list(tmp_path.glob("shards/shard_*.json"))

    def test_plan_refuses_a_shard_count_below_one(self, tmp_path, capsys):
        manifest = write_fixture_manifest(tmp_path / "m.jsonl", 1)
        assert main(["plan", "--manifest", str(manifest), "--shards", "0",
                     "--out-dir", str(tmp_path / "shards")]) == EXIT_CONFIG
        assert "shard count 0 must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "shards").exists()

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
