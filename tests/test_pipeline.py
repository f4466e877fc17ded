import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from convogen import pipeline
from convogen.config import FeatureFlags, PipelineConfig
from convogen.context import ORIGIN_CAPTION, ContextSet, make_sentence
from convogen.gateway import GatewayConfig, LlmGateway
from convogen.generation import Conversation, Turn
from convogen.metadata import record_line
from convogen.pipeline import (
    STAGES,
    conversation_record,
    run_pipeline,
    validate_conversation_record,
    write_conversation,
)
from convogen.sharding import claim_shard, load_shard, plan_shards

from conftest import PROMPTS_DIR, make_image
from killed_worker import KILL_POINTS, assert_same_as_clean, run_killed_worker
from test_gateway import ConnectionLog


def rich_record(i: int) -> dict:
    """A record guaranteed to clear the minimum-information threshold."""
    return {
        "dataset": "fixture",
        "image_id": f"{i:04d}",
        "uri": f"images/fixture_{i:04d}.jpg",
        "width": 640,
        "height": 480,
        "captions": [
            {"text": f"A quiet scene number {i} with a long descriptive caption inside.", "source": "fixture"},
            {"text": f"Another angle of scene {i} showing several distinct objects clearly.", "source": "fixture"},
        ],
        "boxes": [
            {"label": "lamp", "bbox": [10.0 + i, 10.0, 40.0, 40.0], "attributes": ["bright"],
             "mask_rle": None, "depth_mean": 0.3, "source": "fixture"},
            {"label": "chair", "bbox": [200.0, 100.0, 80.0, 120.0], "attributes": [],
             "mask_rle": None, "depth_mean": 0.6, "source": "fixture"},
        ],
        "qas": [
            {"question": f"What is in scene {i}?", "answer": "A lamp and a chair.", "source": "fixture"},
        ],
    }


def write_fixture_manifest(path: Path, n: int) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(record_line(rich_record(i)) + "\n")
    return path


def scripted_config(tmp_path, n=10, features=None, **overrides) -> PipelineConfig:
    tmp_path.mkdir(parents=True, exist_ok=True)
    manifest = write_fixture_manifest(tmp_path / "manifest.jsonl", n)
    plan_shards(manifest, overrides.pop("shards", 1), tmp_path / "shards")
    features = features or FeatureFlags(filtering=True, bbox_conversion=True, reduction=True)
    defaults = dict(
        manifest_path=str(manifest),
        output_dir=str(tmp_path / "out"),
        prompts_dir=str(PROMPTS_DIR),
        prompts_set="staged_min" if features.reduction else "direct_min",
        shard_dir=str(tmp_path / "shards"),
        rng_seed=7,
        parallelism=3,
        gateway=GatewayConfig(mode="scripted", backoff_base_ms=1),
        features=features,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def sample_conversation(n_turns=2):
    image = make_image("0007", dataset="fixture", uri="images/x.jpg")
    turns = tuple(
        Turn(human=f"q{i}?", assistant=f"a{i}.", template_id="t", iteration=i)
        for i in range(n_turns)
    )
    prov = {
        "id": "key-123",
        "link_key": "file-stem:x",
        "context_chars_initial": 400,
        "context_chars_final": 30,
        "templates_used": ["t"] * n_turns,
        "retries_total": 0,
        "filtered_turns": [],
        "image_ref": {"dataset": "fixture", "image_id": "0007", "width": 640, "height": 480},
    }
    return Conversation(image=image, turns=turns, provenance=prov)


class TestWriter:
    def test_two_turn_record_format(self):
        record = conversation_record(sample_conversation(2))
        assert len(record["conversations"]) == 4
        assert record["conversations"][0]["value"].startswith("<image>\n")
        assert "<image>" not in record["conversations"][2]["value"]
        assert record["id"] == "key-123"

    def test_round_trip(self, tmp_path):
        conv = sample_conversation(3)
        path = tmp_path / "out.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_conversation(conv, fh)
        assert path.read_text().endswith("\n")
        assert json.loads(path.read_text()) == conversation_record(conv)

    def test_validator_flags_problems(self):
        record = conversation_record(sample_conversation(1))
        assert validate_conversation_record(record) == []
        broken = json.loads(json.dumps(record))
        broken["conversations"][0]["value"] = "no token here"
        assert any("<image>" in p for p in validate_conversation_record(broken))
        doubled = json.loads(json.dumps(record))
        doubled["conversations"][1]["value"] += " <image>"
        assert any("2 times" in p for p in validate_conversation_record(doubled))

    def test_parallel_writers_to_distinct_files_sum(self, tmp_path):
        def write_many(path, count):
            with open(path, "w", encoding="utf-8") as fh:
                for _ in range(count):
                    write_conversation(sample_conversation(1), fh)

        counts = [40, 60, 25]
        threads = [
            threading.Thread(target=write_many, args=(tmp_path / f"f{i}.jsonl", c))
            for i, c in enumerate(counts)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(
            len((tmp_path / f"f{i}.jsonl").read_text().splitlines())
            for i in range(len(counts))
        )
        assert total == sum(counts)


class TestRunPipeline:
    def test_ten_image_fixture_counts_match(self, tmp_path):
        cfg = scripted_config(tmp_path, n=10)
        summary = run_pipeline(cfg, worker_id="w1")
        out_lines = (tmp_path / "out" / "conversations_shard_00000.jsonl").read_text().splitlines()
        assert summary["images"] == 10
        assert summary["conversations"] == len(out_lines) == 10
        assert summary["errors"] == 0
        for line in out_lines:
            assert validate_conversation_record(json.loads(line)) == []

    def test_connections_outlive_shards_and_close_with_the_run(self, tmp_path, monkeypatch):
        # each shard gets a new thread pool; the gateway's connections are
        # the same ones, and the run closes them before it returns
        connections = ConnectionLog(monkeypatch)
        gateways = []

        class KeptGateway(LlmGateway):  # held here, so garbage collection closes nothing
            def __init__(self, cfg):
                super().__init__(cfg)
                gateways.append(self)

        monkeypatch.setattr(pipeline, "LlmGateway", KeptGateway)
        cfg = scripted_config(tmp_path, n=9, shards=3)
        summary = run_pipeline(cfg, worker_id="w1")
        assert len(summary["shards"]) == 3 and summary["conversations"] == 9
        assert len(gateways) == 1
        assert 1 <= connections.accepted <= cfg.parallelism
        assert connections.wait_all_ended()

    def test_summary_counts_each_claimed_shard_once(self, tmp_path):
        cfg = scripted_config(tmp_path, n=15, shards=3)
        # a box wholly outside the frame is dropped with one ingest row per image
        ghost = {"label": "ghost", "bbox": [5000.0, 5000.0, 10.0, 10.0], "attributes": [],
                 "mask_rle": None, "depth_mean": None, "source": "fixture"}
        records = [rich_record(i) for i in range(15)]
        for record in records:
            record["boxes"].append(ghost)
        Path(cfg.manifest_path).write_text("".join(record_line(r) + "\n" for r in records))
        shard_paths = plan_shards(cfg.manifest_path, 3, cfg.shard_dir)
        sizes = [len(load_shard(path)["keys"]) for path in shard_paths]
        assert sizes[0] and sizes[2]
        held = claim_shard(shard_paths[1], "other", cfg.claim_staleness_s)

        out = Path(cfg.output_dir)
        summary = run_pipeline(cfg, worker_id="w1")
        assert summary == json.loads((out / "summary_w1.json").read_text())
        assert summary["shards"] == [0, 2] and summary["skipped_shards"] == 1
        assert summary["images"] == summary["conversations"] == sizes[0] + sizes[2]
        rows = (out / "errors.jsonl").read_text().splitlines()
        assert summary["errors"] == len(rows) == summary["images"]
        assert tuple(summary["stage_s"]) == STAGES
        assert summary["resumed"] == 0 and summary["lost_shards"] == []

        # the other worker still holds shard 1; shards 0 and 2 are all done
        second = run_pipeline(cfg, worker_id="w2")
        assert second["shards"] == [0, 2] and second["skipped_shards"] == 1
        assert second["resumed"] == summary["conversations"]
        assert second["images"] == second["conversations"] == second["errors"] == 0
        assert held.is_current()

    def test_direct_generation_path(self, tmp_path):
        cfg = scripted_config(tmp_path, n=4, features=FeatureFlags(False, False, False))
        summary = run_pipeline(cfg, worker_id="w1")
        assert summary["conversations"] == 4
        line = json.loads(
            (tmp_path / "out" / "conversations_shard_00000.jsonl").read_text().splitlines()[0]
        )
        prov = line["provenance"]
        assert prov["context_chars_final"] == prov["context_chars_initial"]

    def test_trees_written_only_with_bbox_conversion(self, tmp_path):
        cfg = scripted_config(tmp_path, n=3)
        run_pipeline(cfg, worker_id="w1")
        trees = (tmp_path / "out" / "trees_shard_00000.jsonl").read_text().splitlines()
        assert len(trees) == 3
        assert "center=" in json.loads(trees[0])["tree"]

    def test_resume_skips_done_images(self, tmp_path):
        clean = scripted_config(tmp_path / "clean", n=8)
        run_pipeline(clean, worker_id="clean")
        for when in KILL_POINTS:
            cfg = scripted_config(tmp_path / when, n=8)
            run_killed_worker(cfg, commits=3, when=when)
            # resume with staleness 0 so the dead worker's claim is taken over
            second = run_pipeline(replace(cfg, claim_staleness_s=0.0), worker_id="w2")
            assert second["resumed"] == (3 if when == "before" else 4)
            ids, tree_ids = assert_same_as_clean(Path(cfg.output_dir), Path(clean.output_dir))
            assert len(ids) == 8
            assert tree_ids == ids

    def test_resume_cuts_torn_tail_and_regenerates_its_image(self, tmp_path):
        clean = scripted_config(tmp_path / "clean", n=8)
        run_pipeline(clean, worker_id="clean")
        for when in KILL_POINTS:
            cfg = scripted_config(tmp_path / when, n=8)
            run_killed_worker(cfg, commits=3, when=when)
            cut_ids = {}
            for name in ("conversations_shard_00000.jsonl", "trees_shard_00000.jsonl"):
                path = Path(cfg.output_dir) / name
                data = path.read_bytes()
                last = data.rstrip(b"\n").rfind(b"\n") + 1
                cut_ids[name] = json.loads(data[last:])["id"]
                # a crash in the middle of appending the final record
                path.write_bytes(data[: last + (len(data) - last) // 2])
            second = run_pipeline(replace(cfg, claim_staleness_s=0.0), worker_id="w2")
            assert second["resumed"] == (2 if when == "before" else 3)
            ids, tree_ids = assert_same_as_clean(Path(cfg.output_dir), Path(clean.output_dir))
            assert len(ids) == 8
            assert tree_ids == ids
            assert set(cut_ids.values()) <= set(ids)

    def test_resume_regenerates_a_final_line_that_lacks_only_its_newline(self, tmp_path):
        # the line parses, but without its newline it was never committed
        clean = scripted_config(tmp_path / "clean", n=4)
        run_pipeline(clean, worker_id="clean")
        cfg = scripted_config(tmp_path / "torn", n=4)
        run_pipeline(cfg, worker_id="w1")
        path = Path(cfg.output_dir) / "conversations_shard_00000.jsonl"
        path.write_bytes(path.read_bytes()[:-1])
        second = run_pipeline(cfg, worker_id="w2")
        assert second["resumed"] == 3 and second["conversations"] == 1
        ids, tree_ids = assert_same_as_clean(Path(cfg.output_dir), Path(clean.output_dir))
        assert len(ids) == 4 and tree_ids == ids

    def test_deposed_worker_stops_committing(self, tmp_path, monkeypatch):
        from convogen import pipeline

        cfg = scripted_config(tmp_path, n=6)
        shard_path = tmp_path / "shards" / "shard_00000.json"
        real_write = pipeline.write_conversation
        takeovers = []

        def write_then_lose_claim(conv, out):
            real_write(conv, out)
            if not takeovers:
                # a second worker judges the claim stale and takes the shard
                takeovers.append(claim_shard(shard_path, "usurper", staleness_s=-1.0))

        monkeypatch.setattr(pipeline, "write_conversation", write_then_lose_claim)
        summary = run_pipeline(cfg, worker_id="w1")
        lines = (tmp_path / "out" / "conversations_shard_00000.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert summary["conversations"] == 1
        assert summary["lost_shards"] == [0]
        assert takeovers[0].is_current()

    def test_missing_shards_is_config_error(self, tmp_path):
        from convogen.errors import ConfigError

        manifest = write_fixture_manifest(tmp_path / "manifest.jsonl", 1)
        cfg = PipelineConfig(
            manifest_path=str(manifest),
            output_dir=str(tmp_path / "out"),
            prompts_dir=str(PROMPTS_DIR),
            prompts_set="staged_min",
            shard_dir=str(tmp_path / "nothing"),
            gateway=GatewayConfig(mode="scripted"),
        )
        with pytest.raises(ConfigError):
            run_pipeline(cfg)
