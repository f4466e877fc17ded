import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convogen import pipeline
from convogen.cli import EXIT_CONFIG, main
from convogen.config import FeatureFlags, PipelineConfig
from convogen.context import ORIGIN_CAPTION, ContextSet, make_sentence
from convogen.errors import AlreadyClaimed
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
from convogen.sharding import (
    ShardClaim,
    claim_path_for,
    claim_shard,
    current_generation,
    load_shard,
    plan_shards,
)

from conftest import PROMPTS_DIR, REPO_ROOT, make_image
from killed_worker import (
    KILL_POINTS,
    RESCUE_STALENESS_S,
    assert_same_as_clean,
    run_killed_worker,
)
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

    def test_a_plain_http_run_never_loads_tls(self, tmp_path):
        # a fresh interpreter: this one has imported ssl for the https tests
        cfg = scripted_config(tmp_path, n=2)
        code = ("import json, sys\n"
                "from convogen.config import config_from_dict\n"
                "from convogen.pipeline import run_pipeline\n"
                "summary = run_pipeline(config_from_dict(json.loads(sys.argv[1])))\n"
                "print(summary['conversations'], 'ssl' in sys.modules)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code, json.dumps(asdict(cfg))],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["2", "False"]

    def test_connections_outlive_shards_and_close_with_the_run(self, tmp_path, monkeypatch):
        # the shards share one thread pool and the gateway's connections,
        # and the run closes them before it returns
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
            # resume with a tiny staleness so the dead worker's claim is taken over
            rescue = replace(cfg, claim_staleness_s=RESCUE_STALENESS_S)
            second = run_pipeline(rescue, worker_id="w2")
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
            rescue = replace(cfg, claim_staleness_s=RESCUE_STALENESS_S)
            second = run_pipeline(rescue, worker_id="w2")
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

    @pytest.mark.parametrize("line", [b"not json\n", b'{"tree": "no id"}\n'], ids=["not-json", "no-id"])
    @pytest.mark.parametrize("name", ["conversations_shard_00000.jsonl", "trees_shard_00000.jsonl"])
    def test_damaged_output_line_exits_two_and_cuts_nothing(self, tmp_path, capsys, name, line):
        # a whole line that is not a committed record is no crash artefact
        cfg = scripted_config(tmp_path, n=3)
        run_pipeline(cfg, worker_id="w1")
        path = Path(cfg.output_dir) / name
        with open(path, "ab") as fh:
            fh.write(line)
        damaged = path.read_bytes()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(asdict(cfg)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--worker-id", "w2"]) == EXIT_CONFIG
        assert f"{path}, line 4" in capsys.readouterr().err
        assert path.read_bytes() == damaged

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

    def test_deposed_worker_writes_no_error_rows(self, tmp_path, monkeypatch):
        # images without a conversation are behind the same fence
        cfg = scripted_config(tmp_path, n=6)
        shard_path = tmp_path / "shards" / "shard_00000.json"
        real_write, real_context = pipeline.write_conversation, pipeline.assemble_context

        def write_then_lose_claim(conv, out):
            real_write(conv, out)
            claim_shard(shard_path, "usurper", staleness_s=-1.0)

        def fail_after_the_first(bundle, *args, **kwargs):
            if bundle.image.image_id != "0000":
                raise RuntimeError("context failed")
            return real_context(bundle, *args, **kwargs)

        monkeypatch.setattr(pipeline, "write_conversation", write_then_lose_claim)
        monkeypatch.setattr(pipeline, "assemble_context", fail_after_the_first)
        summary = run_pipeline(cfg, worker_id="w1")
        assert summary["conversations"] == 1
        assert summary["errors"] == 0
        assert summary["lost_shards"] == [0]
        assert not (tmp_path / "out" / "errors.jsonl").exists()

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


def shard_bytes(out_dir: Path, shard_id: int) -> list[bytes]:
    return [
        (out_dir / f"{kind}_shard_{shard_id:05d}.jsonl").read_bytes()
        for kind in ("conversations", "trees")
    ]


def stray_threads(before: set) -> list[str]:
    """Threads started since ``before`` that are neither a pool's nor the
    scripted server's."""
    return [
        t.name for t in threading.enumerate()
        if t not in before and not t.name.startswith("ThreadPoolExecutor-")
        and not t.name.endswith(("(serve_forever)", "(process_request_thread)"))
    ]


class TestWorkerPool:
    def test_pool_spans_shard_boundaries_within_a_bounded_window(self, tmp_path, monkeypatch):
        cfg = scripted_config(tmp_path / "pool", n=16, shards=4, parallelism=2,
                              scripted_latency_base_ms=2.0)
        sizes = [len(load_shard(p)["keys"]) for p in sorted(Path(cfg.shard_dir).glob("shard_*.json"))]
        assert len(sizes) == 4 and min(sizes) >= 3
        events = []
        real_claim, real_release = pipeline.claim_shard, ShardClaim.release

        def claim(*args, **kwargs):
            held = real_claim(*args, **kwargs)
            events.append(("claim", held.shard_id))
            return held

        def release(self):
            events.append(("release", self.shard_id))
            real_release(self)

        submitted, committed, in_flight = [0], [0], []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted[0] += 1
                in_flight.append(submitted[0] - committed[0])
                return super().submit(fn, *args, **kwargs)

        real_write = pipeline.write_conversation

        def write(conv, out):
            real_write(conv, out)
            committed[0] += 1

        monkeypatch.setattr(pipeline, "claim_shard", claim)
        monkeypatch.setattr(ShardClaim, "release", release)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(pipeline, "write_conversation", write)
        summary = run_pipeline(cfg, worker_id="w1")
        assert summary["conversations"] == committed[0] == submitted[0] == 16
        # the next shard is claimed while the one before it still drains
        for k in range(1, 4):
            assert events.index(("claim", k)) < events.index(("release", k - 1)), events
        assert sorted(events) == sorted([("claim", k) for k in range(4)]
                                        + [("release", k) for k in range(4)])
        assert max(in_flight) == 2 * cfg.parallelism

        # one image at a time commits the same bytes
        monkeypatch.undo()
        serial = scripted_config(tmp_path / "serial", n=16, shards=4, parallelism=1)
        run_pipeline(serial, worker_id="serial")
        ids, _ = assert_same_as_clean(Path(cfg.output_dir), Path(serial.output_dir))
        assert len(ids) == 16

    def test_lost_claim_costs_only_its_shard(self, tmp_path, monkeypatch):
        clean = scripted_config(tmp_path / "clean", n=6, shards=2)
        run_pipeline(clean, worker_id="clean")
        cfg = scripted_config(tmp_path / "lost", n=6, shards=2)
        shard_path = Path(cfg.shard_dir) / "shard_00000.json"
        real_write = pipeline.write_conversation
        takeovers = []

        def write_then_lose_claim(conv, out):
            real_write(conv, out)
            if not takeovers:
                takeovers.append(claim_shard(shard_path, "usurper", staleness_s=-1.0))

        monkeypatch.setattr(pipeline, "write_conversation", write_then_lose_claim)
        summary = run_pipeline(cfg, worker_id="w1")
        out = Path(cfg.output_dir)
        assert summary["lost_shards"] == [0] and summary["shards"] == [0, 1]
        assert len((out / "conversations_shard_00000.jsonl").read_text().splitlines()) == 1
        assert shard_bytes(out, 1) == shard_bytes(Path(clean.output_dir), 1)
        assert summary["conversations"] == 1 + len(load_shard(Path(cfg.shard_dir) / "shard_00001.json")["keys"])
        assert takeovers[0].is_current()

    def test_a_run_slower_than_the_staleness_window_keeps_its_claim(self, tmp_path, monkeypatch):
        # the first image runs for three staleness windows while another
        # worker tries the shard: only the committer's refresh keeps it live
        cfg = scripted_config(tmp_path, n=2, parallelism=1, claim_staleness_s=0.25)
        shard_path = Path(cfg.shard_dir) / "shard_00000.json"
        running, tried, outcome = threading.Event(), threading.Event(), []

        def contend():
            assert running.wait(timeout=10)
            time.sleep(3 * cfg.claim_staleness_s)
            try:
                outcome.append(claim_shard(shard_path, "usurper", cfg.claim_staleness_s))
            except AlreadyClaimed as exc:
                outcome.append(exc)
            tried.set()

        real_tree = pipeline.build_scene_tree

        def slow_tree(*args, **kwargs):
            running.set()
            assert tried.wait(timeout=10)
            return real_tree(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_scene_tree", slow_tree)
        contender = threading.Thread(target=contend, name="contender")
        contender.start()
        summary = run_pipeline(cfg, worker_id="w1")
        contender.join(timeout=10)
        assert not contender.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], AlreadyClaimed), outcome
        assert summary["conversations"] == 2 and summary["lost_shards"] == []
        assert current_generation(shard_path) == 1

    def test_a_damaged_shard_file_exits_two_and_releases_every_claim(self, tmp_path, capsys):
        # shard 0 is in flight when the worker reads shard 1's torn file
        cfg = scripted_config(tmp_path, n=6, shards=2, scripted_latency_base_ms=5.0)
        damaged = Path(cfg.shard_dir) / "shard_00001.json"
        damaged.write_bytes(damaged.read_bytes()[:20])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(asdict(cfg)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--worker-id", "w1"]) == EXIT_CONFIG
        assert f"damaged shard file {damaged}" in capsys.readouterr().err
        (claim,) = Path(cfg.shard_dir).glob("*.claim.*")
        body = json.loads(claim.read_text())
        assert (body["shard_id"], body["worker_id"], body["released"]) == (0, "w1", True)

    def test_a_failing_shard_set_up_releases_every_claim(self, tmp_path, capsys, monkeypatch):
        # shard 0 is in flight when recovering shard 1 finds a damaged line
        cfg = scripted_config(tmp_path, n=6, shards=2, claim_staleness_s=0.1,
                              scripted_latency_base_ms=5.0)
        real_claim, claims, strays = pipeline.claim_shard, [], []
        before = set(threading.enumerate())

        def claim(*args, **kwargs):
            claims.append(real_claim(*args, **kwargs))
            strays.extend(stray_threads(before))
            return claims[-1]

        monkeypatch.setattr(pipeline, "claim_shard", claim)
        out = Path(cfg.output_dir)
        out.mkdir()
        (out / "conversations_shard_00001.jsonl").write_text("not json\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(asdict(cfg)), encoding="utf-8")
        assert main(["run", "--config", str(config), "--worker-id", "w1"]) == EXIT_CONFIG
        assert "conversations_shard_00001.jsonl, line 1" in capsys.readouterr().err
        assert sorted(c.shard_id for c in claims) == [0, 1]
        # no claim starts a thread of its own, which could outlive the run
        assert strays == [] and stray_threads(before) == []
        for shard_path in sorted(Path(cfg.shard_dir).glob("shard_*.json")):
            newest = claim_path_for(shard_path, current_generation(shard_path))
            body = json.loads(newest.read_text())
            assert body["worker_id"] == "w1" and body["released"] is True


@pytest.fixture(scope="module")
def clean_pool_run(tmp_path_factory):
    """A clean three-shard run and its append stream: (file name, line) in
    the order the lines were appended, each tree line before its
    conversation line and shard after shard."""
    cfg = scripted_config(tmp_path_factory.mktemp("clean"), n=8, shards=3, parallelism=2)
    run_pipeline(cfg, worker_id="clean")
    out = Path(cfg.output_dir)
    stream = []
    for conv_file in sorted(out.glob("conversations_shard_*.jsonl")):
        tree_file = out / conv_file.name.replace("conversations", "trees")
        trees = {json.loads(line)["id"]: line
                 for line in tree_file.read_bytes().splitlines(keepends=True)}
        for line in conv_file.read_bytes().splitlines(keepends=True):
            tree = trees.get(json.loads(line)["id"])
            if tree is not None:
                stream.append((tree_file.name, tree))
            stream.append((conv_file.name, line))
    return cfg, stream


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_resume_after_a_cut_at_any_byte(clean_pool_run, data):
    cfg, stream = clean_pool_run
    assert len({name for name, _ in stream}) == 4  # shard 0 of 3 is empty
    cut = data.draw(st.integers(0, sum(len(line) for _, line in stream)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        left = cut
        for name, line in stream:
            if left <= 0:
                break
            with open(Path(tmp) / name, "ab") as fh:
                fh.write(line[:left])
            left -= len(line)
        run_pipeline(replace(cfg, output_dir=tmp), worker_id="resumer")
        ids, tree_ids = assert_same_as_clean(Path(tmp), Path(cfg.output_dir))
        assert len(ids) == 8 and tree_ids == ids
