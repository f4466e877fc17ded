import hashlib
import json
import os
import threading
import time
from pathlib import Path

import pytest

from convogen import ingestion
from convogen.errors import AlreadyClaimed, ConfigError
from convogen.ingestion import write_manifest
from convogen.sharding import (
    claim_path_for,
    claim_shard,
    current_generation,
    load_shard,
    plan_shards,
    stable_shard,
)
from convogen.synth import write_synthetic_manifest

from conftest import make_bundle, make_image


class PausingOs:
    """Stands in for ``os`` inside ``convogen.ingestion``: the thread named
    ``thread_name`` blocks around its first call to one of ``calls``
    (before it when ``after`` is false), until ``resume`` is set."""

    def __init__(self, thread_name, calls, after):
        self.thread_name = thread_name
        self.calls = calls
        self.after = after
        self.reached = threading.Event()
        self.resume = threading.Event()

    def _pause(self):
        self.reached.set()
        assert self.resume.wait(timeout=10), "paused claimer never resumed"

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.calls:
            return real

        def call(*args, **kwargs):
            mine = (
                threading.current_thread().name == self.thread_name
                and not self.reached.is_set()
            )
            if mine and not self.after:
                self._pause()
            result = real(*args, **kwargs)
            if mine and self.after:
                self._pause()
            return result

        return call


def claim_in_thread(path, worker, outcome, staleness_s=300.0):
    def run():
        try:
            outcome[worker] = claim_shard(path, worker, staleness_s=staleness_s)
        except AlreadyClaimed:
            outcome[worker] = None

    thread = threading.Thread(target=run, name=worker)
    thread.start()
    return thread


def make_stale(claim):
    """Rewrite a claim's body with a heartbeat far in the past."""
    claim.heartbeat = time.time() - 1000
    tmp = claim.path.with_suffix(".rewrite")
    tmp.write_text(
        json.dumps(
            {"shard_id": claim.shard_id, "worker_id": claim.worker_id,
             "heartbeat": claim.heartbeat}
        )
    )
    tmp.replace(claim.path)


def manifest_of(tmp_path, n):
    bundles = [
        make_bundle(make_image(f"img{i}", uri=f"d/img{i}.jpg"), captions=[f"c{i}"])
        for i in range(n)
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(bundles, path)
    return path


class TestPlanShards:
    def test_two_shards_cover_ten_images(self, tmp_path):
        paths = plan_shards(manifest_of(tmp_path, 10), 2, tmp_path / "shards")
        sizes = [len(load_shard(p)["offsets"]) for p in paths]
        assert len(paths) == 2
        assert sum(sizes) == 10

    def test_single_shard_is_whole_manifest(self, tmp_path):
        paths = plan_shards(manifest_of(tmp_path, 7), 1, tmp_path / "shards")
        assert len(paths) == 1
        assert len(load_shard(paths[0])["offsets"]) == 7

    def test_partition_matches_hash_oracle_and_balances(self, tmp_path):
        manifest = write_synthetic_manifest(tmp_path / "big.jsonl", 1000, seed=5)
        paths = plan_shards(manifest, 8, tmp_path / "shards")
        by_shard = {load_shard(p)["shard_id"]: load_shard(p)["keys"] for p in paths}
        # independent recomputation of the hash partition
        for shard_id, keys in by_shard.items():
            for key in keys:
                oracle = int(hashlib.md5(key.encode()).hexdigest(), 16) % 8
                assert oracle == shard_id
        sizes = [len(keys) for keys in by_shard.values()]
        assert sum(sizes) == 1000
        assert max(sizes) / min(sizes) < 1.5

    @pytest.mark.parametrize("body", ["", '{"shard_id": 0, "manifest": "m.jsonl", "off',
                                      "[]", '{"shard_id": 0, "manifest": "m.jsonl"}'],
                             ids=["empty", "truncated", "not-an-object", "missing-keys"])
    def test_damaged_shard_file_is_config_error(self, tmp_path, body):
        path = tmp_path / "shard_00000.json"
        path.write_text(body)
        with pytest.raises(ConfigError, match="damaged shard file .*shard_00000.json"):
            load_shard(path)

    def test_plan_publishes_each_shard_file_whole(self, tmp_path, monkeypatch):
        # a crash before a shard file's rename leaves the old file as it was
        (path,) = plan_shards(manifest_of(tmp_path, 4), 1, tmp_path / "shards")
        before = path.read_bytes()

        class CrashAtRename:
            def __getattr__(self, name):
                return getattr(os, name)

            def replace(self, src, dst):
                raise OSError("crashed before the rename")

        monkeypatch.setattr(ingestion, "os", CrashAtRename())
        with pytest.raises(OSError, match="before the rename"):
            plan_shards(manifest_of(tmp_path, 6), 1, tmp_path / "shards")
        assert path.read_bytes() == before
        assert sorted(path.parent.iterdir()) == [path]

    def test_offsets_point_at_records(self, tmp_path):
        manifest = manifest_of(tmp_path, 5)
        (path,) = plan_shards(manifest, 1, tmp_path / "shards")
        shard = load_shard(path)
        with open(manifest, encoding="utf-8") as fh:
            for offset, key in zip(shard["offsets"], shard["keys"]):
                fh.seek(offset)
                record = json.loads(fh.readline())
                assert record["image_id"] in key


class TestClaims:
    def test_unclaimed_succeeds(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        claim = claim_shard(path, "w1")
        assert claim.worker_id == "w1"
        assert claim.path.exists()

    def test_second_worker_rejected_while_fresh(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        claim_shard(path, "w1")
        with pytest.raises(AlreadyClaimed):
            claim_shard(path, "w2")

    def test_stale_claim_taken_over(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        old = claim_shard(path, "w1")
        old.heartbeat = time.time() - 1000
        tmp = old.path.with_suffix(".rewrite")
        tmp.write_text(
            json.dumps({"shard_id": 0, "worker_id": "w1", "heartbeat": old.heartbeat})
        )
        tmp.replace(old.path)
        claim = claim_shard(path, "w2", staleness_s=300)
        assert claim.worker_id == "w2"

    @pytest.mark.parametrize("body", ["", "not json", '{"heartbeat": "soon"}', "[]",
                                      '{"heartbeat": null}'],
                             ids=["empty", "not-json", "heartbeat-string", "not-an-object",
                                  "heartbeat-null"])
    def test_a_damaged_claim_body_is_taken_over(self, tmp_path, body):
        # not a JSON object with a numeric heartbeat: the claim is not live
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        claim_shard(path, "w1").path.write_text(body)
        assert claim_shard(path, "w2").generation == 2

    def test_release_then_reclaim(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        claim_shard(path, "w1").release()
        assert claim_shard(path, "w2").worker_id == "w2"

    def test_racing_workers_single_winner(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        for round_no in range(20):
            barrier = threading.Barrier(8)
            winners = []
            losers = []

            def contend(worker):
                barrier.wait()
                try:
                    winners.append(claim_shard(path, worker, staleness_s=300))
                except AlreadyClaimed:
                    losers.append(worker)

            threads = [
                threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(winners) == 1, f"round {round_no}: {len(winners)} winners"
            assert len(losers) == 7
            winners[0].release()

    def test_heartbeat_refresh(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        claim = claim_shard(path, "w1")
        before = json.loads(claim.path.read_text())["heartbeat"]
        time.sleep(0.01)
        assert claim.refresh() is True
        after = json.loads(claim.path.read_text())
        assert after["heartbeat"] == claim.heartbeat > before
        assert "released" not in after
        claim.release()
        assert json.loads(claim.path.read_text())["released"] is True

    def test_current_generation_counts_only_published_claims_of_its_shard(self, tmp_path):
        first, second = plan_shards(manifest_of(tmp_path, 4), 2, tmp_path / "shards")
        assert current_generation(first) == 0
        claim_shard(first, "w1").release()
        claim_shard(first, "w2").release()
        for worker in ("w3", "w4", "w5"):
            claim_shard(second, worker).release()
        # temp files of claimers that died before they could publish
        for g in (3, 4):
            Path(f"{claim_path_for(first, g)}.{os.getpid()}-1.tmp").write_text("{}")
        assert (current_generation(first), current_generation(second)) == (2, 3)
        assert claim_shard(first, "w6").generation == 3
        assert current_generation(first) == 3

    def test_claim_is_whole_before_anyone_can_see_it(self, tmp_path, monkeypatch):
        # Pause the first claimer right after the step that creates its claim
        # entry: an exclusive create of the claim file, or the link that
        # publishes it. A second claimer must find a live claim there.
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        gate = PausingOs("A", {"open", "link"}, after=True)
        monkeypatch.setattr(ingestion, "os", gate)
        outcome = {}
        first = claim_in_thread(path, "A", outcome)
        try:
            assert gate.reached.wait(timeout=10)
            with pytest.raises(AlreadyClaimed):
                claim_shard(path, "B")
        finally:
            gate.resume.set()
            first.join(timeout=10)
        assert not first.is_alive()
        assert outcome["A"] is not None

    def test_stale_takeover_has_one_winner(self, tmp_path, monkeypatch):
        # B and C both read A's stale claim; B is held before it acts on
        # what it read until C has returned.
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        make_stale(claim_shard(path, "A"))
        gate = PausingOs("B", {"rename", "link"}, after=False)
        monkeypatch.setattr(ingestion, "os", gate)
        outcome = {}
        held = claim_in_thread(path, "B", outcome)
        try:
            assert gate.reached.wait(timeout=10)
            claim_in_thread(path, "C", outcome).join(timeout=10)
        finally:
            gate.resume.set()
            held.join(timeout=10)
        assert not held.is_alive()
        winners = sorted(w for w, claim in outcome.items() if claim is not None)
        assert winners == ["C"]
        on_disk = json.loads(outcome["C"].path.read_text())
        assert on_disk["worker_id"] == "C"
        with pytest.raises(AlreadyClaimed):
            claim_shard(path, "D")

    def test_deposed_worker_leaves_successor_alone(self, tmp_path):
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        old = claim_shard(path, "w1")
        make_stale(old)
        new = claim_shard(path, "w2", staleness_s=300)
        body = new.path.read_text()
        refreshed = old.refresh()
        old.release()
        assert new.path.read_text() == body
        assert refreshed is False
        with pytest.raises(AlreadyClaimed):
            claim_shard(path, "w3")

    def test_a_stalled_refresh_cannot_undo_the_release(self, tmp_path):
        # a refresh that comes after the release writes nothing
        (path,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
        claim = claim_shard(path, "w1")
        claim.release()
        newest = claim_path_for(path, current_generation(path))
        assert newest == claim.path
        assert json.loads(newest.read_text()).get("released") is True
        assert claim.refresh() is False
        assert json.loads(newest.read_text()).get("released") is True
