import itertools
import json
import os
import random
from pathlib import Path

import pytest

from convogen import ingestion
from convogen.errors import AlreadyClaimed, ConfigError, DuplicateDataset
from convogen.ingestion import (
    FILE_STEM,
    DatasetDescriptor,
    group_by_image,
    link_key,
    load_bundle,
    load_id_map,
    load_manifest,
    load_registry,
    write_manifest,
)
from convogen.metadata import bundle_to_record
from convogen.pipeline import run_pipeline
from convogen.sharding import claim_shard, plan_shards
from convogen.synth import write_synthetic_manifest

from conftest import make_box, make_bundle, make_image
from test_pipeline import scripted_config
from test_sharding import manifest_of


def entry(tmp_path, dataset_id, namespace=FILE_STEM) -> dict:
    manifest = tmp_path / f"{dataset_id}.jsonl"
    manifest.touch()
    return {"dataset_id": dataset_id, "manifest_path": str(manifest), "link_namespace": namespace}


def write_registry(tmp_path, entries: list) -> str:
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestRegistry:
    def test_register_two(self, tmp_path):
        # a relative manifest path resolves against the registry's directory
        (tmp_path / "visual-genome.jsonl").touch()
        relative = {"dataset_id": "visual-genome", "manifest_path": "visual-genome.jsonl"}
        registry = load_registry(write_registry(tmp_path, [entry(tmp_path, "coco-captions"),
                                                           relative]))
        assert type(registry) is dict
        assert registry == {
            name: DatasetDescriptor(name, str(tmp_path / f"{name}.jsonl"))
            for name in ("coco-captions", "visual-genome")
        }

    def test_idempotent_reregistration(self, tmp_path):
        # a repeated entry is kept once, at its first position
        coco = entry(tmp_path, "coco-captions")
        registry = load_registry(write_registry(tmp_path, [coco, entry(tmp_path, "vg"), coco]))
        assert list(registry) == ["coco-captions", "vg"]

    def test_conflicting_reregistration(self, tmp_path):
        entries = [entry(tmp_path, "coco-captions"), entry(tmp_path, "coco-captions", "coco")]
        with pytest.raises(DuplicateDataset):
            load_registry(write_registry(tmp_path, entries))

    def test_missing_manifest_rejected(self, tmp_path):
        entries = [{"dataset_id": "x", "manifest_path": "/nope/nothing.jsonl"}]
        with pytest.raises(ConfigError, match="manifest not found: /nope/nothing.jsonl"):
            load_registry(write_registry(tmp_path, entries))


def registry_of(namespaces: dict[str, str]) -> dict[str, DatasetDescriptor]:
    return {dataset_id: DatasetDescriptor(dataset_id, f"{dataset_id}.jsonl", namespace)
            for dataset_id, namespace in namespaces.items()}


def key_of(image, registry=None, id_map=None):
    return link_key(image.dataset_id, image.image_id, image.uri, registry, id_map)


class TestLinkKey:
    def test_file_stem_normalization(self):
        image = make_image(uri=".../COCO_train2014_000000123.jpg")
        key = key_of(image)
        assert (key.namespace, key.canonical_id) == (
            FILE_STEM,
            "coco_train2014_000000123",
        )

    def test_deterministic(self):
        image = make_image()
        assert key_of(image) == key_of(image)

    def test_shared_id_namespace(self):
        a = make_image(image_id="123", dataset="ds-a", uri="a/path1.jpg")
        b = make_image(image_id="123", dataset="ds-b", uri="b/path2.jpg")
        registry = registry_of({"ds-a": "coco", "ds-b": "coco"})
        assert key_of(a, registry) == key_of(b, registry)

    def test_three_dataset_equality_table(self):
        # datasets A and B share stems for two images; C links to A via the
        # coco id namespace. Oracle: brute-force expected pairwise equality.
        images = {
            ("A", "1"): make_image("1", "A", uri="a/shared_one.jpg"),
            ("A", "2"): make_image("2", "A", uri="a/only_a.jpg"),
            ("B", "1"): make_image("9", "B", uri="b/SHARED_ONE.jpg"),
            ("B", "2"): make_image("8", "B", uri="b/only_b.jpg"),
            ("C", "1"): make_image("9", "C", uri="c/random_name.jpg"),
        }
        registry = registry_of({"A": FILE_STEM, "B": FILE_STEM, "C": "coco"})
        keys = {who: key_of(img, registry) for who, img in images.items()}
        expected_equal = {
            frozenset({("A", "1"), ("B", "1")}),  # same stem
        }
        # C/1 shares image_id "9" with B/1 but B uses the stem namespace, so
        # they must NOT collide; no same-namespace ids coincide for C.
        for left, right in itertools.combinations(images, 2):
            should_equal = frozenset({left, right}) in expected_equal
            assert (keys[left] == keys[right]) == should_equal, (left, right)

    def test_id_map_override(self, tmp_path):
        path = tmp_path / "idmap.jsonl"
        path.write_text(
            json.dumps({"dataset": "A", "image_id": "1", "canonical_id": "CANON-7"}) + "\n"
        )
        id_map = load_id_map(path)
        image = make_image("1", "A", uri="whatever/zzz.jpg")
        registry = registry_of({"A": "coco"})
        assert key_of(image, registry, id_map).canonical_id == "canon-7"


def bundles_fixture():
    """10 records spread over 4 underlying images."""
    specs = [
        ("img_a", "ds1", ["caption a1"]),
        ("img_a", "ds2", ["caption a2"]),
        ("img_a", "ds3", ["caption a3"]),
        ("img_b", "ds1", ["caption b1"]),
        ("img_b", "ds2", ["caption b2"]),
        ("img_c", "ds1", ["caption c1"]),
        ("img_c", "ds2", ["caption c2"]),
        ("img_c", "ds3", ["caption c3"]),
        ("img_c", "ds1", ["caption c4"]),
        ("img_d", "ds1", ["caption d1"]),
    ]
    out = []
    for stem, dataset, captions in specs:
        image = make_image(stem, dataset, uri=f"{dataset}/{stem}.jpg")
        out.append(make_bundle(image, captions=captions, source=dataset))
    return out


class TestGroupByImage:
    def test_two_of_three_share_key(self):
        records = [
            make_bundle(make_image("x", "d1", uri="d1/x.jpg"), captions=["1"], source="d1"),
            make_bundle(make_image("x", "d2", uri="d2/X.jpg"), captions=["2"], source="d2"),
            make_bundle(make_image("y", "d1", uri="d1/y.jpg"), captions=["3"], source="d1"),
        ]
        assert len(list(group_by_image(records))) == 2

    def test_empty_stream(self):
        assert list(group_by_image([])) == []

    def test_counts_match_hash_map_oracle(self):
        records = bundles_fixture()
        # oracle: plain dict grouping on the stem
        oracle: dict[str, int] = {}
        for bundle in records:
            stem = bundle.image.image_id
            oracle[stem] = oracle.get(stem, 0) + len(bundle.captions)
        grouped = list(group_by_image(records))
        assert len(grouped) == len(oracle) == 4
        for bundle in grouped:
            stem = bundle.image.image_id
            assert len(bundle.captions) == oracle[stem]

    def test_conservation_per_category(self):
        records = bundles_fixture()
        grouped = list(group_by_image(records))
        assert sum(len(b.captions) for b in grouped) == sum(
            len(b.captions) for b in records
        )

    def test_stable_under_permutation(self):
        records = bundles_fixture()
        base = [json.dumps(bundle_to_record(b), sort_keys=True) for b in group_by_image(records)]
        rng = random.Random(5)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            got = [
                json.dumps(bundle_to_record(b), sort_keys=True)
                for b in group_by_image(shuffled)
            ]
            assert got == base

    def test_external_sort_path_matches_in_memory(self):
        records = bundles_fixture()
        small_runs = [
            json.dumps(bundle_to_record(b), sort_keys=True)
            for b in group_by_image(records, run_size=2)
        ]
        in_memory = [
            json.dumps(bundle_to_record(b), sort_keys=True)
            for b in group_by_image(records, run_size=10_000)
        ]
        assert small_runs == in_memory


class TestManifestLoading:
    def test_clamp_and_drop_policy(self):
        record = bundle_to_record(make_bundle(make_image(width=100, height=100)))
        record["boxes"] = [
            {"label": "in", "bbox": [10, 10, 20, 20], "attributes": [], "mask_rle": None,
             "depth_mean": None, "source": "s"},
            {"label": "partial", "bbox": [-5, -5, 20, 20], "attributes": [], "mask_rle": None,
             "depth_mean": None, "source": "s"},
            {"label": "gone", "bbox": [200, 200, 5, 5], "attributes": [], "mask_rle": None,
             "depth_mean": None, "source": "s"},
        ]
        warnings = []
        bundle = load_bundle(record, warnings.append)
        assert [b.label for b in bundle.boxes] == ["in", "partial"]
        assert bundle.boxes[1].bbox == (0.0, 0.0, 15.0, 15.0)
        assert len(warnings) == 1 and "fully outside" in warnings[0]["reason"]

    def test_invalid_mask_stripped(self):
        record = bundle_to_record(make_bundle(make_image(width=10, height=10)))
        record["boxes"] = [
            {"label": "bad-mask", "bbox": [1, 1, 3, 3], "attributes": [],
             "mask_rle": "4x4:16", "depth_mean": None, "source": "s"},
        ]
        warnings = []
        bundle = load_bundle(record, warnings.append)
        assert bundle.boxes[0].mask_rle is None
        assert warnings

    def test_write_and_reload(self, tmp_path):
        records = bundles_fixture()
        path = tmp_path / "manifest.jsonl"
        count = write_manifest(records, path)
        assert count == len(records)
        reloaded = list(load_manifest(path))
        assert [b.image.image_id for b in reloaded] == [
            b.image.image_id for b in records
        ]

    def test_bad_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        good = json.dumps(bundle_to_record(make_bundle(captions=["ok"])))
        path.write_text(f"{good}\nnot-json\n", encoding="utf-8")
        warnings = []
        out = list(load_manifest(path, warnings.append))
        assert len(out) == 1
        assert warnings and warnings[0]["line"] == 2

    def test_sidecar_mask_and_depth_merged(self, tmp_path):
        from convogen import rle

        image = make_image(width=8, height=8)
        record = bundle_to_record(
            make_bundle(image, boxes=[make_box("dog", (1, 1, 4, 4))])
        )
        record["sidecar"] = "extras.json"
        mask = rle.from_bbox((1, 1, 4, 4), 8, 8)
        (tmp_path / "extras.json").write_text(
            json.dumps({"boxes": [{"index": 0, "mask_rle": mask, "depth_mean": 0.4}]})
        )
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(record) + "\n", encoding="utf-8")
        (bundle,) = load_manifest(manifest)
        assert bundle.boxes[0].mask_rle == mask
        assert bundle.boxes[0].depth_mean == 0.4

    def test_missing_sidecar_warns_but_keeps_record(self, tmp_path):
        record = bundle_to_record(make_bundle(boxes=[make_box("dog")]))
        record["sidecar"] = "absent.json"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(record) + "\n", encoding="utf-8")
        warnings = []
        (bundle,) = load_manifest(manifest, warnings.append)
        assert bundle.boxes[0].mask_rle is None
        assert any("sidecar" in w["reason"] for w in warnings)


class FailingReplace:
    """Stands in for ``os`` inside ``convogen.ingestion``: a replace onto
    ``target`` fails, as a crash before the rename would leave it."""

    def __init__(self, target: Path):
        self.target = target

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        if Path(dst) == self.target:
            raise OSError("crashed before the rename")
        os.replace(src, dst)


def republished_manifest(tmp_path):
    dest = manifest_of(tmp_path, 2)
    return dest, lambda: manifest_of(tmp_path, 3)


def republished_shard_file(tmp_path):
    (dest,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
    manifest = manifest_of(tmp_path, 3)
    return dest, lambda: plan_shards(manifest, 1, tmp_path / "shards")


def claimed(tmp_path):
    (shard,) = plan_shards(manifest_of(tmp_path, 2), 1, tmp_path / "shards")
    return claim_shard(shard, "w1")


def refreshed_claim(tmp_path):
    claim = claimed(tmp_path)
    return claim.path, claim.refresh


def released_claim(tmp_path):
    claim = claimed(tmp_path)
    return claim.path, claim.release


def run_summary(tmp_path):
    cfg = scripted_config(tmp_path, n=2)
    return Path(cfg.output_dir) / "summary_w1.json", lambda: run_pipeline(cfg, worker_id="w1")


def rewritten_synthetic_manifest(tmp_path):
    dest = write_synthetic_manifest(tmp_path / "synth.jsonl", 3, seed=0)
    return dest, lambda: write_synthetic_manifest(dest, 3, seed=1)


class TestPublish:
    @pytest.mark.parametrize("case", [republished_manifest, republished_shard_file,
                                      refreshed_claim, released_claim, run_summary,
                                      rewritten_synthetic_manifest],
                             ids=lambda case: case.__name__)
    def test_a_failed_publish_leaves_the_old_bytes_and_no_temp_file(
            self, tmp_path, monkeypatch, case):
        dest, publish_again = case(tmp_path)
        before = dest.read_bytes() if dest.exists() else None
        monkeypatch.setattr(ingestion, "os", FailingReplace(dest))
        with pytest.raises(OSError, match="before the rename"):
            publish_again()
        assert (dest.read_bytes() if dest.exists() else None) == before
        assert list(dest.parent.glob("*.tmp")) == []

    def test_a_claimer_that_loses_the_link_leaves_no_temp_file(self, tmp_path, monkeypatch):
        # another worker publishes generation 1 after this one found none
        first = claimed(tmp_path)
        shard = first.shard_path
        monkeypatch.setattr("convogen.sharding.current_generation", lambda path: 0)
        with pytest.raises(AlreadyClaimed, match="published by another worker"):
            claim_shard(shard, "w2")
        assert sorted(p.name for p in shard.parent.iterdir()) == [shard.name, first.path.name]

    def test_publish_returns_the_chunk_count_and_writes_them_in_order(self, tmp_path):
        dest = tmp_path / "out.txt"
        assert ingestion.publish(dest, iter(["a\n", "", "b"])) == 3
        assert dest.read_text() == "a\nb"
        with pytest.raises(FileExistsError):
            ingestion.publish(dest, ["c"], exclusive=True)
        assert dest.read_text() == "a\nb"
        assert sorted(tmp_path.iterdir()) == [dest]
