"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from convogen import gateway, generation, ingestion, pipeline, rle, scene_tree, sharding  # noqa: E402
from perfbench import harness, layers  # noqa: E402
from perfbench.backend import Backend  # noqa: E402
from perfbench.spans import Span, Tracer, covered, instrument, self_times  # noqa: E402
from perfbench.workloads import DENSE_SHAPES, WORKLOADS, ellipse_rle, write_batch  # noqa: E402


def _read_all(paths):
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    workload = WORKLOADS[name]
    first = _read_all(write_batch(workload, 11, 2, tmp_path / "a"))
    again = _read_all(write_batch(workload, 11, 2, tmp_path / "b"))
    other = _read_all(write_batch(workload, 12, 2, tmp_path / "c"))
    assert first == again
    assert first != other


def test_dense_masks_shape(tmp_path):
    workload = WORKLOADS["dense-masks"]
    (path,) = write_batch(workload, 3, 0, tmp_path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["width"], r["height"]) for r in records] == [dims for dims, _ in DENSE_SHAPES]
    assert [len(r["boxes"]) for r in records] == [n for _, n in DENSE_SHAPES]
    boxes = [b for r in records for b in r["boxes"]]
    masked = [b for b in boxes if b["mask_rle"]]
    assert 0.7 < len(masked) / len(boxes) < 0.9
    assert all(b["depth_mean"] is not None for b in boxes)
    for box in masked:
        _, _, w, h = box["bbox"]
        assert 0 < rle.foreground_area(box["mask_rle"]) < w * h  # not a rectangle


def test_ellipse_rle_stays_inside_its_box():
    mask = rle.decode(ellipse_rle((10, 5, 30, 20), 64, 48))
    ys, xs = mask.nonzero()
    assert (xs.min(), xs.max(), ys.min(), ys.max()) == (10, 39, 5, 24)
    assert not mask[5, 10] and mask[15, 25]


def test_full_modeled_datasets_merge_by_stem(tmp_path):
    workload = WORKLOADS["full-modeled"]
    manifests = write_batch(workload, 5, 0, tmp_path / "in")
    assert [p.stem for p in manifests] == ["boxes", "captions", "qa"]
    merged, shard_dir = harness.set_up(manifests, tmp_path, workload.shards)
    records = [json.loads(line) for line in merged.read_text().splitlines()]
    assert len(records) == workload.batch_images
    sources = {s for r in records for kind in ("captions", "boxes", "qas") for s in
               (a["source"] for a in r[kind])}
    assert sources == {"captions", "boxes", "qa"}
    assert len(list(shard_dir.glob("shard_*.json"))) == workload.shards


def test_covered_unions_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_span_nesting_and_self_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent_id is None
    assert by_name["a"].parent_id == by_name["root"].span_id
    assert by_name["b"].parent_id == by_name["root"].span_id
    assert by_name["c"].parent_id == by_name["b"].span_id
    selfs = {s.name: self_times(tracer.spans)[s.span_id] for s in tracer.spans}
    assert selfs == {"root": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "x", 1.0, 5.0),
        Span(3, 1, "y", 4.0, 6.0),
        Span(4, None, "other", 2.0, 3.0),
    ]
    assert self_times(spans) == {1: 5.0, 2: 4.0, 3: 2.0, 4: 1.0}


def _namespace_snapshot():
    owners = (gateway, generation, ingestion, pipeline, rle, scene_tree, sharding,
              gateway.LlmGateway)
    return {owner: dict(vars(owner)) for owner in owners}


def test_instrument_patches_lookup_sites_and_restores_them():
    before = _namespace_snapshot()
    tracer = Tracer()
    with instrument(tracer):
        for owner, name in (
            (pipeline, "build_scene_tree"),
            (pipeline, "assemble_context"),
            (pipeline, "load_bundle"),
            (pipeline, "write_conversation"),
            (generation, "render"),
            (scene_tree, "overlap_stats"),
            (rle, "decode"),
            (gateway.LlmGateway, "chat"),
        ):
            assert vars(owner)[name] is not before[owner][name], name
        assert rle.decode.cache_info() == before[rle]["decode"].cache_info()
        rle.decode(rle.from_bbox((1, 1, 2, 2), 4, 4))
        assert [s.name for s in tracer.spans] == ["rle.decode"]
    after = _namespace_snapshot()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys()
        for name, value in names.items():
            assert after[owner][name] is value, (owner, name)


@pytest.mark.parametrize("name,images", [("text-staged", 12), ("dense-masks", 2),
                                         ("full-modeled", 3)])
def test_out_of_process_backend_matches_in_process_scripted(tmp_path, name, images):
    assert harness.equivalence_check(WORKLOADS[name], 21, ROOT, tmp_path, images) == []


def test_backend_leaves_no_process_behind():
    import multiprocessing
    from multiprocessing import resource_tracker

    with Backend() as backend:
        assert backend.stats()["requests"] == 0
        tracker_pid = resource_tracker._resource_tracker._pid
        assert tracker_pid is not None
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):  # already reaped
        os.waitpid(tracker_pid, os.WNOHANG)


def _record(conv_id, image_id):
    return {
        "id": conv_id,
        "image": "images/x.jpg",
        "conversations": [
            {"from": "human", "value": "<image>\nWhat is here?"},
            {"from": "gpt", "value": "A cat."},
        ],
        "provenance": {"image_ref": {"image_id": image_id}},
    }


def test_output_checks_flag_duplicates_and_missing_images(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"image_id": "1"}\n{"image_id": "2"}\n{"image_id": "3"}\n')
    out = tmp_path / "out"
    out.mkdir()
    lines = [json.dumps(_record("a", "1")), json.dumps(_record("a", "1"))]
    (out / "conversations_shard_00000.jsonl").write_text("\n".join(lines) + "\n")
    (out / "errors.jsonl").write_text('{"image_id": "3", "stage": "generate"}\n')
    check = harness.check_outputs(manifest, out, {"images": 3})
    assert check.failed == 2  # image 1 has a duplicate id, image 2 has nothing
    assert any("duplicate id" in p for p in check.problems)
    assert any("image 2" in p for p in check.problems)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = harness.measure(WORKLOADS["text-staged"], 4, 0.0, True, ROOT, tmp_path)
    assert result.problems == []
    assert [p.traced for p in result.passes] == [False, True]
    assert list(result.per_layer) == [name for name, _, _ in layers.PER_LAYER]
    assert result.per_layer["gateway.calls"][0] > 0
    assert result.per_layer["scripted_server.service_ms.p50"][0] > 0
    bounded = [name for name, _, _ in harness.END_TO_END]
    assert set(bounded) <= set(result.end_to_end)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
