"""Acceptance gate: every primary criterion as a dedicated test, each
printing one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``
to see them)."""

import json
import random
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from convogen.config import FeatureFlags, PipelineConfig
from convogen.context import ContextSet
from convogen.errors import AlreadyClaimed
from convogen.gateway import GatewayConfig
from convogen.generation import GenerationParams, stopping_criteria
from convogen.generation import Conversation, Turn
from convogen import pipeline
from convogen.pipeline import (
    run_pipeline,
    validate_conversation_record,
    write_conversation,
)
from convogen.scene_tree import (
    SceneTreeParams,
    build_tree,
    group_and_count,
    merge_duplicates,
    region_sort_key,
)
from convogen.sharding import claim_shard, plan_shards
from convogen.synth import write_synthetic_manifest

from conftest import PROMPTS_DIR, make_image
from killed_worker import (
    KILL_POINTS,
    RESCUE_STALENESS_S,
    assert_same_as_clean,
    run_killed_worker,
)
from test_scene_tree import (
    oracle_parents,
    oracle_partition,
    random_scene,
    tree_parent_map,
)

P_SCENE = SceneTreeParams()
P_GEN = GenerationParams()


def report(name: str, detail: str) -> None:
    # shown with -s, or in the PASSES summary with -rP
    print(f"[PASS] {name}: {detail}", flush=True)


def scripted_cfg(base: Path, manifest: Path, features: FeatureFlags, **overrides) -> PipelineConfig:
    defaults = dict(
        manifest_path=str(manifest),
        output_dir=str(base / "out"),
        prompts_dir=str(PROMPTS_DIR),
        prompts_set="staged_min" if features.reduction else "direct_min",
        shard_dir=str(base / "shards"),
        rng_seed=123,
        parallelism=4,
        gateway=GatewayConfig(mode="scripted", backoff_base_ms=1),
        features=features,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# ---------------------------------------------------------------------------
# Criterion: stopping criteria match the reduction-threshold / minimum-length
# rule on an exhaustive grid. Runtime < 1s.
# ---------------------------------------------------------------------------


def test_stopping_criteria_exhaustive_grid():
    started = time.monotonic()
    image = make_image()
    cache: dict[int, ContextSet] = {}

    def ctx(chars: int) -> ContextSet:
        if chars not in cache:
            cache[chars] = ContextSet(image=image, sentences=(), total_chars=chars)
        return cache[chars]

    checked = 0
    for total in range(1, 401):
        for remaining in range(0, total + 1):
            expected = remaining / total < 0.15 or remaining < 100
            got = stopping_criteria(ctx(remaining), ctx(total), P_GEN)
            assert got == expected, (total, remaining)
            checked += 1
    for total, remaining in ((1000, 120), (1000, 150), (1000, 500), (10_000, 1499), (10_000, 1500)):
        expected = remaining / total < 0.15 or remaining < 100
        assert stopping_criteria(ctx(remaining), ctx(total), P_GEN) == expected
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"grid took {elapsed:.2f}s"
    report("stopping-criteria-grid", f"{checked} (total, remaining) pairs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion: merge partitions, parent assignments, and group/count labels on
# 200 random scenes equal the O(n^2) oracles. Runtime < 30s.
# ---------------------------------------------------------------------------


def _union_bbox(regions):
    x0 = min(r.bbox[0] for r in regions)
    y0 = min(r.bbox[1] for r in regions)
    x1 = max(r.bbox[0] + r.bbox[2] for r in regions)
    y1 = max(r.bbox[1] + r.bbox[3] for r in regions)
    return (x0, y0, x1 - x0, y1 - y0)


def _descriptor(total: int, p: SceneTreeParams) -> str:
    if total <= p.count_exact_max:
        return str(total)
    return "several" if total <= p.count_several_max else "many"


def _sibling_counters(tree):
    """id(parent region) -> Counter of child labels, groups expanded."""
    counters: dict = {}

    def visit(nodes, parent_key):
        counter = counters.setdefault(parent_key, Counter())
        for node in nodes:
            if node.count_label is not None:
                for child in node.children:
                    counter[child.region.label] += 1
                    visit(child.children, id(child.region))
            else:
                counter[node.region.label] += 1
                visit(node.children, id(node.region))

    visit(tree, None)
    return counters


def test_scene_tree_matches_bruteforce_oracles():
    started = time.monotonic()
    mismatches = 0
    scenes = 0
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        with_masks = seed % 2 == 0
        with_depth = seed % 4 < 2
        regions = random_scene(rng, with_masks, with_depth, n_max=20)
        scenes += 1

        # merge partition vs transitive-closure oracle
        merged = merge_duplicates(regions, P_SCENE)
        expected_components = oracle_partition(regions, P_SCENE)
        expected_summary = sorted(
            (regions[next(iter(group))].label, _union_bbox([regions[i] for i in group]), len(group))
            for group in expected_components
        )
        actual_summary = sorted((r.label, r.bbox, r.members) for r in merged)
        if actual_summary != expected_summary:
            mismatches += 1
            continue

        # parent assignment vs exhaustive smallest-container oracle
        ordered = sorted(merged, key=region_sort_key)
        tree = build_tree(merged, P_SCENE)
        parents = oracle_parents(ordered, P_SCENE)
        mapping = tree_parent_map(tree)
        for idx, r in enumerate(ordered):
            expected_parent = None if parents[idx] is None else ordered[parents[idx]]
            if mapping[id(r)] is not expected_parent:
                mismatches += 1
                break
        else:
            # group/count labels vs the label-multimap oracle
            pre_counters = _sibling_counters(build_tree(merged, P_SCENE))
            grouped = group_and_count(tree, P_SCENE)
            post_counters = _sibling_counters(grouped)
            if pre_counters != post_counters:
                mismatches += 1
                continue

            def check_groups(nodes) -> bool:
                labels_n = Counter(n.region.label for n in nodes if n.count_label is None)
                for node in nodes:
                    if node.count_label is not None:
                        total = sum(c.region.members for c in node.children)
                        if node.count_label != _descriptor(total, P_SCENE):
                            return False
                        if len(node.children) < 2:
                            return False
                        if any(c.region.label != node.region.label for c in node.children):
                            return False
                        if not all(check_groups(c.children) for c in node.children):
                            return False
                    else:
                        if not check_groups(node.children):
                            return False
                # after grouping no two plain siblings may share a label
                return all(count == 1 for count in labels_n.values())

            if not check_groups(grouped):
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0, f"{mismatches} scene(s) disagreed with the oracle"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    report("scene-tree-oracle-equivalence", f"{scenes} scenes, 0 mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria: byte-identical scripted runs over a 25-image fixture (< 60s) and
# the termination conditions visible in every emitted record's provenance.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def determinism_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    manifest = write_synthetic_manifest(
        base / "fixture.jsonl", 25, seed=41, max_captions=2, max_boxes=3, max_qas=2
    )
    outputs = []
    started = time.monotonic()
    for run in ("a", "b"):
        run_dir = base / run
        plan_shards(manifest, 1, run_dir / "shards")
        cfg = scripted_cfg(
            run_dir,
            manifest,
            FeatureFlags(filtering=True, bbox_conversion=True, reduction=True),
        )
        summary = run_pipeline(cfg, worker_id=f"det-{run}")
        outputs.append(
            {
                "summary": summary,
                "conversations": (run_dir / "out" / "conversations_shard_00000.jsonl").read_bytes(),
                "trees": (run_dir / "out" / "trees_shard_00000.jsonl").read_bytes(),
            }
        )
    return {"elapsed": time.monotonic() - started, "runs": outputs}


def test_scripted_pipeline_byte_identical(determinism_runs):
    a, b = determinism_runs["runs"]
    elapsed = determinism_runs["elapsed"]
    assert a["conversations"] == b["conversations"]
    assert a["trees"] == b["trees"]
    assert len(a["conversations"].splitlines()) > 0
    assert elapsed < 60.0, f"two runs took {elapsed:.1f}s"
    report(
        "scripted-determinism",
        f"25-image fixture, {len(a['conversations'].splitlines())} records, "
        f"two runs byte-identical in {elapsed:.1f}s",
    )


def test_metadata_utilization_termination_conditions(determinism_runs):
    records = [
        json.loads(line)
        for line in determinism_runs["runs"][0]["conversations"].splitlines()
    ]
    assert records
    for record in records:
        prov = record["provenance"]
        initial = prov["context_chars_initial"]
        final = prov["context_chars_final"]
        assert final / initial < 0.15 or final < 100, record["id"]
    report(
        "metadata-utilization",
        f"{len(records)}/{len(records)} records hit the 85%-consumed or <100-char stop",
    )


# ---------------------------------------------------------------------------
# Criterion: bounded retries under injected faults, and no unverified turn in
# any output.
# ---------------------------------------------------------------------------


def test_retry_semantics_under_faults(tmp_path):
    manifest = write_synthetic_manifest(
        tmp_path / "fixture.jsonl", 3, seed=77, max_captions=3, max_boxes=0, max_qas=2
    )
    fixtures = tmp_path / "fixtures.jsonl"
    rules = [
        {"pattern": ".", "status": 429, "times": 2},
        {
            "pattern": "exactly one question",
            "responses": [
                "no speaker markers at all",
                "still nothing parseable",
                "Human: What does the scene show?\nAssistant: The scene is exactly as described.",
            ],
        },
        {"pattern": "Rewrite each question and answer pair", "program": "qa-statements"},
        {"pattern": "Rewrite the question and answer pair", "program": "qa-single"},
        {"pattern": "Answer yes or no", "response": "Yes."},
        {"pattern": "numbers of the covered facts", "response": "1, 2"},
    ]
    fixtures.write_text("\n".join(json.dumps(r) for r in rules) + "\n")
    plan_shards(manifest, 1, tmp_path / "shards")
    cfg = scripted_cfg(
        tmp_path,
        manifest,
        FeatureFlags(filtering=False, bbox_conversion=False, reduction=True),
        scripted_fixtures=str(fixtures),
        parallelism=1,  # keeps the stateful fault sequences deterministic
    )
    summary = run_pipeline(cfg, worker_id="faulty")
    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "conversations_shard_00000.jsonl").read_text().splitlines()
    ]
    assert records
    worst = 0
    for record in records:
        for attempts in record["provenance"]["turn_attempts"]:
            worst = max(worst, attempts)
            assert attempts <= cfg.generation.max_retries
    assert worst == 3  # the injected double parse failure was actually exercised
    gw = summary["gateway"]
    assert gw["max_retries_single_request"] <= cfg.gateway.retry_budget
    assert gw["retries"] >= 2  # the two 429s were retried

    # verification gate: a model that always fails verification yields no output
    gate_dir = tmp_path / "gate"
    gate_manifest = write_synthetic_manifest(
        gate_dir / "fixture.jsonl", 2, seed=78, max_captions=3, max_boxes=0, max_qas=2
    )
    gate_rules = [
        {"pattern": "Rewrite each question and answer pair", "program": "qa-statements"},
        {"pattern": "Rewrite the question and answer pair", "program": "qa-single"},
        {"pattern": "exactly one question", "program": "single-turn"},
        {"pattern": "Answer yes or no", "response": "No."},
        {"pattern": "numbers of the covered facts", "response": "1, 2"},
    ]
    gate_fixtures = gate_dir / "fixtures.jsonl"
    gate_fixtures.write_text("\n".join(json.dumps(r) for r in gate_rules) + "\n")
    plan_shards(gate_manifest, 1, gate_dir / "shards")
    gate_cfg = scripted_cfg(
        gate_dir,
        gate_manifest,
        FeatureFlags(filtering=False, bbox_conversion=False, reduction=True),
        scripted_fixtures=str(gate_fixtures),
        parallelism=1,
    )
    gate_summary = run_pipeline(gate_cfg, worker_id="gate")
    gate_out = gate_dir / "out" / "conversations_shard_00000.jsonl"
    assert gate_summary["conversations"] == 0
    assert not gate_out.exists() or gate_out.read_text().strip() == ""
    report(
        "retry-semantics",
        f"turn attempts <= 3 (max seen {worst}), gateway retries <= budget, "
        "verification-failing turns never reach the output",
    )


# ---------------------------------------------------------------------------
# Criterion: efficiency-table analogue on 500 synthetic images. Runtime < 10min.
# ---------------------------------------------------------------------------


FEATURE_ROWS = (
    ("direct", FeatureFlags(False, False, False)),
    ("+bbox", FeatureFlags(False, True, False)),
    ("+reduction", FeatureFlags(False, False, True)),
)


def run_feature_rows(work_dir: Path, monkeypatch, sidecar_ms: int) -> dict[str, dict]:
    """The efficiency table: one scripted run per row over 500 synthetic
    images, returning each row's run summary. In the +bbox row every image
    with boxes first waits ``sidecar_ms``, which stands in for the mask and
    depth models a real run computes before building its scene tree."""
    work_dir.mkdir(parents=True)
    manifest = write_synthetic_manifest(
        work_dir / "corpus.jsonl", 500, seed=7, max_captions=3, max_boxes=5, max_qas=3
    )
    plan_shards(manifest, 1, work_dir / "shards")
    real_build = pipeline.build_scene_tree

    def build_after_sidecar(*args, **kwargs):
        time.sleep(sidecar_ms / 1000.0)
        return real_build(*args, **kwargs)

    summaries = {}
    for name, features in FEATURE_ROWS:
        safe = name.strip("+")
        cfg = PipelineConfig(
            manifest_path=str(manifest),
            output_dir=str(work_dir / f"out_{safe}"),
            prompts_dir=str(PROMPTS_DIR),
            prompts_set="staged_min" if features.reduction else "direct_min",
            shard_dir=str(work_dir / "shards"),
            rng_seed=7,
            parallelism=16,
            reduce_mode="llm",
            scripted_latency_base_ms=1.0,
            scripted_latency_per_char_ms=1.0,
            generation=GenerationParams(),
            gateway=GatewayConfig(mode="scripted", max_in_flight=16),
            features=features,
        )
        with monkeypatch.context() as patch:
            if features.bbox_conversion:
                patch.setattr(pipeline, "build_scene_tree", build_after_sidecar)
            # each row takes over the claim the previous row released
            summaries[name] = run_pipeline(cfg, worker_id=f"bench-{safe}")
    return summaries


def test_efficiency_table_analogue(tmp_path, monkeypatch):
    started = time.monotonic()
    results = run_feature_rows(tmp_path / "bench", monkeypatch, sidecar_ms=2000)
    elapsed = time.monotonic() - started
    direct = results["direct"]["wall_s"]
    reduction = results["+reduction"]["wall_s"]
    bbox = results["+bbox"]["wall_s"]
    assert all(r["images"] == 500 for r in results.values())
    assert reduction <= 1.10 * direct, f"reduction {reduction}s vs direct {direct}s"
    assert bbox >= 3.0 * direct, f"bbox {bbox}s vs direct {direct}s"
    assert elapsed < 600.0, f"bench took {elapsed:.0f}s"
    report(
        "efficiency-analogue",
        f"direct {direct:.1f}s, +reduction {reduction:.1f}s "
        f"({reduction / direct - 1:+.1%}), +bbox {bbox:.1f}s "
        f"({bbox / direct:.1f}x), total {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion: distributed claim safety and duplicate-free resume after a kill.
# ---------------------------------------------------------------------------


def test_distributed_claims_and_crash_resume(tmp_path):
    manifest = write_synthetic_manifest(
        tmp_path / "fixture.jsonl", 12, seed=55, max_captions=2, max_boxes=3, max_qas=2
    )
    (shard_path,) = plan_shards(manifest, 1, tmp_path / "race_shards")

    rounds = 100
    for round_no in range(rounds):
        barrier = threading.Barrier(8)
        winners = []

        def contend(worker):
            barrier.wait()
            try:
                winners.append(claim_shard(shard_path, worker))
            except AlreadyClaimed:
                pass

        threads = [threading.Thread(target=contend, args=(f"w{i}",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1, f"round {round_no}: {len(winners)} winners"
        winners[0].release()

    # clean reference run
    ref_dir = tmp_path / "ref"
    plan_shards(manifest, 1, ref_dir / "shards")
    features = FeatureFlags(filtering=True, bbox_conversion=True, reduction=True)
    run_pipeline(scripted_cfg(ref_dir, manifest, features), worker_id="ref")
    ref_lines = (ref_dir / "out" / "conversations_shard_00000.jsonl").read_text().splitlines()

    # kill -9 around the sixth commit, then resume with a different worker
    for when in KILL_POINTS:
        crash_dir = tmp_path / when
        plan_shards(manifest, 1, crash_dir / "shards")
        crash_cfg = scripted_cfg(crash_dir, manifest, features)
        run_killed_worker(crash_cfg, commits=5, when=when)
        rescue_cfg = replace(crash_cfg, claim_staleness_s=RESCUE_STALENESS_S)
        resumed = run_pipeline(rescue_cfg, worker_id="rescuer")
        assert resumed["resumed"] == (5 if when == "before" else 6)
        # resume reproduces the uninterrupted run exactly, trees included
        ids, _ = assert_same_as_clean(crash_dir / "out", ref_dir / "out")
        assert ids == [json.loads(line)["id"] for line in ref_lines]
    report(
        "claim-safety",
        f"{rounds} races x 8 workers, one winner each; kill -9 before and after "
        f"a commit, then resume, yielded {len(ids)} unique ids matching the clean run",
    )


# ---------------------------------------------------------------------------
# Criterion: 1000 output records conform to the conversation schema.
# ---------------------------------------------------------------------------


def test_format_conformance_1000_records(tmp_path, determinism_runs):
    rng = random.Random(9)
    path = tmp_path / "records.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(1000):
            n_turns = rng.randint(1, 4)
            turns = tuple(
                Turn(
                    human=f"question {i}-{t}?",
                    assistant=f"answer {i}-{t}.",
                    template_id="t",
                    iteration=t,
                )
                for t in range(n_turns)
            )
            conv = Conversation(
                image=make_image(f"{i:05d}"),
                turns=turns,
                provenance={
                    "id": f"synthetic-{i}",
                    "context_chars_initial": 500,
                    "context_chars_final": 40,
                    "templates_used": ["t"] * n_turns,
                    "retries_total": 0,
                    "filtered_turns": [],
                    "image_ref": {
                        "dataset": "demo",
                        "image_id": f"{i:05d}",
                        "width": 640,
                        "height": 480,
                    },
                },
            )
            write_conversation(conv, fh)
    lines = path.read_text().splitlines()
    assert len(lines) == 1000
    bad = 0
    for line in lines:
        record = json.loads(line)
        problems = validate_conversation_record(record)
        if problems:
            bad += 1
        first = record["conversations"][0]["value"]
        assert first.startswith("<image>\n")
        assert first.count("<image>") == 1
    assert bad == 0
    # pipeline-produced records must satisfy the same schema
    for raw in determinism_runs["runs"][0]["conversations"].splitlines():
        assert validate_conversation_record(json.loads(raw)) == []
    report("format-conformance", "1000 synthetic + all pipeline records valid")
