"""Golden output: the bytes fixed inputs produce, checked in.

The run-vs-run determinism test in ``test_acceptance.py`` compares two runs
of the same code, so it cannot notice a change that alters the output. These
files pin the output itself, in three byte gates:

- a scripted 8-image run in direct mode (every feature off);
- a scripted 8-image run in staged mode (filtering, bbox conversion and
  reduction on, plus its trees). The fixture rules add a verifier that
  rejects some turns and a filter that drops others, so the retry, verify
  and filter bookkeeping all show up in the provenance;
- the scene trees of 8 crowded records (10-30 boxes each, most with masks),
  built with no model at all. The staged run's few small trees barely reach
  merging, containment over masks or grouping; these do.

Re-record only for an intended change of output, and say so in the change:
``PYTHONPATH=src python tests/test_golden.py`` rewrites all three.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from convogen.config import FeatureFlags, PipelineConfig
from convogen.gateway import GatewayConfig
from convogen.ingestion import load_bundle
from convogen.pipeline import run_pipeline
from convogen.scene_tree import SceneTreeParams, build_scene_tree
from convogen.scripted_server import default_pipeline_rules
from convogen.sharding import plan_shards
from convogen.synth import write_synthetic_manifest

DATA_DIR = Path(__file__).resolve().parent / "data"
PROMPTS_DIR = Path(__file__).resolve().parents[1] / "prompts"
DENSE_RECORDS = DATA_DIR / "golden_dense_records.jsonl"
DENSE_TREES = DATA_DIR / "golden_dense_trees.jsonl"

CASES = {
    "direct": FeatureFlags(),
    "staged": FeatureFlags(filtering=True, bbox_conversion=True, reduction=True),
}

# placed before the default rules, so they win for the turns they match
EXTRA_RULES = [
    {"pattern": r"Assistant: [^\n]*\bcar\b[^\n]*\n\nIs the exchange", "response": "No."},
    {"pattern": r"Assistant: [^\n]*\bdog\b[^\n]*\n\nReply KEEP or DROP",
     "response": "DROP: about a dog"},
]


def golden_paths(case: str) -> dict[str, Path]:
    paths = {"conversations": DATA_DIR / f"golden_{case}_conversations.jsonl"}
    if CASES[case].bbox_conversion:
        paths["trees"] = DATA_DIR / f"golden_{case}_trees.jsonl"
    return paths


def run_case(case: str, base: Path) -> dict[str, bytes]:
    """Run the case's scripted pipeline under ``base``; returns its output bytes."""
    features = CASES[case]
    manifest = write_synthetic_manifest(
        base / "fixture.jsonl", 8, seed=7, max_captions=2, max_boxes=4, max_qas=2
    )
    fixtures = base / "fixtures.jsonl"
    fixtures.write_text(
        "".join(json.dumps(rule) + "\n" for rule in EXTRA_RULES + default_pipeline_rules()),
        encoding="utf-8",
    )
    plan_shards(manifest, 1, base / "shards")
    cfg = PipelineConfig(
        manifest_path=str(manifest),
        output_dir=str(base / "out"),
        prompts_dir=str(PROMPTS_DIR),
        prompts_set="staged_min" if features.reduction else "direct_min",
        shard_dir=str(base / "shards"),
        rng_seed=123,
        parallelism=2,
        scripted_fixtures=str(fixtures),
        gateway=GatewayConfig(mode="scripted", backoff_base_ms=1),
        features=features,
    )
    run_pipeline(cfg, worker_id=f"golden-{case}")
    return {
        kind: (base / "out" / f"{kind}_shard_00000.jsonl").read_bytes()
        for kind in golden_paths(case)
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_scripted_output_matches_golden(case, tmp_path):
    outputs = run_case(case, tmp_path)
    for kind, path in golden_paths(case).items():
        assert outputs[kind] == path.read_bytes(), f"{case} {kind} differ from {path.name}"
    assert outputs["conversations"].count(b"\n") > 0


def dense_trees() -> bytes:
    """One line per dense record: its image id and the tree that
    ``build_scene_tree`` builds, with default parameters, from the boxes
    ``load_bundle`` admits."""
    lines = []
    for line in DENSE_RECORDS.read_text(encoding="utf-8").splitlines():
        bundle = load_bundle(json.loads(line))
        tree = build_scene_tree(list(bundle.boxes), bundle.image, SceneTreeParams())
        lines.append(json.dumps({"image_id": bundle.image.image_id, "tree": tree}) + "\n")
    return "".join(lines).encode("utf-8")


def test_dense_trees_match_golden():
    assert dense_trees() == DENSE_TREES.read_bytes(), f"trees differ from {DENSE_TREES.name}"


if __name__ == "__main__":
    DENSE_TREES.write_bytes(dense_trees())
    print(f"dense trees: {len(DENSE_RECORDS.read_text().splitlines())} records", file=sys.stderr)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for kind, data in run_case(name, Path(tmp)).items():
                golden_paths(name)[kind].write_bytes(data)
                print(f"{name} {kind}: {len(data.splitlines())} lines", file=sys.stderr)
