"""One failure boundary per image: a bad record or a bad model reply costs
that image only. The worker finishes its shard, releases its claim, and
every other image's output equals a run without the fault, byte for byte."""

import json
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convogen import rle
from convogen.config import FeatureFlags, PipelineConfig
from convogen.gateway import GatewayConfig
from convogen.metadata import record_line
from convogen.pipeline import STAGES, run_pipeline
from convogen.scripted_server import ScriptedLlmServer, default_pipeline_rules
from convogen.sharding import plan_shards

from conftest import PROMPTS_DIR
from test_pipeline import rich_record

CLEAN = [rich_record(i) for i in range(4)]
ROW_KEYS = {"image_id", "shard", "worker", "stage", "reason"}


def run_over(records: list[dict], base: Path, url: str = "", parallelism: int = 3,
             after_plan: Callable[[Path], None] = lambda manifest: None,
             ) -> tuple[dict, list[dict]]:
    """Plan one shard over ``records``, call ``after_plan`` on the manifest
    and run one worker on it; returns the summary and the lines the plan
    skipped. Without ``url`` the worker starts its own scripted server."""
    base.mkdir(parents=True, exist_ok=True)
    manifest = base / "manifest.jsonl"
    manifest.write_text("".join(record_line(r) + "\n" for r in records), encoding="utf-8")
    skipped: list[dict] = []
    plan_shards(manifest, 1, base / "shards", on_warning=skipped.append)
    after_plan(manifest)
    gateway = (
        GatewayConfig(mode="live", endpoint_url=url, backoff_base_ms=1)
        if url
        else GatewayConfig(mode="scripted", backoff_base_ms=1)
    )
    cfg = PipelineConfig(
        manifest_path=str(manifest),
        output_dir=str(base / "out"),
        prompts_dir=str(PROMPTS_DIR),
        prompts_set="staged_min",
        shard_dir=str(base / "shards"),
        rng_seed=7,
        parallelism=parallelism,
        gateway=gateway,
        features=FeatureFlags(filtering=True, bbox_conversion=True, reduction=True),
    )
    return run_pipeline(cfg, worker_id="w"), skipped


def read_lines(base: Path, kind: str) -> list[str]:
    path = base / "out" / f"{kind}_shard_00000.jsonl"
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def error_rows(base: Path) -> list[dict]:
    path = base / "out" / "errors.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def claim_released(base: Path) -> bool:
    claim = base / "shards" / "shard_00000.json.claim.1"
    return json.loads(claim.read_text(encoding="utf-8")).get("released") is True


def line_id(line: str) -> str:
    return json.loads(line)["id"]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("clean")
    summary, skipped = run_over(CLEAN, base)
    assert summary["conversations"] == len(CLEAN) and not skipped
    assert error_rows(base) == []
    return read_lines(base, "conversations"), read_lines(base, "trees")


# fields of a manifest record, as paths into it
FIELDS = [
    ("dataset",), ("image_id",), ("uri",), ("width",), ("height",),
    ("captions",), ("boxes",), ("qas",),
    ("captions", 0, "text"), ("captions", 0, "source"),
    ("boxes", 0, "label"), ("boxes", 0, "bbox"), ("boxes", 0, "attributes"),
    ("boxes", 0, "mask_rle"), ("boxes", 0, "depth_mean"), ("boxes", 0, "source"),
    ("qas", 0, "question"), ("qas", 0, "answer"), ("qas", 0, "source"),
]
WRONG_TYPES = [7, -1.5, "x", True, [], {}, [1, 2], {"a": 1}]
BAD_RUNS = ["640x480:5 -3", "640x480:10 x", "640x480:999999999", "640x480", "axb:1 2"]


@st.composite
def corrupt_records(draw, index: int) -> dict:
    """A record with one corruption: a field set to null, given the wrong
    type or dropped; a mask from another grid or with a bad run; or a
    width <= 0."""
    record = rich_record(index)
    kind = draw(st.sampled_from(["null", "wrong_type", "drop", "mask_grid", "mask_run", "width"]))
    if kind in ("null", "wrong_type", "drop"):
        *path, last = draw(st.sampled_from(FIELDS))
        parent = record
        for step in path:
            parent = parent[step]
        if kind == "drop":
            del parent[last]
        else:
            parent[last] = None if kind == "null" else draw(st.sampled_from(WRONG_TYPES))
    elif kind == "mask_grid":
        record["boxes"][0]["mask_rle"] = rle.from_bbox((1, 1, 4, 4), 64, 48)
    elif kind == "mask_run":
        record["boxes"][0]["mask_rle"] = draw(st.sampled_from(BAD_RUNS))
    else:
        record["width"] = draw(st.integers(min_value=-3, max_value=0))
    return record


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_records_cost_only_their_image(clean_run, tmp_path_factory, data):
    records = list(CLEAN)
    n_bad = data.draw(st.integers(min_value=2, max_value=4), label="corrupt records")
    for k in range(n_bad):
        bad = data.draw(corrupt_records(100 + k), label=f"corrupt {k}")
        records.insert(data.draw(st.integers(0, len(records)), label=f"position {k}"), bad)
    base = tmp_path_factory.mktemp("fuzz")

    summary, skipped = run_over(records, base)

    assert claim_released(base)
    skipped_lines = {row["line"] for row in skipped}
    assert all(records[line - 1] not in CLEAN for line in skipped_lines)
    planned = [r for line, r in enumerate(records, 1) if line not in skipped_lines]
    assert summary["images"] == len(planned)
    convs = read_lines(base, "conversations")
    rows = error_rows(base)
    for row in rows:
        assert ROW_KEYS <= set(row) and row["stage"] in STAGES, row
    covered = {str(json.loads(c)["provenance"]["image_ref"]["image_id"]) for c in convs}
    covered |= {row["image_id"] for row in rows}
    for record in planned:
        assert str(record.get("image_id", "?")) in covered, record
    clean_convs, clean_trees = clean_run
    clean_ids = {line_id(line) for line in clean_convs}
    assert [c for c in convs if line_id(c) in clean_ids] == clean_convs
    trees = read_lines(base, "trees")
    assert [t for t in trees if line_id(t) in clean_ids] == clean_trees


TARGET = "scene number 2 with"  # a caption of CLEAN[2] and of no other image
VERIFY = "Answer yes or no"
GENERATE = "exactly one question"


def targeted(stage_mark: str) -> str:
    """A fixture pattern for the target image's calls of one stage."""
    return f"(?s)^(?=.*{TARGET})(?=.*{stage_mark})"


def break_payload(stage_mark: str, mutate):
    """Wrap a server's ``respond`` so the target's replies of one stage
    come back as 200s with a body ``mutate`` has damaged."""

    def install(server: ScriptedLlmServer) -> None:
        respond = server.respond

        def respond_damaged(request, messages):
            status, payload = respond(request, messages)
            prompt = "\x1e".join(m.get("content", "") for m in messages)
            if TARGET in prompt and stage_mark in prompt:
                mutate(payload)
            return status, payload

        server.respond = respond_damaged  # the handler looks it up on the instance

    return install


def no_choices(payload: dict) -> None:
    payload.pop("choices")


def bad_usage(payload: dict) -> None:
    payload["usage"]["prompt_tokens"] = "n/a"


FAULTS = {
    "verify-400-once": ([{"pattern": targeted(VERIFY), "status": 400, "times": 1}], None,
                        "ProtocolError"),
    "generate-500-past-retries": ([{"pattern": targeted(GENERATE), "status": 500}], None,
                                  "LlmUnavailable"),
    "verify-200-without-choices": ([], break_payload(VERIFY, no_choices), "ProtocolError"),
    "generate-200-non-numeric-usage": ([], break_payload(GENERATE, bad_usage), "ProtocolError"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_scripted_fault_costs_exactly_its_image(clean_run, tmp_path, fault):
    rules, install, error = FAULTS[fault]
    server = ScriptedLlmServer(fixtures=rules + default_pipeline_rules())
    if install:
        install(server)
    with server:
        summary, _ = run_over(CLEAN, tmp_path, url=server.url)

    assert claim_released(tmp_path)
    assert summary["images"] == len(CLEAN)
    clean_convs, clean_trees = clean_run
    target_id = line_id(clean_convs[2])
    assert read_lines(tmp_path, "conversations") == [
        c for c in clean_convs if line_id(c) != target_id
    ]
    assert read_lines(tmp_path, "trees") == [t for t in clean_trees if line_id(t) != target_id]
    (row,) = error_rows(tmp_path)
    assert row["image_id"] == CLEAN[2]["image_id"]
    assert (row["shard"], row["worker"], row["stage"], row["error"]) == (
        0, "w", "generate", error
    )


def test_error_rows_are_written_in_commit_order(tmp_path):
    # the target fails late, after its generate retries; the records after
    # it are skipped or fail at once, in ingest
    no_annotations = dict(rich_record(100), captions=[], boxes=[], qas=[])
    null_bbox, bad_mask = rich_record(101), rich_record(102)
    null_bbox["boxes"][0]["bbox"] = None
    bad_mask["boxes"][0]["mask_rle"] = BAD_RUNS[0]
    records = CLEAN[:3] + [no_annotations, null_bbox, bad_mask] + CLEAN[3:]
    rules, _, error = FAULTS["generate-500-past-retries"]
    written = {}
    with ScriptedLlmServer(fixtures=rules + default_pipeline_rules()) as server:
        for parallelism in (1, 4):  # one server, so the rows name one url
            base = tmp_path / f"parallelism-{parallelism}"
            summary, _ = run_over(records, base, url=server.url, parallelism=parallelism)
            assert summary["errors"] == 4 and summary["conversations"] == 4
            written[parallelism] = (base / "out" / "errors.jsonl").read_bytes()
    rows = [json.loads(line) for line in written[1].splitlines()]
    assert [(row["image_id"], row["stage"], row.get("error")) for row in rows] == [
        ("0002", "generate", error),
        ("0100", "ingest", None),
        ("0101", "ingest", "TypeError"),
        ("0102", "ingest", None),
    ]
    assert written[4] == written[1]


def test_a_line_damaged_after_planning_costs_only_its_image(clean_run, tmp_path):
    # the plan read three whole records; the worker reads line 2 as "{" and spaces
    def damage(manifest: Path) -> None:
        lines = manifest.read_bytes().split(b"\n")
        lines[1] = b"{" + b" " * (len(lines[1]) - 1)
        manifest.write_bytes(b"\n".join(lines))

    summary, skipped = run_over(CLEAN[:3], tmp_path, after_plan=damage)
    assert not skipped
    assert (summary["images"], summary["conversations"], summary["errors"]) == (3, 2, 1)
    [row] = error_rows(tmp_path)
    assert (row["image_id"], row["stage"], row["error"]) == ("?", "ingest", "JSONDecodeError")
    conversations, trees = clean_run
    assert read_lines(tmp_path, "conversations") == [conversations[0], conversations[2]]
    assert read_lines(tmp_path, "trees") == [trees[0], trees[2]]
    assert claim_released(tmp_path)
