"""Crash a pipeline worker with a real SIGKILL, and check what it leaves.

``run_killed_worker`` runs ``run_pipeline`` in a child process whose
``pipeline.write_conversation`` makes the process SIGKILL itself once
``commits`` conversations are written: just before the next conversation
append (``"before"``) or just after it (``"after"``). The claim, its
heartbeat, the open output files and the scripted server all die with the
process, as in a real crash, so a rescuer must take the shard over.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from convogen import pipeline
from convogen.config import PipelineConfig, config_from_dict

KILL_POINTS = ("before", "after")
# a rescuer's claim staleness: the dead worker's claim, however young, is stale
RESCUE_STALENESS_S = 1e-6
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def run_killed_worker(cfg: PipelineConfig, commits: int, when: str, worker_id: str = "victim") -> None:
    """Run one worker in a child process until it is killed at ``when``."""
    assert when in KILL_POINTS, when
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, __file__, json.dumps(asdict(cfg)), worker_id, str(commits), when],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr


def assert_same_as_clean(out_dir: Path, clean_dir: Path) -> tuple[list[str], list[str]]:
    """Every line of every shard output parses, no id repeats, every tree
    belongs to a conversation, and each file equals the clean run's byte for
    byte. Returns the conversation ids and the tree ids."""
    ids = {}
    for kind in ("conversations", "trees"):
        clean_files = sorted(clean_dir.glob(f"{kind}_shard_*.jsonl"))
        assert clean_files, f"clean run wrote no {kind}"
        ids[kind] = []
        for clean in clean_files:
            resumed = out_dir / clean.name
            file_ids = [json.loads(line)["id"] for line in resumed.read_text().splitlines()]
            assert len(file_ids) == len(set(file_ids)), f"duplicate ids in {resumed.name}"
            assert resumed.read_bytes() == clean.read_bytes(), f"{resumed.name} differs"
            ids[kind] += file_ids
    assert set(ids["trees"]) <= set(ids["conversations"]), "tree without its conversation"
    return ids["conversations"], ids["trees"]


def _main(cfg_json: str, worker_id: str, commits_arg: str, when: str) -> None:
    cfg = config_from_dict(json.loads(cfg_json))
    commits = int(commits_arg)
    real_write = pipeline.write_conversation
    written = 0

    def write_then_die(conv, out):
        nonlocal written
        if when == "before" and written == commits:
            os.kill(os.getpid(), signal.SIGKILL)
        real_write(conv, out)
        written += 1
        if when == "after" and written == commits + 1:
            os.kill(os.getpid(), signal.SIGKILL)

    pipeline.write_conversation = write_then_die
    pipeline.run_pipeline(cfg, worker_id=worker_id)


if __name__ == "__main__":
    _main(*sys.argv[1:])
