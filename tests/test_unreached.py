"""src/ holds only what a run calls: ``scripts/unreached.py`` lists every def
that no command reaches, and each one it lists must be here with its reason."""

import os
import subprocess
import sys

from conftest import REPO_ROOT

ALLOWED = {
    "adapters:coco_captions_records": "run by scripts/convert_dataset.py, which the probe does not run",
    "adapters:object_boxes_records": "run by scripts/convert_dataset.py, which the probe does not run",
    "adapters:qa_jsonl_records": "run by scripts/convert_dataset.py, which the probe does not run",
    "cli:_cmd_tree.warn": "only on an ingest warning of the rendered record",
    "ingestion:_spill_run": "only past run_size, 50 000 records; tested with a small run_size",
    "ingestion:_read_run": "only past run_size, 50 000 records; tested with a small run_size",
    "pipeline:validate_conversation_record": "perfbench's output check calls it",
    "rle:decode": "perfbench patches it and clears its cache; it moves with ROADMAP item 1",
    "rle:foreground_area": "perfbench's self-test reads it; it moves with ROADMAP item 1",
    "scripted_server:ScriptedLlmServer.stats": "perfbench's backend reports it",
}


def test_every_unreached_def_is_allowed_with_its_reason():
    env = dict(os.environ)
    paths = (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "unreached.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # each line is "module:line qualname"; line numbers move, names do not
    unreached = {
        f"{where.split(':')[0]}:{name}"
        for where, name in (line.split(" ", 1) for line in done.stdout.splitlines())
    }
    assert sorted(unreached - ALLOWED.keys()) == [], "a def that no command reaches"
    assert sorted(ALLOWED.keys() - unreached) == [], "reached or gone: drop it from ALLOWED"


def test_importing_the_package_loads_no_module_of_it():
    env = dict(os.environ)
    paths = (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    code = "import convogen, sys; print(sorted(m for m in sys.modules if m.startswith('convogen.')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
