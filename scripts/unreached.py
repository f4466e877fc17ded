#!/usr/bin/env python3
"""List every ``def`` in the convogen package that no command reaches.

Runs ``ingest`` (with a registry and an id map), ``plan``, ``run`` (scripted:
features off, all features with LLM reduction, all with lexical reduction,
all without reduction, then that run again as a second worker that resumes
every image), ``tree`` and ``validate`` on a small synthetic corpus, plus
one live-mode ``run`` against a ``ScriptedLlmServer``, under a
``sys.setprofile`` hook on every thread. Prints each function or method
defined in ``src/convogen`` whose code never ran, one per line as
``module:line qualname``.

    PYTHONPATH=src python scripts/unreached.py [--work-dir DIR] [--images N]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

import convogen
from convogen.cli import main as cli
from convogen.scripted_server import ScriptedLlmServer, default_pipeline_rules
from convogen.synth import write_synthetic_manifest

PACKAGE_DIR = Path(convogen.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[1]


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> qualified name, for every
    def in the package; a decorated def's code starts at its first decorator."""
    found = {}

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", str(path))
    return found


def write_corpus(work: Path, images: int) -> dict[str, Path]:
    """Three datasets: two share image ids (and, drawn from one seed, image
    sizes) in a "coco" namespace, one links by file stem and has an id-map
    entry and a line that is not JSON, which ingest reports as a warning."""
    entries = []
    for dataset, namespace, seed in [
        ("coco-a", "coco", 0), ("coco-b", "coco", 0), ("stems", "file-stem", 1)
    ]:
        manifest = write_synthetic_manifest(
            work / f"{dataset}.jsonl", images, seed=seed, dataset=dataset, max_boxes=8
        )
        if namespace == "file-stem":
            with open(manifest, "a", encoding="utf-8") as fh:
                fh.write("{not json\n")
        entries.append(
            {"dataset_id": dataset, "manifest_path": str(manifest), "link_namespace": namespace}
        )
    registry = work / "registry.json"
    registry.write_text(json.dumps(entries), encoding="utf-8")
    id_map = work / "id_map.jsonl"
    id_map.write_text(
        json.dumps({"dataset": "stems", "image_id": "000001", "canonical_id": "STEMS_000001"})
        + "\n",
        encoding="utf-8",
    )
    return {"registry": registry, "id_map": id_map, "grouped": work / "grouped.jsonl"}


def run_config(work: Path, name: str, grouped: Path, **overrides) -> str:
    data = {
        "manifest_path": str(grouped),
        "output_dir": str(work / f"out-{name}"),
        "prompts_dir": str(REPO_ROOT / "prompts"),
        "prompts_set": "default",
        "shard_dir": str(work / "shards"),
        "parallelism": 2,
        "claim_staleness_s": 0.1,  # so the committer refreshes the claims during a run
        "gateway": {"mode": "scripted", "backoff_base_ms": 1},
        **overrides,
    }
    path = work / f"config-{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def exercise(work: Path, images: int) -> None:
    files = write_corpus(work, images)
    linking = ["--registry", str(files["registry"]), "--id-map", str(files["id_map"])]
    grouped = files["grouped"]
    commands = [
        ["ingest", "--out", str(grouped), *linking],
        ["plan", "--manifest", str(grouped), "--shards", "2",
         "--out-dir", str(work / "shards"), *linking],
        ["run", "--config", run_config(work, "off", grouped), "--features", ""],
        ["run", "--config", run_config(work, "reduce", grouped),
         "--features", "filtering,bbox,reduction"],
        ["run", "--config", run_config(work, "lexical", grouped, reduce_mode="lexical"),
         "--features", "filtering,bbox,reduction"],
        ["run", "--config", run_config(work, "direct", grouped), "--features", "filtering,bbox"],
        # a second worker over finished shards resumes every image
        ["run", "--config", str(work / "config-direct.json"), "--features", "filtering,bbox",
         "--worker-id", "worker-1"],
        ["tree", "--manifest", str(grouped), "--index", "0"],
        ["validate", "--manifest", str(grouped)],
    ]
    for argv in commands:
        code = cli(argv)
        if code not in (0, 1):  # validate reports findings with 1
            raise SystemExit(f"convogen {argv[0]} exited {code}")
    with ScriptedLlmServer(fixtures=default_pipeline_rules()) as server:
        live = run_config(work, "live", grouped,
                          gateway={"mode": "live", "endpoint_url": server.url})
        code = cli(["run", "--config", live, "--features", "filtering,bbox,reduction"])
        if code != 0:
            raise SystemExit(f"live convogen run exited {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--work-dir", default=None, help="default: a temporary directory")
    parser.add_argument("--images", type=int, default=12, help="records per dataset")
    args = parser.parse_args()

    reached: set[tuple[str, int]] = set()
    package = str(PACKAGE_DIR)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with contextlib.ExitStack() as stack:
        work = Path(args.work_dir or stack.enter_context(tempfile.TemporaryDirectory()))
        work.mkdir(parents=True, exist_ok=True)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                exercise(work, args.images)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    for (path, line), name in sorted(defined_functions().items()):
        if (path, line) not in reached:
            print(f"{Path(path).stem}:{line} {name}")


if __name__ == "__main__":
    main()
