"""Command-line entry points.

Subcommands: ingest, plan, run, tree (debug render), validate (manifest
linting). Exit codes: 0 success, 1 validation findings, 2 config error,
3 endpoint unreachable, 4 runtime error (including a run that processed
images but committed no conversation).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import FeatureFlags, load_config
from .errors import ConfigError, LlmUnavailable, PipelineError
from .ingestion import (
    group_by_image,
    load_bundle,
    load_id_map,
    load_manifest,
    load_registry,
    open_input,
    write_manifest,
)
from .pipeline import run_pipeline
from .scene_tree import SceneTreeParams, build_scene_tree
from .sharding import plan_shards

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2
EXIT_ENDPOINT = 3
EXIT_RUNTIME = 4


def _cmd_ingest(args) -> int:
    registry = load_registry(args.registry)
    id_map = load_id_map(args.id_map) if args.id_map else None
    warnings: list[str] = []

    def warn_at(prefix: str):
        def warn(warning: dict) -> None:
            where = (f"line {warning['line']}" if "line" in warning
                     else f"image {warning.get('image_id', '?')}")
            warnings.append(f"warning: {prefix}{where}: {warning['reason']}")
            print(warnings[-1], file=sys.stderr)
        return warn

    def all_bundles():
        for desc in registry.values():
            prefix = f"manifest {desc.manifest_path}, "
            yield from load_manifest(desc.manifest_path, warn_at(prefix))

    grouped = group_by_image(all_bundles(), registry, id_map, on_warning=warn_at(""))
    count = write_manifest(grouped, args.out)
    print(f"wrote {count} grouped records to {args.out} ({len(warnings)} warnings)")
    return EXIT_OK


def _cmd_plan(args) -> int:
    registry = load_registry(args.registry) if args.registry else None
    id_map = load_id_map(args.id_map) if args.id_map else None
    skipped: list[dict] = []
    paths = plan_shards(
        args.manifest, args.shards, args.out_dir, registry, id_map, skipped.append
    )
    total = sum(len(json.loads(p.read_text())["offsets"]) for p in paths)
    print(f"planned {len(paths)} shards over {total} records in {args.out_dir}")
    if skipped:
        lines = ", ".join(str(s["line"]) for s in skipped)
        print(f"skipped {len(skipped)} unparseable lines: {lines}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.features is not None:
        cfg.features = FeatureFlags.parse(args.features)
    if args.seed is not None:
        cfg.rng_seed = args.seed
    if args.scripted_fixtures:
        cfg.scripted_fixtures = args.scripted_fixtures
        cfg.gateway.mode = "scripted"
    shard_filter = (
        {int(s) for s in args.shards.split(",")} if args.shards else None
    )
    summary = run_pipeline(cfg, worker_id=args.worker_id, shard_filter=shard_filter)
    print(
        f"worker {summary['worker_id']}: {summary['conversations']} conversations "
        f"from {summary['images']} images in {summary['wall_s']}s "
        f"({summary['conversations_per_hour']}/hour), {summary['errors']} errors"
    )
    if summary["images"] and not summary["conversations"]:
        # every image failed or was skipped: a systematic fault, not a success
        print(
            f"runtime error: no conversation from {summary['images']} images; "
            f"see {cfg.output_dir}/errors.jsonl",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_tree(args) -> int:
    """Render the tree ``run`` builds: the record goes through the same
    ingest (sidecars, mask checks, clamping), and its warnings go to stderr.
    Lines that are not JSON objects are skipped; a selected record that
    ingest rejects is a config error naming its line."""
    params = SceneTreeParams()
    if args.config:
        params = load_config(args.config).scene

    def warn(warning: dict) -> None:
        print(f"warning: {warning['reason']}", file=sys.stderr)

    base_dir = Path(args.manifest).resolve().parent
    with open_input(args.manifest, "manifest") as fh:
        for index, line in enumerate(fh):
            if args.index is not None and index != args.index:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if args.image_id is not None and str(record.get("image_id")) != args.image_id:
                continue
            try:
                bundle = load_bundle(record, warn, base_dir=base_dir)
            except Exception as exc:  # whatever ingest raises, as in load_manifest
                raise ConfigError(
                    f"manifest {args.manifest}, line {index + 1}: unparseable record: {exc!r}"
                ) from exc
            ascii_tree = build_scene_tree(list(bundle.boxes), bundle.image, params)
            print(f"# {bundle.image.uri} ({bundle.image.width}x{bundle.image.height})")
            print(ascii_tree if ascii_tree else "(no regions)")
            return EXIT_OK
    print("record not found", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_validate(args) -> int:
    problems: list[dict] = []
    seen: set[tuple[str, str]] = set()
    count = 0
    for bundle in load_manifest(args.manifest, problems.append):
        count += 1
        key = (bundle.image.dataset_id, bundle.image.image_id)
        if key in seen:
            problems.append(
                {"image_id": bundle.image.image_id, "reason": "duplicate (dataset, image_id)"}
            )
        seen.add(key)
        if not bundle.is_admissible:
            problems.append(
                {"image_id": bundle.image.image_id, "reason": "record has no annotations"}
            )
    print(f"checked {count} records: {len(problems)} problems")
    for problem in problems[: args.limit]:
        print(f"  {problem}")
    return EXIT_FINDINGS if problems else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convogen",
        description="Convert image metadata manifests into instruction conversations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="merge dataset manifests into one grouped manifest")
    p.add_argument("--registry", required=True, help="registry config JSON")
    p.add_argument("--out", required=True, help="output grouped manifest JSONL")
    p.add_argument("--id-map", default=None, help="optional id-map sidecar JSONL")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("plan", help="partition a grouped manifest into shard files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--id-map", default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="claim shards and generate conversations")
    p.add_argument("--config", required=True)
    p.add_argument("--worker-id", default="worker-0")
    p.add_argument("--shards", default=None, help="comma list of shard ids to attempt")
    p.add_argument("--features", default=None, help="e.g. filtering,bbox,reduction")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scripted-fixtures", default=None, help="fixture JSONL; forces scripted mode")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tree", help="print the ASCII scene tree for one record")
    p.add_argument("--manifest", required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--image-id", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("validate", help="lint a unified manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--limit", type=int, default=20, help="max problems to print")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LlmUnavailable as exc:
        print(f"endpoint unreachable: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except PipelineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
