#!/usr/bin/env python3
"""Benchmark one workload of the convogen pipeline.

    python3 perfbench/run.py --workload text-staged --seed 1 --seconds 30 --trace 0

Run from the repository root. Prints every metric by name and unit, the
output digests and checks, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``). Work
files go to ``.perfbench_work/<workload>/`` under the root; the traced run
also writes its spans there as ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("text-staged", "dense-masks", "full-modeled")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "convogen" / "__init__.py").is_file() or not (ROOT / "prompts").is_dir():
        print(f"no convogen sources under {ROOT}: expected src/convogen and prompts/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace), ROOT, work)

    attempted = sum(p.check.images for p in result.passes)
    failed = sum(p.check.failed for p in result.passes)
    plain = [p for p in result.passes if not p.traced and p.run_s > 0]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"parallelism {harness.PARALLELISM}")
    print(f"batches {len(plain)}  images {sum(p.check.images for p in plain)}  "
          f"conversations {sum(p.check.conversations for p in plain)}")
    if plain:
        print(f"conversations_sha256 batch 0: {plain[0].check.conversations_sha256}")
    for name, (value, unit) in result.end_to_end.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    if result.per_layer:
        for name, (value, unit) in result.per_layer.items():
            print(f"  {name:<44} {value:>14.4f} {unit}")
        m = {name: value for name, (value, _) in result.per_layer.items()}
        print(f"per call: gateway transport {m['gateway.transport_ms.mean']:.2f} ms mean, "
              f"backend service {m['scripted_server.service_ms.p50']:.2f} ms p50")
        print(f"per image: scene_tree build {m['scene_tree.build_ms.p50']:.2f} ms p50 over "
              f"{m['scene_tree.overlap_calls_per_image']:.1f} overlap calls")
        counts = Counter(span.name for span in result.tracer.spans)
        print("spans: " + ", ".join(f"{name} {n}" for name, n in sorted(counts.items())))
        result.tracer.write(work / "spans.jsonl")
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    (work / "report.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "batches": [
            {"batch": p.batch, "traced": p.traced, "setup_s": p.setup_s, "run_s": p.run_s,
             "cpu_s": p.cpu_s, "images": p.check.images,
             "conversations": p.check.conversations,
             "conversations_sha256": p.check.conversations_sha256}
            for p in result.passes
        ],
        "problems": result.problems,
    }, indent=1), encoding="utf-8")

    metrics = result.per_layer if args.trace else {
        name: result.end_to_end[name] for name, _, _ in harness.END_TO_END
        if name in result.end_to_end
    }
    print(json.dumps({
        "correct": not result.problems and failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
