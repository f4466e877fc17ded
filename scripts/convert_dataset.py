#!/usr/bin/env python3
"""Convert a raw dataset file into the unified manifest format.

Adapters: coco-captions (COCO-style captions JSON), object-boxes
(Visual-Genome-style objects JSON), qa-jsonl (one QA row per line).
See convogen.adapters for the adapter contract.
"""

import argparse

from convogen.adapters import ADAPTERS
from convogen.ingestion import publish
from convogen.metadata import record_line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--adapter", required=True, choices=sorted(ADAPTERS))
    parser.add_argument("--source", required=True, help="raw dataset file")
    parser.add_argument("--dataset-id", required=True)
    parser.add_argument("--out", required=True, help="output manifest JSONL")
    args = parser.parse_args()
    records = ADAPTERS[args.adapter](args.source, args.dataset_id)
    count = publish(args.out, (record_line(record) + "\n" for record in records))
    print(f"wrote {count} records to {args.out}")


if __name__ == "__main__":
    main()
