"""Deterministic manifest partitioning and file-based worker coordination.

Ownership of a shard comes in generations. Generation ``g`` is the file
``<shard>.claim.<g>``, and the newest generation is the claim in force. A
claimer publishes its whole body with an exclusive link to the next
generation's name (``ingestion.publish``), so a claim never appears without
its body, and of any number of workers that read the same released or
stale generation exactly one publishes its successor. Workers
never delete claim files, so no generation is reused; the holder of a
superseded generation sees the newer file and stops refreshing, releasing
or committing output under its claim (a fencing token). A live claim's
body is a JSON object with a numeric heartbeat within the staleness window
and no ``released`` mark; any other body is not live. A claim
starts no thread: the worker's committer refreshes the claims it holds.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import AlreadyClaimed, ConfigError
from .ingestion import DatasetDescriptor, WarnFn, ignore_warning, link_key, open_input, publish


def stable_shard(canonical_key: str, n: int) -> int:
    """Process-independent hash partition (never Python's hash())."""
    digest = hashlib.md5(canonical_key.encode("utf-8")).hexdigest()
    return int(digest, 16) % n


def plan_shards(
    manifest_path: str | Path,
    n: int,
    out_dir: str | Path,
    registry: Optional[dict[str, DatasetDescriptor]] = None,
    id_map: Optional[dict] = None,
    on_warning: WarnFn = ignore_warning,
) -> list[Path]:
    """Partition records by link-key hash mod n into shard index files.

    Only the fields a link key is made of are read: the rest of a record is
    checked when its image runs. A line that is not a JSON record with
    those fields is left out and reported to ``on_warning`` with its line
    number. Two records with one link key would get one conversation id,
    so a repeated key is a ConfigError, raised before any file is written.
    """
    if n < 1:
        raise ConfigError(f"shard count {n} must be at least 1")
    shards: list[dict] = [
        {"shard_id": i, "manifest": str(Path(manifest_path).resolve()), "offsets": [], "keys": []}
        for i in range(n)
    ]
    first_line: dict[str, int] = {}
    with open_input(manifest_path, "manifest", "rb") as fh:
        offset = 0
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line:
                try:
                    record = json.loads(line.decode("utf-8"))
                    key = str(link_key(record["dataset"], str(record["image_id"]),
                                       record["uri"], registry, id_map))
                except Exception as exc:
                    on_warning({"line": lineno, "reason": f"unparseable record: {exc!r}"})
                else:
                    first = first_line.setdefault(key, lineno)
                    if first != lineno:
                        raise ConfigError(
                            f"manifest {manifest_path}, line {lineno}: link key {key} "
                            f"repeats line {first} (plan what ingest grouped, with its "
                            "registry and id map)"
                        )
                    shard = shards[stable_shard(key, n)]
                    shard["offsets"].append(offset)
                    shard["keys"].append(key)
            offset += len(raw)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for shard in shards:
        path = out_dir / f"shard_{shard['shard_id']:05d}.json"
        publish(path, [json.dumps(shard)])
        paths.append(path)
    return paths


def load_shard(path: str | Path) -> dict:
    """Read a shard file; anything but a JSON object with the fields
    ``plan_shards`` writes is a ConfigError naming the file."""
    try:
        shard = json.loads(Path(path).read_text(encoding="utf-8"))
        if {"shard_id", "manifest", "offsets", "keys"} <= shard.keys():
            return shard
    except (ValueError, AttributeError):
        pass
    raise ConfigError(
        f"damaged shard file {path}: not a JSON object with shard_id, manifest, offsets and keys"
    )


@dataclass
class ShardClaim:
    """One generation of ownership of a shard, used by one thread.

    The generation is a fencing token: it is never reused, and a later
    generation always supersedes an earlier one, so a deposed holder can
    detect that it lost the shard and leaves its successor's claim alone.
    A released claim never refreshes, so no refresh undoes a release.
    """

    shard_id: int
    worker_id: str
    heartbeat: float
    shard_path: Path
    generation: int
    released: bool = False

    @property
    def path(self) -> Path:
        return claim_path_for(self.shard_path, self.generation)

    def _body(self, **extra) -> str:
        return json.dumps(
            {
                "shard_id": self.shard_id,
                "worker_id": self.worker_id,
                "heartbeat": self.heartbeat,
                "generation": self.generation,
                **extra,
            }
        )

    def is_current(self) -> bool:
        """False once a later generation has been published for the shard.

        Generations are published in order and never deleted, so one stat
        of the next generation's file answers this.
        """
        return not claim_path_for(self.shard_path, self.generation + 1).exists()

    def refresh(self) -> bool:
        """Atomically rewrite the claim with a fresh heartbeat.

        Returns False, and writes nothing, once the claim is released or
        superseded.
        """
        if self.released or not self.is_current():
            return False
        self.heartbeat = time.time()
        publish(self.path, [self._body()])
        return True

    def release(self) -> None:
        """Mark the claim released so the shard can be claimed again; a
        superseded claim is left as it is."""
        self.released = True
        if self.is_current():
            publish(self.path, [self._body(released=True)])


def claim_path_for(shard_path: str | Path, generation: int) -> Path:
    return Path(f"{shard_path}.claim.{generation}")


def current_generation(shard_path: str | Path) -> int:
    """Highest claim generation published for the shard; 0 if none.

    Generations are dense: g + 1 is published only by a claimer that saw g,
    and claim files are never deleted, so a walk up from 0 finds it without
    listing the directory.
    """
    generation = 0
    while claim_path_for(shard_path, generation + 1).exists():
        generation += 1
    return generation


def claim_shard(
    shard_path: str | Path,
    worker_id: str,
    staleness_s: float = 300.0,
    shard_id: Optional[int] = None,
) -> ShardClaim:
    """Claim the shard by publishing its next generation.

    Raises AlreadyClaimed when the newest generation is unreleased and its
    heartbeat is within ``staleness_s``, or when another worker publishes
    the next generation first. A given ``shard_id`` spares reading the shard.
    """
    shard_path = Path(shard_path)
    if shard_id is None:
        shard_id = load_shard(shard_path)["shard_id"]
    current = current_generation(shard_path)
    if current:
        holder = claim_path_for(shard_path, current)
        try:
            existing = json.loads(holder.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = None
        heartbeat = existing.get("heartbeat") if isinstance(existing, dict) else None
        numeric = isinstance(heartbeat, (int, float)) and not isinstance(heartbeat, bool)
        if numeric and not existing.get("released") and time.time() - heartbeat <= staleness_s:
            raise AlreadyClaimed(f"{holder} held by a live worker")
    claim = ShardClaim(
        shard_id=shard_id,
        worker_id=worker_id,
        heartbeat=time.time(),
        shard_path=shard_path,
        generation=current + 1,
    )
    try:
        publish(claim.path, [claim._body()], exclusive=True)
    except FileExistsError:
        raise AlreadyClaimed(f"{claim.path} published by another worker") from None
    return claim
