"""Pipeline configuration: one JSON document, env overrides for credentials."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .gateway import GatewayConfig
from .generation import GenerationParams
from .scene_tree import SceneTreeParams


@dataclass
class FeatureFlags:
    filtering: bool = False
    bbox_conversion: bool = False
    reduction: bool = False

    @classmethod
    def parse(cls, spec: str) -> "FeatureFlags":
        """Comma list, e.g. ``filtering,bbox,reduction`` (empty = all off)."""
        aliases = {
            "filtering": "filtering",
            "filter": "filtering",
            "bbox": "bbox_conversion",
            "bbox_conversion": "bbox_conversion",
            "reduction": "reduction",
            "reduce": "reduction",
        }
        flags = cls()
        for token in (t.strip() for t in spec.split(",") if t.strip()):
            if token not in aliases:
                raise ConfigError(f"unknown feature {token!r}")
            setattr(flags, aliases[token], True)
        return flags


@dataclass
class PipelineConfig:
    manifest_path: str = ""
    output_dir: str = "out"
    prompts_dir: str = "prompts"
    prompts_set: str = "default"
    shard_dir: Optional[str] = None       # default: <output_dir>/shards
    rng_seed: int = 0
    parallelism: int = 4
    reduce_mode: str = "llm"              # "llm" | "lexical"
    heartbeat_s: float = 30.0
    claim_staleness_s: float = 300.0
    scripted_fixtures: Optional[str] = None
    scripted_latency_base_ms: float = 0.0
    scripted_latency_per_char_ms: float = 0.0
    generation: GenerationParams = field(default_factory=GenerationParams)
    scene: SceneTreeParams = field(default_factory=SceneTreeParams)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    features: FeatureFlags = field(default_factory=FeatureFlags)

    def resolved_shard_dir(self) -> Path:
        return Path(self.shard_dir) if self.shard_dir else Path(self.output_dir) / "shards"


_NESTED = {
    "generation": GenerationParams,
    "scene": SceneTreeParams,
    "gateway": GatewayConfig,
    "features": FeatureFlags,
}


def build_section(cls, data: dict):
    """One dataclass from a JSON object; a value that is not an object,
    unknown or missing keys and rejected values are config errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    cfg = build_section(PipelineConfig, data)
    for name, cls in _NESTED.items():
        if name in data:
            setattr(cfg, name, build_section(cls, data[name]))
    if cfg.reduce_mode not in ("llm", "lexical"):
        raise ConfigError(f"bad reduce_mode {cfg.reduce_mode!r}")
    cfg.gateway = cfg.gateway.with_env_overrides()
    return cfg


def load_config(path: str | Path, check_paths: bool = True) -> PipelineConfig:
    """Parse and validate the config document; all referenced paths must
    exist at startup."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = config_from_dict(data)
    if check_paths:
        required = [cfg.manifest_path, str(Path(cfg.prompts_dir) / cfg.prompts_set)]
        required += [cfg.scripted_fixtures] if cfg.scripted_fixtures else []
        for ref in required:
            if not ref or not Path(ref).exists():
                raise ConfigError(f"referenced path does not exist: {ref!r}")
    return cfg
