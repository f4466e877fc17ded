"""Pipeline configuration: one JSON document, env overrides for credentials."""

from __future__ import annotations

import json
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Literal, Optional

from .errors import ConfigError
from .gateway import ENV_ENDPOINT, GatewayConfig
from .generation import GenerationParams
from .scene_tree import SceneTreeParams


@dataclass
class FeatureFlags:
    filtering: bool = False
    bbox_conversion: bool = False
    reduction: bool = False


@dataclass
class PipelineConfig:
    manifest_path: str = ""
    output_dir: str = "out"
    prompts_dir: str = "prompts"
    prompts_set: str = "default"
    shard_dir: Optional[str] = None       # default: <output_dir>/shards
    rng_seed: int = 0
    parallelism: int = 4
    reduce_mode: Literal["llm", "lexical"] = "llm"
    claim_staleness_s: float = 300.0
    scripted_fixtures: Optional[str] = None
    scripted_latency_base_ms: float = 0.0
    scripted_latency_per_char_ms: float = 0.0
    generation: GenerationParams = field(default_factory=GenerationParams)
    scene: SceneTreeParams = field(default_factory=SceneTreeParams)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    features: FeatureFlags = field(default_factory=FeatureFlags)

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError(f"parallelism {self.parallelism} must be at least 1")
        if self.claim_staleness_s <= 0:
            # every claim, a live worker's own included, would be stale at once
            raise ValueError(f"claim_staleness_s {self.claim_staleness_s} must be above 0")

    def resolved_shard_dir(self) -> Path:
        return Path(self.shard_dir) if self.shard_dir else Path(self.output_dir) / "shards"


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: ``bool`` is not an
    ``int``, an ``int`` is a ``float``."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in typing.get_args(hint))
    if origin is typing.Literal:
        return any(type(value) is type(a) and value == a for a in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def build_section(cls, data: dict):
    """One dataclass from a JSON object; a value that is not an object,
    unknown or missing keys, a value of the wrong type and rejected values
    are config errors. A dataclass-typed field is built from its object."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    values = dict(data)
    for name, value in data.items():
        hint = hints[name]
        if is_dataclass(hint):
            values[name] = build_section(hint, value)
        elif not _matches(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"bad {cls.__name__}.{name}: {value!r} is not {expected}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def config_from_dict(data: dict) -> PipelineConfig:
    cfg = build_section(PipelineConfig, data)
    try:
        cfg.gateway = cfg.gateway.with_env_overrides()
    except ValueError as exc:
        raise ConfigError(f"bad {ENV_ENDPOINT}: {exc}") from exc
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate the config document. The files it names are
    checked by the code that opens them."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
