"""Prompt templates: storage, weighted sampling, rendering, reply parsing.

Templates live as plain text files under ``prompts/<set>/<id>.txt`` next to
a ``distribution.json`` that maps template ids to weights (optionally with
intent and required context origins).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .context import ORIGINS, ContextSet
from .errors import ConfigError, NoCompatibleTemplate, UnresolvedPlaceholder

INTENTS = ("conversation", "detailed_description", "complex_reasoning", "custom")
KNOWN_PLACEHOLDERS = ("{context}", "{image_size}")

_PLACEHOLDER = re.compile(r"\{[a-z_]+\}")

# speaker markers accepted at start of line, case-insensitive
_HUMAN_MARKERS = ("human", "question", "user")
_MARKER = re.compile(
    r"^[ \t]*(?:\*\*)?(human|question|user|assistant|answer|gpt)(?:\*\*)?[ \t]*:[ \t]*",
    re.IGNORECASE | re.MULTILINE,
)


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    intent: str = "custom"
    compat: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "compat", frozenset(self.compat))
        if "{context}" not in self.body:
            raise ValueError(f"template {self.template_id!r} lacks {{context}}")
        unknown = [
            tok for tok in _PLACEHOLDER.findall(self.body) if tok not in KNOWN_PLACEHOLDERS
        ]
        if unknown:
            raise UnresolvedPlaceholder(f"no value for {unknown[0]} in {self.template_id!r}")
        if self.intent not in INTENTS:
            raise ValueError(f"unknown intent {self.intent!r}")
        stray = self.compat.difference(ORIGINS)
        if stray:
            raise ValueError(f"unknown origins {sorted(map(str, stray))} in {self.template_id!r}")


@dataclass(frozen=True)
class PromptDistribution:
    entries: tuple[tuple[str, float], ...]
    templates: Mapping[str, PromptTemplate] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((tid, float(w)) for tid, w in self.entries))
        if not self.entries:
            raise ValueError("distribution has no entries")
        for tid, weight in self.entries:
            if weight <= 0:
                raise ValueError(f"weight for {tid!r} must be > 0")
            if tid not in self.templates:
                raise ValueError(f"template id {tid!r} is not resolvable")


def sample_template(
    dist: PromptDistribution, ctx: ContextSet, rng: random.Random
) -> PromptTemplate:
    """Weighted draw over the entries compatible with the context's origins."""
    present = ctx.origins()
    pool = [
        (tid, weight)
        for tid, weight in dist.entries
        if dist.templates[tid].compat <= present
    ]
    if not pool:
        raise NoCompatibleTemplate(
            f"no template compatible with origins {sorted(present)}"
        )
    total = sum(weight for _, weight in pool)
    x = rng.random() * total
    acc = 0.0
    for tid, weight in pool:
        acc += weight
        if x < acc:
            return dist.templates[tid]
    return dist.templates[pool[-1][0]]


def render(template: PromptTemplate, ctx: ContextSet) -> str:
    """Substitute placeholders; the context becomes numbered lines. A
    template names no other placeholder: construction checks that."""
    image_size = f"{ctx.image.width}x{ctx.image.height}"
    return template.body.replace("{context}", ctx.numbered()).replace(
        "{image_size}", image_size
    )


def parse_conversation(raw: str) -> list[tuple[str, str]]:
    """Extract alternating (human, assistant) pairs from model output.

    A dangling human block with no reply is discarded; an empty list means
    no complete pair was found and signals the caller's retry loop.
    """
    pairs: list[tuple[str, str]] = []
    pending: str | None = None
    matches = list(_MARKER.finditer(raw))
    for idx, match in enumerate(matches):
        end = matches[idx + 1].start() if idx + 1 < len(matches) else len(raw)
        value = raw[match.end():end].strip()
        if match.group(1).lower() in _HUMAN_MARKERS:
            pending = value or None
        elif pending and value:
            pairs.append((pending, value))
            pending = None
    return pairs


def serialize_turns(pairs: list[tuple[str, str]]) -> str:
    """Canonical text form whose parse round-trips to the same pairs."""
    return "\n".join(f"Human: {h}\nAssistant: {a}" for h, a in pairs)


def load_prompt_set(prompts_dir: str | Path, set_name: str) -> PromptDistribution:
    """Read ``<prompts_dir>/<set_name>/*.txt`` plus its distribution.json.

    Any fault of the set (unreadable spec, missing file, a template without
    ``{context}`` or with an unknown placeholder, a bad weight or intent, an
    entry key other than ``weight``, ``intent`` and ``requires``, a
    ``requires`` that is not a list of known origins) is a ConfigError,
    raised before any image runs.
    """
    base = Path(prompts_dir) / set_name
    dist_path = base / "distribution.json"
    if not dist_path.exists():
        raise ConfigError(f"prompt set {set_name!r} missing {dist_path}")
    try:
        spec = json.loads(dist_path.read_text(encoding="utf-8"))
        entries: list[tuple[str, float]] = []
        templates: dict[str, PromptTemplate] = {}
        for template_id, value in spec.items():
            if isinstance(value, dict):
                unknown = set(value) - {"weight", "intent", "requires"}
                if unknown:
                    raise ValueError(f"unknown keys {sorted(unknown)} for {template_id!r}")
                weight = value.get("weight", 1.0)
                intent = value.get("intent", "custom")
                compat = value.get("requires", [])
                if not isinstance(compat, list):
                    raise ValueError(f"requires of {template_id!r} must be a list of origins")
            else:
                weight, intent, compat = value, "custom", frozenset()
            body_path = base / f"{template_id}.txt"
            if not body_path.exists():
                raise ConfigError(f"template file missing: {body_path}")
            templates[template_id] = PromptTemplate(
                template_id=template_id,
                body=body_path.read_text(encoding="utf-8"),
                intent=intent,
                compat=compat,
            )
            entries.append((template_id, float(weight)))
        return PromptDistribution(entries=tuple(entries), templates=templates)
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad prompt set {set_name!r}: {exc}") from exc
