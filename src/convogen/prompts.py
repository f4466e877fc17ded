"""Prompt templates: storage, weighted sampling, rendering, reply parsing.

Templates live as plain text files under ``prompts/<set>/<id>.txt`` next to
a ``distribution.json`` that maps template ids to weights (optionally with
required context origins).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from .context import ORIGINS, ContextSet
from .errors import ConfigError, NoCompatibleTemplate, UnresolvedPlaceholder

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
        stray = self.compat.difference(ORIGINS)
        if stray:
            raise ValueError(f"unknown origins {sorted(map(str, stray))} in {self.template_id!r}")


@dataclass(frozen=True)
class PromptDistribution:
    entries: tuple[tuple[PromptTemplate, float], ...]  # (template, weight), in draw order

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((t, float(w)) for t, w in self.entries))
        if not self.entries:
            raise ValueError("distribution has no entries")
        for template, weight in self.entries:
            if weight <= 0:
                raise ValueError(f"weight for {template.template_id!r} must be > 0")


def sample_template(
    dist: PromptDistribution, ctx: ContextSet, rng: random.Random
) -> PromptTemplate:
    """Weighted draw over the entries compatible with the context's origins."""
    present = ctx.origins()
    pool = [(template, weight) for template, weight in dist.entries if template.compat <= present]
    if not pool:
        raise NoCompatibleTemplate(
            f"no template compatible with origins {sorted(present)}"
        )
    total = sum(weight for _, weight in pool)
    x = rng.random() * total
    acc = 0.0
    for template, weight in pool:
        acc += weight
        if x < acc:
            return template
    return pool[-1][0]


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


def load_prompt_set(prompts_dir: str | Path, set_name: str) -> PromptDistribution:
    """Read ``<prompts_dir>/<set_name>/*.txt`` plus its distribution.json.

    Any fault of the set (a missing or unreadable file, a template without
    ``{context}`` or with an unknown placeholder, a bad weight, an entry key
    other than ``weight`` and ``requires``, a ``requires`` that is not a
    list of known origins) is a ConfigError, raised before any image runs.
    """
    base = Path(prompts_dir) / set_name
    try:
        spec = json.loads((base / "distribution.json").read_text(encoding="utf-8"))
        entries: list[tuple[PromptTemplate, float]] = []
        for template_id, value in spec.items():
            if isinstance(value, dict):
                unknown = set(value) - {"weight", "requires"}
                if unknown:
                    raise ValueError(f"unknown keys {sorted(unknown)} for {template_id!r}")
                weight = value.get("weight", 1.0)
                compat = value.get("requires", [])
                if not isinstance(compat, list):
                    raise ValueError(f"requires of {template_id!r} must be a list of origins")
            else:
                weight, compat = value, frozenset()
            template = PromptTemplate(
                template_id=template_id,
                body=(base / f"{template_id}.txt").read_text(encoding="utf-8"),
                compat=compat,
            )
            entries.append((template, float(weight)))
        return PromptDistribution(entries=tuple(entries))
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad prompt set {set_name!r}: {exc}") from exc
