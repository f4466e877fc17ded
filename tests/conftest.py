"""Shared fixtures: in-process scripted models and small data factories."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from convogen.metadata import BoxAnnotation, CaptionAnnotation, ImageRef, MetadataBundle, QAAnnotation

REPO_ROOT = Path(__file__).resolve().parents[1]
PROMPTS_DIR = REPO_ROOT / "prompts"
DATA_DIR = Path(__file__).resolve().parent / "data"


@st.composite
def masks_on(draw, width: int, height: int, max_cuts: int = 14) -> str:
    """Any valid RLE mask on the grid, canonical or not: repeated cuts make
    zero-length runs, a cut at 0 a leading foreground run, a cut at the end
    a trailing 0 run."""
    size = width * height
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=size), max_size=max_cuts)))
    edges = [0, *cuts, size]
    return f"{width}x{height}:" + " ".join(str(b - a) for a, b in zip(edges, edges[1:]))


class FakeLlm:
    """Deterministic in-process model for unit tests (no HTTP).

    Rules are (substring, responder) pairs checked in order; a responder is
    a string, a list consumed call-by-call (last repeats), or a callable
    taking the prompt.
    """

    def __init__(self, rules=None, default="Yes."):
        self.rules = [list(rule) for rule in (rules or [])]
        self.default = default
        self.calls: list[tuple[str, str]] = []

    def complete(self, prompt, stage="default", seed=None):
        self.calls.append((stage, prompt))
        for rule in self.rules:
            pattern, responder = rule
            if pattern in prompt:
                if callable(responder):
                    return responder(prompt)
                if isinstance(responder, list):
                    value = responder[0] if len(responder) == 1 else responder.pop(0)
                    return value
                return responder
        return self.default

    def calls_for(self, stage):
        return [prompt for s, prompt in self.calls if s == stage]


@pytest.fixture
def fake_llm():
    return FakeLlm()


def make_image(image_id="img-1", dataset="demo", width=640, height=480, uri=None):
    return ImageRef(
        dataset_id=dataset,
        image_id=image_id,
        uri=uri or f"images/{image_id}.jpg",
        width=width,
        height=height,
    )


def make_bundle(image=None, captions=(), boxes=(), qas=(), source="demo"):
    image = image or make_image()
    return MetadataBundle(
        image=image,
        captions=tuple(CaptionAnnotation(text=t, source=source) for t in captions),
        boxes=tuple(boxes),
        qas=tuple(QAAnnotation(question=q, answer=a, source=source) for q, a in qas),
    )


def make_box(label="thing", bbox=(10, 10, 20, 20), attributes=(), mask_rle=None,
             depth_mean=None, source="demo"):
    return BoxAnnotation(
        label=label,
        bbox=bbox,
        attributes=tuple(attributes),
        mask_rle=mask_rle,
        depth_mean=depth_mean,
        source=source,
    )
