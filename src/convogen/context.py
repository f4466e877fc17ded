"""Conversion of annotation families into one ordered set of factual sentences.

Order is always captions, then tree-derived sentences, then QA statements.
Sentence text is single-line (whitespace collapsed) so downstream prompts
can number one sentence per line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import EmptyDescription
from .gateway import ask
from .metadata import BoxAnnotation, ImageRef, MetadataBundle, QAAnnotation

ORIGIN_CAPTION = "caption"
ORIGIN_QA = "qa"
ORIGIN_TREE = "tree"
ORIGINS = (ORIGIN_CAPTION, ORIGIN_QA, ORIGIN_TREE)

QA_FALLBACK_TEMPLATE = "Regarding '{question}', the answer is {answer}."

QA_BATCH_PROMPT = """Rewrite each question and answer pair below as one self-contained declarative statement about the image.
Reply with one numbered statement per line, matching the input numbering, and nothing else.

{pairs}"""

QA_SINGLE_PROMPT = """Rewrite the question and answer pair below as one self-contained declarative statement about the image. Reply with the statement only.

Q: {question}
A: {answer}"""

TREE_PROMPT = """Convert the following scene outline into factual sentences that densely describe the objects, their attributes, positions, and relations. Use only information present in the outline; do not invent anything.

{tree}"""

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_NUMBERED_LINE = re.compile(r"^\s*(\d+)\s*[.):]\s*(.+?)\s*$")


@dataclass(frozen=True)
class ContextSentence:
    text: str
    origin: str
    char_len: int


def make_sentence(text: str, origin: str) -> ContextSentence:
    cleaned = " ".join(text.split())
    if not cleaned:
        raise ValueError("context sentence must be non-empty")
    if origin not in ORIGINS:
        raise ValueError(f"unknown origin {origin!r}")
    return ContextSentence(text=cleaned, origin=origin, char_len=len(cleaned))


@dataclass(frozen=True)
class ContextSet:
    image: ImageRef
    sentences: tuple[ContextSentence, ...]
    total_chars: int

    @classmethod
    def build(cls, image: ImageRef, sentences: Iterable[ContextSentence]) -> "ContextSet":
        sentences = tuple(sentences)
        return cls(
            image=image,
            sentences=sentences,
            total_chars=sum(s.char_len for s in sentences),
        )

    def origins(self) -> frozenset[str]:
        return frozenset(s.origin for s in self.sentences)

    def without(self, drop: set[int]) -> "ContextSet":
        """New set without the 0-based indices in ``drop``."""
        return ContextSet.build(
            self.image,
            (s for i, s in enumerate(self.sentences) if i not in drop),
        )

    def numbered(self) -> str:
        return "\n".join(f"{i}. {s.text}" for i, s in enumerate(self.sentences, 1))


def split_sentences(text: str) -> list[str]:
    parts: list[str] = []
    for chunk in text.splitlines():
        parts.extend(_SENTENCE_SPLIT.split(chunk))
    return [p.strip() for p in parts if p.strip()]


def _parse_numbered(reply: str, expected: int) -> Optional[list[str]]:
    found: dict[int, str] = {}
    for line in reply.splitlines():
        match = _NUMBERED_LINE.match(line)
        if match:
            found.setdefault(int(match.group(1)), match.group(2))
    if all(i in found and found[i] for i in range(1, expected + 1)):
        return [found[i] for i in range(1, expected + 1)]
    return None


def qa_to_statement(qa: QAAnnotation, llm, max_attempts: int = 3) -> ContextSentence:
    """Turn one QA pair into a declarative statement.

    Malformed (empty) model output is retried up to ``max_attempts``; after
    that the deterministic template keeps the metadata from being lost.
    """
    prompt = QA_SINGLE_PROMPT.format(question=qa.question, answer=qa.answer)
    line, _ = ask(
        llm, prompt, "qa_conversion", lambda r: " ".join(r.split()) or None, max_attempts
    )
    if line is None:
        line = QA_FALLBACK_TEMPLATE.format(question=qa.question, answer=qa.answer)
    return make_sentence(line, ORIGIN_QA)


def qas_to_statements(
    qas: Sequence[QAAnnotation], llm, max_attempts: int = 3
) -> list[ContextSentence]:
    """Batch conversion with one numbered call; degrades to per-item calls."""
    if not qas:
        return []
    if len(qas) == 1:
        return [qa_to_statement(qas[0], llm, max_attempts)]
    pairs = "\n".join(
        f"{i}. Q: {qa.question} A: {qa.answer}" for i, qa in enumerate(qas, 1)
    )
    prompt = QA_BATCH_PROMPT.format(pairs=pairs)
    statements, _ = ask(
        llm, prompt, "qa_conversion", lambda r: _parse_numbered(r, len(qas)), max_attempts
    )
    if statements is None:
        return [qa_to_statement(qa, llm, max_attempts) for qa in qas]
    return [make_sentence(text, ORIGIN_QA) for text in statements]


def tree_to_description(ascii_tree: str, llm, max_attempts: int = 3) -> list[ContextSentence]:
    """Describe a serialized scene tree as individual factual sentences."""
    if not ascii_tree.strip():
        return []
    prompt = TREE_PROMPT.format(tree=ascii_tree)
    sentences, _ = ask(
        llm, prompt, "tree_conversion", lambda r: split_sentences(r) or None, max_attempts
    )
    if sentences is None:
        raise EmptyDescription("model yielded no sentences for the scene tree")
    return [make_sentence(s, ORIGIN_TREE) for s in sentences]


def boxes_to_plain_sentences(boxes: Sequence[BoxAnnotation]) -> list[str]:
    """Concatenation-style box rendering used when tree conversion is off."""
    out = []
    for b in boxes:
        x, y, w, h = b.bbox
        cx, cy = int(round(x + w / 2)), int(round(y + h / 2))
        attrs = f" ({', '.join(b.attributes)})" if b.attributes else ""
        out.append(
            f"There is a {b.label.lower().strip()}{attrs} at ({cx}, {cy}) "
            f"with size {int(round(w))}x{int(round(h))}."
        )
    return out


def assemble_context(
    bundle: MetadataBundle,
    tree_text: str,
    llm,
    max_attempts: int = 3,
) -> ContextSet:
    """Build the full ordered context for one image.

    Captions are copied verbatim, the tree is turned into tree-origin
    sentences (a blank tree into one plain line per box), and every QA
    pair yields exactly one statement (fallbacks included), so no
    annotation is silently dropped.
    """
    sentences = [make_sentence(c.text, ORIGIN_CAPTION) for c in bundle.captions]
    if tree_text.strip():
        sentences.extend(tree_to_description(tree_text, llm, max_attempts=max_attempts))
    else:
        plain = boxes_to_plain_sentences(bundle.boxes)
        sentences.extend(make_sentence(s, ORIGIN_TREE) for s in plain)
    sentences.extend(qas_to_statements(bundle.qas, llm, max_attempts))
    return ContextSet.build(bundle.image, sentences)
