"""Conversation generation from a context set, in two modes.

Staged mode (``generate_conversation``, used with reduction on) loops: each
stage samples a prompt template, generates a candidate turn, verifies it
against the full context (regenerating on a failed verdict), then removes
the context sentences the turn covered. It stops once the remaining context
drops below the reduction threshold or the minimum information length.

Direct mode (``generate_conversation_direct``, reduction off) makes one
generation call over the whole context and keeps the parsed turns that pass
verification; a failed verdict drops the turn rather than regenerating it.

Both modes ask for turns through ``gateway.ask``, the one retry loop for
replies that do not parse, and share the optional quality filter with its
provenance record (``_passes_filter``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from .context import ContextSet
from .errors import NoTurnsGenerated
from .gateway import ask
from .metadata import ImageRef
from .prompts import PromptDistribution, parse_conversation, render, sample_template

VERIFY_PROMPT = """You are checking a draft exchange about an image against the full list of known facts.

Facts:
{context}

Exchange:
Human: {human}
Assistant: {assistant}

Is the exchange fully consistent with the facts, with no contradiction? Answer yes or no."""

REDUCE_PROMPT = """A conversation turn about an image was just produced. Decide which numbered facts are already covered by this turn.

Facts:
{context}

Turn:
Human: {human}
Assistant: {assistant}

Reply with the numbers of the covered facts separated by commas, or 'none'."""

FILTER_PROMPT = """Judge whether this exchange about an image is clear, relevant, and worth keeping in a training set.

Facts:
{context}

Exchange:
Human: {human}
Assistant: {assistant}

Reply KEEP or DROP, optionally followed by a reason."""

_WORD = re.compile(r"[a-z0-9]+")
STOPWORDS = frozenset(
    """a an the is are was were be been being in on at of to and or but it its
    this that these those there with for as by from about into over after under
    what which who whom how when where why does do did can could would should
    image picture photo""".split()
)
LEXICAL_OVERLAP = 0.6


@dataclass(frozen=True)
class GenerationParams:
    r_t: float = 0.85        # reduction threshold
    l_min: int = 100         # minimum information length, characters
    max_retries: int = 3
    max_turns: int = 12      # hard cap so a non-covering model cannot loop

    def __post_init__(self):
        if not 0 < self.r_t < 1:
            raise ValueError(f"r_t must be in (0, 1), got {self.r_t}")
        if self.l_min <= 0:
            raise ValueError("l_min must be > 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


@dataclass(frozen=True)
class Turn:
    human: str
    assistant: str
    template_id: str
    iteration: int

    def __post_init__(self):
        if not self.human or not self.assistant:
            raise ValueError("turn texts must be non-empty")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")


@dataclass
class Conversation:
    image: ImageRef
    turns: tuple[Turn, ...]
    provenance: dict = field(default_factory=dict)


def stopping_criteria(S_i: ContextSet, S: ContextSet, p: GenerationParams) -> bool:
    """Stop when the remaining share of context falls below 1 - r_t, or the
    remaining context is shorter than l_min characters."""
    if S.total_chars <= 0:
        return True
    len_ratio = S_i.total_chars / S.total_chars
    # 1 - 0.85 is 0.15000000000000002 in binary; round so exact-boundary
    # ratios like 150/1000 compare the way the decimal threshold reads
    threshold = round(1.0 - p.r_t, 12)
    return len_ratio < threshold or S_i.total_chars < p.l_min


def content_words(text: str) -> set[str]:
    return set(_WORD.findall(text.lower())) - STOPWORDS


def _first_word(text: str) -> str:
    match = re.search(r"[a-zA-Z]+", text)
    return match.group(0).lower() if match else ""


def _verdict(text: str, yes: str, no: str) -> Optional[bool]:
    return {yes: True, no: False}.get(_first_word(text))


def parse_yes_no(text: str) -> Optional[bool]:
    return _verdict(text, "yes", "no")


def parse_keep_drop(text: str) -> Optional[bool]:
    return _verdict(text, "keep", "drop")


def _turn_prompt(template: str, S: ContextSet, turn: Turn) -> str:
    return template.format(context=S.numbered(), human=turn.human, assistant=turn.assistant)


def _pairs(reply: str) -> Optional[list[tuple[str, str]]]:
    """The reply's (human, assistant) pairs, or None when it has none."""
    return parse_conversation(reply) or None


def verify_turn(turn: Turn, S_full: ContextSet, llm, p: GenerationParams) -> bool:
    """Cross-check a turn against the full context; unparseable verdicts
    after the retry budget count as failed verification."""
    prompt = _turn_prompt(VERIFY_PROMPT, S_full, turn)
    verdict, _ = ask(llm, prompt, "verify", parse_yes_no, p.max_retries)
    return bool(verdict)


def lexical_reduce(S_i: ContextSet, turn: Turn) -> ContextSet:
    """Remove sentences whose content words are mostly covered by the turn."""
    covered = content_words(turn.human) | content_words(turn.assistant)
    drop = set()
    for idx, sentence in enumerate(S_i.sentences):
        words = content_words(sentence.text)
        if words and len(words & covered) >= LEXICAL_OVERLAP * len(words):
            drop.add(idx)
    return S_i.without(drop)


def reduce_context(
    S_i: ContextSet, turn: Turn, llm, mode: str = "llm"
) -> ContextSet:
    """Drop the sentences the turn covered; never rewrites sentence text.

    The model lists 1-based indices of covered sentences; anything
    unparseable falls back to the deterministic lexical rule, so reduction
    never fails and the output is always a subset of the input.
    """
    if not S_i.sentences:
        return S_i
    if mode == "lexical":
        return lexical_reduce(S_i, turn)
    reply = llm.complete(_turn_prompt(REDUCE_PROMPT, S_i, turn), stage="reduce")
    if re.search(r"\bnone\b", reply.lower()) and not re.search(r"\d", reply):
        return S_i
    indices = {int(tok) for tok in re.findall(r"\d+", reply)}
    valid = {i - 1 for i in indices if 1 <= i <= len(S_i.sentences)}
    if not valid:
        return lexical_reduce(S_i, turn)
    return S_i.without(valid)


def quality_filter(turn: Turn, S_full: ContextSet, llm) -> tuple[bool, str]:
    """(keep, verdict text); an unparseable verdict keeps the turn so the
    filter can never silently destroy data."""
    reply = llm.complete(_turn_prompt(FILTER_PROMPT, S_full, turn), stage="filter")
    return parse_keep_drop(reply) is not False, reply.strip()


def _passes_filter(turn: Turn, S: ContextSet, llm, prov: dict, filtering: bool) -> bool:
    """Apply the quality filter when ``filtering`` is on; a dropped turn is
    recorded in the provenance under its iteration."""
    if not filtering:
        return True
    kept, verdict = quality_filter(turn, S, llm)
    if not kept:
        prov["filtered_turns"].append(
            {"iteration": turn.iteration, "template_id": turn.template_id, "verdict": verdict}
        )
    return kept


def _fresh_provenance(S: ContextSet) -> dict:
    return {
        "context_chars_initial": S.total_chars,
        "context_chars_final": S.total_chars,
        "templates_used": [],
        "retries_total": 0,
        "filtered_turns": [],
        "turn_attempts": [],
        "iterations": 0,
    }


def _staged_turn(
    S_i: ContextSet,
    S: ContextSet,
    dist: PromptDistribution,
    rng: random.Random,
    llm,
    p: GenerationParams,
    iteration: int,
    seed: int,
) -> tuple[Optional[Turn], int]:
    """One stage's verified turn, or None; returns (turn, generation calls).

    The drawn template gets up to max_retries generate-and-verify rounds,
    and a reply that never parses ends them. Then one redraw gets the same,
    but only when it names a different template.
    """
    template = sample_template(dist, S_i, rng)
    calls = 0
    for redraw in (False, True):
        if redraw:
            drawn = sample_template(dist, S_i, rng)
            if drawn.template_id == template.template_id:
                break
            template = drawn
        for _ in range(p.max_retries):
            pairs, used = ask(llm, render(template, S_i), "generate", _pairs, p.max_retries, seed)
            calls += used
            if pairs is None:
                break
            human, assistant = pairs[0]
            turn = Turn(human, assistant, template.template_id, iteration)
            if verify_turn(turn, S, llm, p):
                return turn, calls
    return None, calls


def generate_conversation(
    S: ContextSet,
    dist: PromptDistribution,
    p: GenerationParams,
    llm,
    rng_seed: int,
    reduce_mode: str = "llm",
    filtering: bool = False,
) -> Conversation:
    """Run the staged loop: sample, generate, verify, append, reduce.

    Each stage's turn comes from ``_staged_turn``; a stage without one is
    abandoned. Terminates by the stopping criteria or the max_turns cap;
    deterministic given the seed and a deterministic model. ``filtering``
    turns the quality filter on.
    """
    rng = random.Random(rng_seed)
    prov = _fresh_provenance(S)
    turns: list[Turn] = []
    S_i = S
    iteration = 0
    while iteration < p.max_turns and not stopping_criteria(S_i, S, p):
        turn, calls = _staged_turn(S_i, S, dist, rng, llm, p, iteration, rng_seed)
        iteration += 1
        prov["iterations"] = iteration
        # every generation call past the first of the stage counts as a retry
        prov["retries_total"] += max(0, calls - 1)
        if turn is None:
            continue
        prov["templates_used"].append(turn.template_id)
        prov["turn_attempts"].append(calls)
        if _passes_filter(turn, S, llm, prov, filtering):
            turns.append(turn)
        # covered information is consumed even when the filter dropped the
        # turn, otherwise a deterministic model would regenerate it forever
        S_i = reduce_context(S_i, turn, llm, mode=reduce_mode)
        prov["context_chars_final"] = S_i.total_chars
    assert iteration <= p.max_turns
    if not turns:
        raise NoTurnsGenerated(
            f"no surviving turns for {S.image.image_id} "
            f"({S.total_chars} chars of context)"
        )
    return Conversation(image=S.image, turns=tuple(turns), provenance=prov)


def generate_conversation_direct(
    S: ContextSet,
    dist: PromptDistribution,
    p: GenerationParams,
    llm,
    rng_seed: int,
    filtering: bool = False,
) -> Conversation:
    """One-shot mode used when reduction is disabled: a single generation
    call is parsed into up to max_turns verified turns (and, with
    ``filtering``, filtered ones)."""
    rng = random.Random(rng_seed)
    prov = _fresh_provenance(S)
    template = sample_template(dist, S, rng)
    pairs, attempts = ask(llm, render(template, S), "generate", _pairs, p.max_retries, rng_seed)
    if pairs is None:
        raise NoTurnsGenerated(
            f"no parseable conversation for {S.image.image_id} "
            f"after {p.max_retries} attempts"
        )
    prov["retries_total"] = attempts - 1
    prov["templates_used"].append(template.template_id)
    turns: list[Turn] = []
    for i, (human, assistant) in enumerate(pairs[: p.max_turns]):
        turn = Turn(human, assistant, template.template_id, i)
        if verify_turn(turn, S, llm, p) and _passes_filter(turn, S, llm, prov, filtering):
            turns.append(turn)
    prov["iterations"] = 1
    prov["turn_attempts"] = [attempts]
    if not turns:
        raise NoTurnsGenerated(f"no surviving turns for {S.image.image_id}")
    return Conversation(image=S.image, turns=tuple(turns), provenance=prov)
