"""Conversation generation from a context set, in two modes.

Staged mode (``generate_conversation``, used with reduction on) loops: each
stage samples a prompt template, generates a candidate turn, verifies it
against the full context (regenerating on a failed verdict), then removes
the context sentences the turn covered. It stops once the remaining context
drops below the reduction threshold or the minimum information length.

Direct mode (``generate_conversation_direct``, reduction off) makes one
generation call over the whole context and keeps the parsed turns that pass
verification; a failed verdict drops the turn rather than regenerating it.

Both modes share the render/call/parse retry loop (``_generate_pairs``) and
the optional quality filter with its provenance record (``_passes_filter``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from .context import ContextSet
from .errors import GenerationFailed, NoCompatibleTemplate, NoTurnsGenerated
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


def _generate_pairs(
    S_i: ContextSet, template, llm, p: GenerationParams, seed: Optional[int]
) -> tuple[list[tuple[str, str]], int]:
    """Render, call the model, parse; returns (pairs, attempts used).

    Unparseable output is retried up to max_retries, then GenerationFailed.
    """
    prompt = render(template, S_i)
    for attempt in range(1, p.max_retries + 1):
        pairs = parse_conversation(llm.complete(prompt, stage="generate", seed=seed))
        if pairs:
            return pairs, attempt
    raise GenerationFailed(
        f"no parseable turn from template {template.template_id!r} "
        f"after {p.max_retries} attempts"
    )


def generate_turn(
    S_i: ContextSet,
    template,
    llm,
    p: GenerationParams,
    iteration: int = 0,
    seed: Optional[int] = None,
) -> tuple[Turn, int]:
    """The first parsed pair as a turn; returns (turn, attempts used)."""
    pairs, attempts = _generate_pairs(S_i, template, llm, p, seed)
    human, assistant = pairs[0]
    return Turn(human, assistant, template.template_id, iteration), attempts


def verify_turn(turn: Turn, S_full: ContextSet, llm, p: GenerationParams) -> bool:
    """Cross-check a turn against the full context; unparseable verdicts
    after the retry budget count as failed verification."""
    prompt = _turn_prompt(VERIFY_PROMPT, S_full, turn)
    for _ in range(p.max_retries):
        verdict = parse_yes_no(llm.complete(prompt, stage="verify"))
        if verdict is not None:
            return verdict
    return False


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


def quality_filter(
    turn: Turn, S_full: ContextSet, llm, p: GenerationParams
) -> tuple[bool, str]:
    """(keep, verdict text); an unparseable verdict keeps the turn so the
    filter can never silently destroy data."""
    reply = llm.complete(_turn_prompt(FILTER_PROMPT, S_full, turn), stage="filter")
    return parse_keep_drop(reply) is not False, reply.strip()


def _passes_filter(
    turn: Turn, S: ContextSet, llm, p: GenerationParams, prov: dict, filtering: bool
) -> bool:
    """Apply the quality filter when ``filtering`` is on; a dropped turn is
    recorded in the provenance under its iteration."""
    if not filtering:
        return True
    kept, verdict = quality_filter(turn, S, llm, p)
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

    A turn failing verification is regenerated with the same template up to
    max_retries, then one differently-sampled template is tried before the
    iteration is abandoned. Terminates by the stopping criteria or the
    max_turns cap; deterministic given the seed and a deterministic model.
    ``filtering`` turns the quality filter on.
    """
    rng = random.Random(rng_seed)
    prov = _fresh_provenance(S)
    turns: list[Turn] = []
    S_i = S
    iteration = 0
    while iteration < p.max_turns and not stopping_criteria(S_i, S, p):
        turn = None
        attempts_this_turn = 0
        resampled = False
        template = sample_template(dist, S_i, rng)
        while True:
            for _ in range(p.max_retries):
                try:
                    candidate, attempts = generate_turn(
                        S_i, template, llm, p, iteration, seed=rng_seed
                    )
                except GenerationFailed:
                    attempts_this_turn += p.max_retries
                    break
                attempts_this_turn += attempts
                if verify_turn(candidate, S, llm, p):
                    turn = candidate
                    break
            if turn is not None or resampled:
                break
            # one differently-sampled template before abandoning the stage
            resampled = True
            try:
                retry_template = sample_template(dist, S_i, rng)
            except NoCompatibleTemplate:
                break
            if retry_template.template_id == template.template_id:
                break
            template = retry_template
        iteration += 1
        prov["iterations"] = iteration
        # every generation call past the first of the stage counts as a retry
        prov["retries_total"] += max(0, attempts_this_turn - 1)
        if turn is None:
            continue
        prov["templates_used"].append(turn.template_id)
        prov["turn_attempts"].append(attempts_this_turn)
        if _passes_filter(turn, S, llm, p, prov, filtering):
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
    try:
        pairs, attempts = _generate_pairs(S, template, llm, p, rng_seed)
    except GenerationFailed:
        raise NoTurnsGenerated(
            f"no parseable conversation for {S.image.image_id} "
            f"after {p.max_retries} attempts"
        ) from None
    prov["retries_total"] = attempts - 1
    prov["templates_used"].append(template.template_id)
    turns: list[Turn] = []
    for i, (human, assistant) in enumerate(pairs[: p.max_turns]):
        turn = Turn(human, assistant, template.template_id, i)
        if verify_turn(turn, S, llm, p) and _passes_filter(turn, S, llm, p, prov, filtering):
            turns.append(turn)
    prov["iterations"] = 1
    prov["turn_attempts"] = [attempts]
    if not turns:
        raise NoTurnsGenerated(f"no surviving turns for {S.image.image_id}")
    return Conversation(image=S.image, turns=tuple(turns), provenance=prov)
