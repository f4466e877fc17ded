import random
from collections import Counter

import pytest

from convogen.context import ORIGIN_CAPTION, ORIGIN_TREE, ContextSet, make_sentence
from convogen.errors import NoCompatibleTemplate, UnresolvedPlaceholder
from convogen.prompts import (
    PromptDistribution,
    PromptTemplate,
    load_prompt_set,
    parse_conversation,
    render,
    sample_template,
)

from conftest import PROMPTS_DIR, make_image


def serialize_turns(pairs: list[tuple[str, str]]) -> str:
    """Canonical text form whose parse round-trips to the same pairs."""
    return "\n".join(f"Human: {h}\nAssistant: {a}" for h, a in pairs)


def template(template_id="t", body="Context:\n{context}\n", compat=()):
    return PromptTemplate(template_id=template_id, body=body, compat=frozenset(compat))


def distribution(*specs):
    return PromptDistribution(entries=specs)


def ctx_with(origins, image=None):
    image = image or make_image()
    sentences = [
        make_sentence(f"{origin} sentence {i}", origin)
        for i, origin in enumerate(origins, 1)
    ]
    return ContextSet.build(image, sentences)


class TestTemplateTypes:
    def test_body_must_contain_context(self):
        with pytest.raises(ValueError):
            template(body="no placeholder")

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            distribution((template(), 0.0))


class TestSampling:
    def test_single_entry_always_sampled(self):
        t = template("only")
        dist = distribution((t, 1.0))
        rng = random.Random(0)
        assert all(
            sample_template(dist, ctx_with([ORIGIN_CAPTION]), rng) is t for _ in range(20)
        )

    def test_seeded_frequencies_within_two_percent(self):
        a, b = template("a"), template("b")
        dist = distribution((a, 0.5), (b, 0.5))
        rng = random.Random(1234)
        ctx = ctx_with([ORIGIN_CAPTION])
        counts = Counter(sample_template(dist, ctx, rng).template_id for _ in range(10_000))
        assert abs(counts["a"] / 10_000 - 0.5) < 0.02
        assert abs(counts["b"] / 10_000 - 0.5) < 0.02

    def test_incompatible_template_excluded(self):
        needs_tree = template("needs_tree", compat=(ORIGIN_TREE,))
        plain = template("plain")
        dist = distribution((needs_tree, 0.9), (plain, 0.1))
        rng = random.Random(0)
        ctx = ctx_with([ORIGIN_CAPTION])  # no tree sentences
        assert all(
            sample_template(dist, ctx, rng).template_id == "plain" for _ in range(200)
        )

    def test_no_compatible_template(self):
        dist = distribution((template("t", compat=(ORIGIN_TREE,)), 1.0))
        with pytest.raises(NoCompatibleTemplate):
            sample_template(dist, ctx_with([ORIGIN_CAPTION]), random.Random(0))

    def test_restricted_support_exhaustive(self):
        # over every subset of present origins, sampled templates always
        # have compat within the present set
        a = template("any")
        b = template("tree", compat=(ORIGIN_TREE,))
        c = template("both", compat=(ORIGIN_TREE, ORIGIN_CAPTION))
        dist = distribution((a, 1.0), (b, 1.0), (c, 1.0))
        rng = random.Random(9)
        for origins in ([ORIGIN_CAPTION], [ORIGIN_TREE], [ORIGIN_CAPTION, ORIGIN_TREE]):
            ctx = ctx_with(origins)
            for _ in range(100):
                chosen = sample_template(dist, ctx, rng)
                assert chosen.compat <= frozenset(origins)


class TestRender:
    def test_numbered_lines(self):
        ctx = ctx_with([ORIGIN_CAPTION, ORIGIN_CAPTION])
        out = render(template(body="{context}"), ctx)
        assert out.splitlines() == ["1. caption sentence 1", "2. caption sentence 2"]

    def test_unknown_placeholder_raises(self):
        with pytest.raises(UnresolvedPlaceholder):
            render(template(body="{context} {mystery}"), ctx_with([ORIGIN_CAPTION]))

    def test_image_size_substituted(self):
        ctx = ctx_with([ORIGIN_CAPTION], image=make_image(width=800, height=600))
        out = render(template(body="size {image_size}\n{context}"), ctx)
        assert "size 800x600" in out
        assert "{image_size}" not in out

    def test_golden_render_of_shipped_conversation_template(self):
        dist = load_prompt_set(PROMPTS_DIR, "direct_min")
        ctx = ctx_with([ORIGIN_CAPTION, ORIGIN_CAPTION], image=make_image(width=640, height=480))
        templates = {t.template_id: t for t, _ in dist.entries}
        out = render(templates["conversation"], ctx)
        expected_head = (
            "You are an AI visual assistant. You are looking at one image of size "
            "640x480 pixels, described by the numbered facts below.\n\n"
            "Facts:\n1. caption sentence 1\n2. caption sentence 2"
        )
        assert out.startswith(expected_head)
        assert "Human: <question>" in out


class TestParseConversation:
    def test_basic_pair(self):
        assert parse_conversation("Human: Hi\nAssistant: Hello") == [("Hi", "Hello")]

    def test_multiline_assistant_value_preserved(self):
        raw = "Human: Q?\nAssistant: line one\nline two\n\nline four"
        ((_, assistant),) = parse_conversation(raw)
        assert assistant == "line one\nline two\n\nline four"

    def test_mixed_markers_match_hand_split_oracle(self):
        raw = (
            "Question: first q\nAnswer: first a\n"
            "User: second q\nGPT: second a\n"
            "Human: third q\nAssistant: third a\n"
        )
        expected = [("first q", "first a"), ("second q", "second a"), ("third q", "third a")]
        assert parse_conversation(raw) == expected

    def test_dangling_human_discarded(self):
        raw = "Human: q1\nAssistant: a1\nHuman: trailing question"
        assert parse_conversation(raw) == [("q1", "a1")]

    def test_preamble_ignored_and_empty_on_garbage(self):
        assert parse_conversation("Sure! Here you go.\nHuman: q\nAssistant: a") == [("q", "a")]
        assert parse_conversation("complete nonsense") == []

    def test_case_insensitive_markers(self):
        assert parse_conversation("HUMAN: q\nassistant: a") == [("q", "a")]

    def test_round_trip(self):
        pairs = [("What?", "That."), ("More?\nsecond line", "Sure.")]
        assert parse_conversation(serialize_turns(pairs)) == pairs


class TestPromptSetLoading:
    def test_default_set_loads_with_metadata(self):
        dist = load_prompt_set(PROMPTS_DIR, "default")
        templates = {t.template_id: t for t, _ in dist.entries}
        assert set(templates) == {
            "conversation",
            "detailed_description",
            "complex_reasoning",
            "followup_turn",
            "spatial",
        }
        assert templates["spatial"].compat == frozenset({"tree"})
