import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convogen.context import ORIGIN_CAPTION, ContextSet, make_sentence
from convogen.errors import NoTurnsGenerated
from convogen.gateway import ask
from convogen.generation import (
    GenerationParams,
    Turn,
    content_words,
    generate_conversation,
    generate_conversation_direct,
    lexical_reduce,
    parse_keep_drop,
    parse_yes_no,
    quality_filter,
    reduce_context,
    stopping_criteria,
    verify_turn,
)
from convogen.prompts import PromptDistribution, PromptTemplate, parse_conversation

from conftest import FakeLlm, make_image

P = GenerationParams()


def ctx_of_chars(lengths, image=None):
    """One sentence per requested char length (exact)."""
    image = image or make_image()
    sentences = [
        make_sentence(f"fact {i} ".ljust(length, "x")[:length], ORIGIN_CAPTION)
        for i, length in enumerate(lengths)
    ]
    ctx = ContextSet.build(image, sentences)
    assert ctx.total_chars == sum(lengths)
    return ctx


def turn_of(human="q?", assistant="a."):
    return Turn(human=human, assistant=assistant, template_id="t", iteration=0)


def single_template(body="TASK single turn\n{context}", template_id="t"):
    t = PromptTemplate(template_id=template_id, body=body)
    return t, PromptDistribution(entries=((t, 1.0),))


class TestStoppingCriteria:
    def test_canonical_example_total_1000_remaining_120(self):
        assert stopping_criteria(ctx_of_chars([120]), ctx_of_chars([1000]), P) is True

    def test_total_1000_remaining_500_continues(self):
        assert stopping_criteria(ctx_of_chars([500]), ctx_of_chars([1000]), P) is False

    def test_remaining_99_always_stops(self):
        for total in (99, 150, 10_000):
            assert stopping_criteria(ctx_of_chars([99]), ctx_of_chars([total]), P) is True

    def test_boundary_exactly_at_threshold_continues(self):
        # 150/1000 == 0.15 is not < 0.15, and 150 >= 100
        assert stopping_criteria(ctx_of_chars([150]), ctx_of_chars([1000]), P) is False


def pairs_or_none(reply):
    return parse_conversation(reply) or None


class TestAsk:
    def test_parsed_reply_after_one_call(self):
        llm = FakeLlm(rules=[("TASK", "Human: Hi\nAssistant: Hello")])
        assert ask(llm, "TASK", "generate", pairs_or_none, attempts=3) == ([("Hi", "Hello")], 1)
        assert llm.calls == [("generate", "TASK")]

    def test_none_after_exactly_attempts_calls(self):
        llm = FakeLlm(rules=[("TASK", "no markers at all")])
        assert ask(llm, "TASK", "generate", pairs_or_none, attempts=3) == (None, 3)
        assert len(llm.calls) == 3

    def test_garbage_then_valid_costs_two_calls(self):
        llm = FakeLlm(rules=[("TASK", ["garbage", "Human: q\nAssistant: a"])])
        assert ask(llm, "TASK", "generate", pairs_or_none, attempts=3) == ([("q", "a")], 2)
        assert len(llm.calls) == 2

    def test_false_is_an_answer_not_a_retry(self):
        llm = FakeLlm(rules=[("Answer yes or no", ["No.", "Yes."])])
        assert ask(llm, "Answer yes or no", "verify", parse_yes_no, attempts=3) == (False, 1)
        assert len(llm.calls) == 1


class TestVerifyTurn:
    def test_yes_verdict(self):
        llm = FakeLlm(rules=[("Answer yes or no", "Yes.")])
        assert verify_turn(turn_of(), ctx_of_chars([100]), llm, P) is True

    def test_no_verdict_on_contradiction(self):
        llm = FakeLlm(rules=[("Answer yes or no", "No - the car is red, not blue.")])
        assert verify_turn(turn_of("color?", "the car is blue"), ctx_of_chars([100]), llm, P) is False

    def test_unparseable_three_times_is_conservative_false(self):
        llm = FakeLlm(rules=[("Answer yes or no", "maybe")])
        assert verify_turn(turn_of(), ctx_of_chars([100]), llm, P) is False
        assert len(llm.calls) == 3

    def test_verdict_parsers(self):
        assert parse_yes_no(" YES, consistent") is True
        assert parse_yes_no("No.") is False
        assert parse_yes_no("dunno") is None
        assert parse_keep_drop("KEEP — solid") is True
        assert parse_keep_drop("drop: irrelevant") is False
        assert parse_keep_drop("??") is None


class TestReduceContext:
    def test_verbatim_quote_removed_by_lexical_fallback(self):
        image = make_image()
        ctx = ContextSet.build(
            image,
            [
                make_sentence("The tower is tall.", ORIGIN_CAPTION),
                make_sentence("A crimson bicycle leans on the fence.", ORIGIN_CAPTION),
                make_sentence("Clouds gather in the west.", ORIGIN_CAPTION),
            ],
        )
        turn = turn_of("What leans on the fence?", "A crimson bicycle leans on the fence.")
        reduced = lexical_reduce(ctx, turn)
        assert [s.text for s in reduced.sentences] == [
            "The tower is tall.",
            "Clouds gather in the west.",
        ]

    def test_no_shared_content_words_identity(self):
        ctx = ctx_of_chars([50, 50])
        turn = turn_of("zzz?", "qqq.")
        assert lexical_reduce(ctx, turn) == ctx

    def test_llm_index_list_matches_set_difference_oracle(self):
        image = make_image()
        sentences = [make_sentence(f"unique fact number {i}.", ORIGIN_CAPTION) for i in range(6)]
        ctx = ContextSet.build(image, sentences)
        llm = FakeLlm(rules=[("numbers of the covered facts", "2, 5")])
        reduced = reduce_context(ctx, turn_of(), llm)
        survivors = {s.text for s in reduced.sentences}
        oracle = {s.text for i, s in enumerate(sentences) if i not in {1, 4}}
        assert survivors == oracle

    def test_none_reply_keeps_everything(self):
        ctx = ctx_of_chars([40, 40])
        llm = FakeLlm(rules=[("numbers of the covered facts", "none")])
        assert reduce_context(ctx, turn_of(), llm) == ctx

    def test_invalid_reply_falls_back_to_lexical(self):
        image = make_image()
        ctx = ContextSet.build(
            image, [make_sentence("a crimson bicycle here.", ORIGIN_CAPTION)]
        )
        llm = FakeLlm(rules=[("numbers of the covered facts", "0 99")])  # out of range
        turn = turn_of("what?", "a crimson bicycle here.")
        assert reduce_context(ctx, turn, llm).sentences == ()

    @given(st.lists(st.integers(min_value=-3, max_value=12), max_size=6))
    def test_output_always_subset(self, indices):
        ctx = ctx_of_chars([30] * 5)
        reply = ", ".join(str(i) for i in indices) if indices else "none"
        llm = FakeLlm(rules=[("numbers of the covered facts", reply)])
        reduced = reduce_context(ctx, turn_of(), llm)
        original = [s.text for s in ctx.sentences]
        assert all(s.text in original for s in reduced.sentences)
        assert reduced.total_chars <= ctx.total_chars


class TestQualityFilter:
    def test_keep(self):
        llm = FakeLlm(rules=[("KEEP or DROP", "KEEP")])
        kept, verdict = quality_filter(turn_of(), ctx_of_chars([100]), llm)
        assert kept is True and verdict == "KEEP"

    def test_drop_with_reason(self):
        llm = FakeLlm(rules=[("KEEP or DROP", "DROP: irrelevant")])
        kept, verdict = quality_filter(turn_of(), ctx_of_chars([100]), llm)
        assert kept is False and "irrelevant" in verdict

    def test_unparseable_keeps(self):
        llm = FakeLlm(rules=[("KEEP or DROP", "hmm")])
        kept, _ = quality_filter(turn_of(), ctx_of_chars([100]), llm)
        assert kept is True

    def test_thirty_turn_confusion_counts_match_script(self):
        drop_set = {2, 5, 7, 11, 13, 17, 19, 23, 29}
        ctx = ctx_of_chars([200])

        def verdict(prompt):
            idx = int(prompt.split("turn-")[1].split(" ")[0])
            return "DROP: scripted" if idx in drop_set else "KEEP"

        llm = FakeLlm(rules=[("KEEP or DROP", verdict)])
        outcomes = {
            i: quality_filter(turn_of(f"turn-{i} ?", "a"), ctx, llm)[0]
            for i in range(30)
        }
        dropped = {i for i, kept in outcomes.items() if not kept}
        assert dropped == drop_set
        assert sum(outcomes.values()) == 30 - len(drop_set)


def staged_rules(gen_responses=None, reduce_reply="1, 2, 3"):
    return [
        ("TASK single turn", gen_responses or "Human: What?\nAssistant: Something."),
        ("Answer yes or no", "Yes."),
        ("numbers of the covered facts", reduce_reply),
        ("KEEP or DROP", "KEEP"),
    ]


class TestGenerateConversation:
    def test_thirty_percent_coverage_stops_after_three_turns(self):
        # 10 x 100 chars; each stage removes 3 sentences = 30% of the original
        ctx = ctx_of_chars([100] * 10)
        _, dist = single_template()
        llm = FakeLlm(rules=staged_rules())
        conv = generate_conversation(ctx, dist, P, llm, rng_seed=1)
        # oracle: simulate the loop arithmetic
        remaining, expected_turns = 1000, 0
        while not (remaining / 1000 < 0.15 or remaining < 100):
            remaining -= 300
            expected_turns += 1
        assert len(conv.turns) == expected_turns == 3
        assert conv.provenance["context_chars_final"] == remaining == 100

    def test_small_context_stops_immediately(self):
        ctx = ctx_of_chars([80])
        _, dist = single_template()
        llm = FakeLlm(rules=staged_rules())
        with pytest.raises(NoTurnsGenerated):
            generate_conversation(ctx, dist, P, llm, rng_seed=1)
        assert llm.calls == []  # stopped before any generation

    def test_87_percent_consumed_final_ratio_below_threshold(self):
        ctx = ctx_of_chars([290, 290, 290, 130])
        _, dist = single_template()
        llm = FakeLlm(rules=staged_rules(reduce_reply="1, 2"))
        conv = generate_conversation(ctx, dist, P, llm, rng_seed=1)
        prov = conv.provenance
        assert prov["context_chars_final"] / prov["context_chars_initial"] < 0.15
        assert len(conv.turns) == 2

    def test_verification_gate_excludes_failing_content(self):
        ctx = ctx_of_chars([200, 200])
        _, dist = single_template()
        gen = ["Human: Q\nAssistant: BADFACT", "Human: Q\nAssistant: GOODFACT"]
        llm = FakeLlm(
            rules=[
                ("TASK single turn", gen),
                ("Answer yes or no", lambda p: "No." if "BADFACT" in p else "Yes."),
                ("numbers of the covered facts", "1, 2"),
            ]
        )
        conv = generate_conversation(ctx, dist, P, llm, rng_seed=1)
        assert all("BADFACT" not in t.assistant for t in conv.turns)
        assert conv.provenance["retries_total"] >= 1

    def test_termination_when_reduction_never_shrinks(self):
        ctx = ctx_of_chars([200, 200])
        _, dist = single_template()
        llm = FakeLlm(rules=staged_rules(reduce_reply="none"))
        conv = generate_conversation(ctx, dist, P, llm, rng_seed=1)
        assert len(conv.turns) == P.max_turns
        assert conv.provenance["iterations"] == P.max_turns

    def test_monotone_context_and_reduction_soundness(self):
        ctx = ctx_of_chars([120] * 6)
        _, dist = single_template()
        observed = []
        original_texts = {s.text for s in ctx.sentences}

        def reduce_reply(prompt):
            observed.append(prompt)
            return "1"

        llm = FakeLlm(rules=staged_rules(reduce_reply=reduce_reply))
        conv = generate_conversation(ctx, dist, P, llm, rng_seed=3)
        prov = conv.provenance
        assert prov["context_chars_final"] <= prov["context_chars_initial"]
        # every sentence ever shown to the reducer is an original sentence
        for prompt in observed:
            for line in prompt.splitlines():
                if line[:2].rstrip(".").isdigit() and ". " in line:
                    assert line.split(". ", 1)[1] in original_texts

    def test_filtered_turns_recorded_and_excluded(self):
        ctx = ctx_of_chars([300, 300])
        _, dist = single_template()
        llm = FakeLlm(
            rules=[
                ("TASK single turn", ["Human: A?\nAssistant: first.", "Human: B?\nAssistant: second."]),
                ("Answer yes or no", "Yes."),
                ("numbers of the covered facts", "1"),
                ("KEEP or DROP", ["DROP: dull", "KEEP"]),
            ]
        )
        conv = generate_conversation(ctx, dist, GenerationParams(), llm, rng_seed=1, filtering=True)
        assert len(conv.provenance["filtered_turns"]) == 1
        assert all(t.assistant != "first." for t in conv.turns)

    def test_seed_determinism_byte_identical(self):
        ctx = ctx_of_chars([150] * 5)
        _, dist = single_template()

        def run():
            llm = FakeLlm(rules=staged_rules(reduce_reply="1"))
            conv = generate_conversation(ctx, dist, P, llm, rng_seed=99)
            return json.dumps(
                {
                    "turns": [(t.human, t.assistant, t.template_id) for t in conv.turns],
                    "prov": conv.provenance,
                },
                sort_keys=True,
            )

        assert run() == run()

    def test_all_generations_failing_raises_no_turns(self):
        ctx = ctx_of_chars([400])
        _, dist = single_template()
        llm = FakeLlm(rules=[("TASK single turn", "never parseable")] + staged_rules()[1:])
        with pytest.raises(NoTurnsGenerated):
            generate_conversation(ctx, dist, P, llm, rng_seed=1)


def two_templates():
    """alpha and beta at equal weight: rng seed 1 draws alpha, then beta;
    seed 7 draws alpha, alpha, then beta."""
    return PromptDistribution(entries=tuple(
        (PromptTemplate(template_id=tid, body=f"TASK {tid}\n{{context}}"), 1.0)
        for tid in ("alpha", "beta")
    ))


def alpha_rejected_llm(alpha_reply="Human: Q?\nAssistant: from-alpha"):
    """Every alpha turn fails (verify says no, or the reply never parses);
    beta turns pass, and one reduce call consumes the whole context."""
    return FakeLlm(
        rules=[
            ("TASK alpha", alpha_reply),
            ("TASK beta", "Human: Q?\nAssistant: from-beta"),
            ("Answer yes or no", lambda p: "No." if "from-alpha" in p else "Yes."),
            ("numbers of the covered facts", ", ".join(str(i) for i in range(1, 11))),
        ]
    )


def stage_templates(llm):
    """(stage, template) per call; the template is read from the prompt."""
    return [
        (stage, "alpha" if "alpha" in prompt else "beta" if "beta" in prompt else None)
        for stage, prompt in llm.calls
    ]


class TestStagedTemplateRedraw:
    def test_redraw_after_verify_rejects_every_regeneration(self):
        llm = alpha_rejected_llm()
        conv = generate_conversation(ctx_of_chars([100] * 10), two_templates(), P, llm, rng_seed=1)
        assert stage_templates(llm) == (
            [("generate", "alpha"), ("verify", "alpha")] * P.max_retries
            + [("generate", "beta"), ("verify", "beta"), ("reduce", "beta")]
        )
        assert [t.template_id for t in conv.turns] == ["beta"]
        prov = conv.provenance
        assert prov["turn_attempts"] == [P.max_retries + 1]
        assert prov["retries_total"] == P.max_retries
        assert prov["templates_used"] == ["beta"]
        assert prov["iterations"] == 1

    def test_redraw_after_unparseable_replies(self):
        # replies that never parse cost max_retries calls and end the template's rounds
        llm = alpha_rejected_llm(alpha_reply="no markers at all")
        conv = generate_conversation(ctx_of_chars([100] * 10), two_templates(), P, llm, rng_seed=1)
        assert stage_templates(llm) == (
            [("generate", "alpha")] * P.max_retries
            + [("generate", "beta"), ("verify", "beta"), ("reduce", "beta")]
        )
        assert conv.provenance["turn_attempts"] == [P.max_retries + 1]
        assert conv.provenance["retries_total"] == P.max_retries

    def test_redraw_of_the_same_template_ends_the_stage(self):
        llm = alpha_rejected_llm()
        conv = generate_conversation(ctx_of_chars([100] * 10), two_templates(), P, llm, rng_seed=7)
        # stage 1: alpha, then alpha again, so no fourth alpha round;
        # stage 2 draws beta
        assert stage_templates(llm) == (
            [("generate", "alpha"), ("verify", "alpha")] * P.max_retries
            + [("generate", "beta"), ("verify", "beta"), ("reduce", "beta")]
        )
        prov = conv.provenance
        assert prov["iterations"] == 2
        assert prov["turn_attempts"] == [1]
        assert prov["retries_total"] == P.max_retries - 1
        assert prov["templates_used"] == ["beta"]


class TestGenerateConversationDirect:
    def test_multi_pair_response_kept_and_chars_unchanged(self):
        ctx = ctx_of_chars([200, 200])
        _, dist = single_template()
        reply = "Human: A?\nAssistant: a.\nHuman: B?\nAssistant: b."
        llm = FakeLlm(rules=[("TASK single turn", reply), ("Answer yes or no", "Yes.")])
        conv = generate_conversation_direct(ctx, dist, P, llm, rng_seed=1)
        assert [(t.human, t.assistant) for t in conv.turns] == [("A?", "a."), ("B?", "b.")]
        prov = conv.provenance
        assert prov["context_chars_final"] == prov["context_chars_initial"]

    def test_unverified_pairs_removed(self):
        ctx = ctx_of_chars([200])
        _, dist = single_template()
        reply = "Human: A?\nAssistant: keepme.\nHuman: B?\nAssistant: wrongfact."
        llm = FakeLlm(
            rules=[
                ("TASK single turn", reply),
                ("Answer yes or no", lambda p: "No." if "wrongfact" in p else "Yes."),
            ]
        )
        conv = generate_conversation_direct(ctx, dist, P, llm, rng_seed=1)
        assert [t.assistant for t in conv.turns] == ["keepme."]

    def test_dropped_pair_removed_and_recorded_with_pair_index(self):
        ctx = ctx_of_chars([200])
        _, dist = single_template()
        reply = "Human: A?\nAssistant: a.\nHuman: B?\nAssistant: dull.\nHuman: C?\nAssistant: c."
        llm = FakeLlm(
            rules=[
                ("TASK single turn", reply),
                ("Answer yes or no", "Yes."),
                ("KEEP or DROP", lambda p: "DROP: dull" if "dull." in p else "KEEP"),
            ]
        )
        conv = generate_conversation_direct(
            ctx, dist, GenerationParams(), llm, rng_seed=1, filtering=True
        )
        assert [t.assistant for t in conv.turns] == ["a.", "c."]
        assert conv.provenance["filtered_turns"] == [
            {"iteration": 1, "template_id": "t", "verdict": "DROP: dull"}
        ]

    def test_all_unparseable_raises_after_max_retries_calls(self):
        ctx = ctx_of_chars([200])
        _, dist = single_template()
        llm = FakeLlm(rules=[("TASK single turn", "never parseable")])
        with pytest.raises(NoTurnsGenerated):
            generate_conversation_direct(ctx, dist, P, llm, rng_seed=1)
        assert len(llm.calls_for("generate")) == P.max_retries
        assert len(llm.calls) == P.max_retries


class TestContentWords:
    def test_stopwords_excluded(self):
        words = content_words("The cat is on the mat")
        assert "cat" in words and "mat" in words and "the" not in words
