import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convogen.context import (
    ORIGIN_CAPTION,
    ORIGIN_QA,
    ORIGIN_TREE,
    ContextSet,
    assemble_context,
    make_sentence,
    qa_to_statement,
    qas_to_statements,
    split_sentences,
    tree_to_description,
)
from convogen.errors import EmptyDescription
from convogen.metadata import QAAnnotation

from conftest import FakeLlm, make_box, make_bundle, make_image


def qa(question="What color is the car?", answer="Red"):
    return QAAnnotation(question=question, answer=answer, source="vqa")


class TestSentences:
    def test_make_sentence_strips_newlines(self):
        s = make_sentence("a\nb\r\nc", ORIGIN_CAPTION)
        assert s.text == "a b c"
        assert s.char_len == len("a b c")

    def test_context_set_char_accounting(self):
        image = make_image()
        sentences = [make_sentence(t, ORIGIN_CAPTION) for t in ("one", "two two")]
        ctx = ContextSet.build(image, sentences)
        assert ctx.total_chars == sum(len(s.text) for s in ctx.sentences)

    @given(st.lists(st.text(alphabet="abc d", min_size=1, max_size=20).filter(str.strip), max_size=8))
    def test_total_chars_equals_recount(self, texts):
        image = make_image()
        ctx = ContextSet.build(
            image, [make_sentence(t, ORIGIN_CAPTION) for t in texts]
        )
        assert ctx.total_chars == sum(s.char_len for s in ctx.sentences)

    def test_without_is_subset(self):
        image = make_image()
        ctx = ContextSet.build(
            image, [make_sentence(f"sentence {i}", ORIGIN_QA) for i in range(5)]
        )
        reduced = ctx.without({1, 3})
        assert [s.text for s in reduced.sentences] == ["sentence 0", "sentence 2", "sentence 4"]


class TestQaConversion:
    def test_worked_example(self):
        llm = FakeLlm(rules=[("Rewrite the question", "There is a red car in the image.")])
        statement = qa_to_statement(qa(), llm)
        assert statement.text == "There is a red car in the image."
        assert statement.origin == ORIGIN_QA

    def test_scripted_fixture_verbatim(self):
        llm = FakeLlm(rules=[("Rewrite the question", "The sky is blue here.")])
        assert qa_to_statement(qa("Sky?", "Blue"), llm).text == "The sky is blue here."

    def test_empty_three_times_falls_back_to_template(self):
        llm = FakeLlm(rules=[("Rewrite the question", ["", "", "", ""])])
        statement = qa_to_statement(qa(), llm, max_attempts=3)
        assert statement.text == "Regarding 'What color is the car?', the answer is Red."
        assert len(llm.calls) == 3

    def test_batch_parses_numbered_lines(self):
        reply = "1. First fact.\n2. Second fact."
        llm = FakeLlm(rules=[("Rewrite each question", reply)])
        out = qas_to_statements([qa("a?", "1"), qa("b?", "2")], llm)
        assert [s.text for s in out] == ["First fact.", "Second fact."]
        assert len(llm.calls_for("qa_conversion")) == 1

    def test_batch_failure_degrades_to_per_item(self):
        llm = FakeLlm(
            rules=[
                ("Rewrite each question", "no numbering at all"),
                ("Rewrite the question", "Single statement."),
            ]
        )
        out = qas_to_statements([qa("a?", "1"), qa("b?", "2")], llm, max_attempts=2)
        assert [s.text for s in out] == ["Single statement.", "Single statement."]
        # 2 failed batch attempts, then one call per item
        assert len(llm.calls_for("qa_conversion")) == 4


class TestTreeDescription:
    def test_scripted_single_sentence(self):
        llm = FakeLlm(rules=[("scene outline", "There is a dog near the center of the image.")])
        out = tree_to_description("dog center=(50,60) size=40x30", llm)
        assert [s.text for s in out] == ["There is a dog near the center of the image."]
        assert all(s.origin == ORIGIN_TREE for s in out)

    def test_empty_tree_skipped(self):
        llm = FakeLlm()
        assert tree_to_description("   ", llm) == []
        assert llm.calls == []

    def test_sentence_count_matches_naive_splitter_oracle(self):
        reply = "A dog sits. A cat naps! Is there a lamp? Yes."
        llm = FakeLlm(rules=[("scene outline", reply)])
        out = tree_to_description("dog center=(1,1) size=2x2", llm)
        oracle = [p for p in re.split(r"(?<=[.!?])\s+", reply) if p.strip()]
        assert len(out) == len(oracle)

    def test_empty_replies_raise_after_retries(self):
        llm = FakeLlm(rules=[("scene outline", "")])
        with pytest.raises(EmptyDescription):
            tree_to_description("dog center=(1,1) size=2x2", llm, max_attempts=2)


class TestAssemble:
    def test_counts_two_captions_one_qa(self):
        bundle = make_bundle(captions=["cap one", "cap two"], qas=[("q?", "a")])
        llm = FakeLlm(rules=[("Rewrite the question", "Converted statement.")])
        ctx = assemble_context(bundle, "", llm)
        assert len(ctx.sentences) == 3
        assert [s.origin for s in ctx.sentences] == [ORIGIN_CAPTION, ORIGIN_CAPTION, ORIGIN_QA]

    def test_boxes_only_all_tree_origin(self):
        bundle = make_bundle(boxes=[make_box("dog")])
        llm = FakeLlm(rules=[("scene outline", "A dog is here. It is brown.")])
        ctx = assemble_context(bundle, "dog center=(20,20) size=20x20", llm)
        assert ctx.sentences and all(s.origin == ORIGIN_TREE for s in ctx.sentences)

    def test_per_origin_counts_match_recount_oracle(self):
        bundle = make_bundle(
            captions=["a caption"],
            boxes=[make_box("dog")],
            qas=[("q1?", "a1"), ("q2?", "a2")],
        )
        llm = FakeLlm(
            rules=[
                ("scene outline", "Tree fact one. Tree fact two."),
                ("Rewrite each question", "1. QA one.\n2. QA two."),
            ]
        )
        ctx = assemble_context(bundle, "dog center=(1,1) size=2x2", llm)
        counts = {}
        for s in ctx.sentences:
            counts[s.origin] = counts.get(s.origin, 0) + 1
        assert counts == {ORIGIN_CAPTION: 1, ORIGIN_TREE: 2, ORIGIN_QA: 2}
        # ordering contract: captions, then tree, then qa
        origins = [s.origin for s in ctx.sentences]
        assert origins == sorted(origins, key=[ORIGIN_CAPTION, ORIGIN_TREE, ORIGIN_QA].index)

    def test_plain_box_sentences_when_tree_off(self):
        bundle = make_bundle(boxes=[make_box("Dog", (10, 10, 20, 20))])
        ctx = assemble_context(bundle, "", FakeLlm())
        assert len(ctx.sentences) == 1
        assert "dog" in ctx.sentences[0].text
        assert ctx.sentences[0].origin == ORIGIN_TREE

    def test_no_annotation_dropped_with_fallbacks(self):
        bundle = make_bundle(captions=["c1"], qas=[("q1?", "a1"), ("q2?", "a2")])
        llm = FakeLlm(rules=[("Rewrite", "")])  # conversion always fails
        ctx = assemble_context(bundle, "", llm, max_attempts=2)
        assert len(ctx.sentences) == 3  # every caption and QA is represented

    def test_determinism_under_scripted_llm(self):
        bundle = make_bundle(captions=["c1"], qas=[("q?", "a")])
        rules = [("Rewrite the question", "Stable statement.")]
        a = assemble_context(bundle, "", FakeLlm(rules=rules))
        b = assemble_context(bundle, "", FakeLlm(rules=rules))
        assert a == b


class TestSplitSentences:
    def test_terminators_and_newlines(self):
        text = "One. Two!\nThree? Four"
        assert split_sentences(text) == ["One.", "Two!", "Three?", "Four"]
