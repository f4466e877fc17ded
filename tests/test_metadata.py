import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from convogen.errors import DegenerateBox, DimensionConflict
from convogen.metadata import (
    BoxAnnotation,
    CaptionAnnotation,
    ImageRef,
    MetadataBundle,
    QAAnnotation,
    bundle_from_record,
    bundle_to_record,
    canonical_image_stem,
    clamp_box,
    merge_bundles,
)

from conftest import make_box, make_bundle, make_image


def sources(bundle: MetadataBundle) -> set[str]:
    return (
        {c.source for c in bundle.captions}
        | {b.source for b in bundle.boxes}
        | {q.source for q in bundle.qas}
    )


def canonical(bundle: MetadataBundle) -> str:
    return json.dumps(bundle_to_record(bundle), sort_keys=True)


class TestTypes:
    def test_image_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            ImageRef("d", "i", "u.jpg", 0, 10)

    def test_caption_trims_and_rejects_empty(self):
        assert CaptionAnnotation("  hi  ", "s").text == "hi"
        with pytest.raises(ValueError):
            CaptionAnnotation("   ", "s")

    def test_box_rejects_flat_and_bad_depth(self):
        with pytest.raises(ValueError):
            BoxAnnotation("x", (0, 0, 0, 5), source="s")
        with pytest.raises(ValueError):
            BoxAnnotation("x", (0, 0, 5, 5), depth_mean=1.5, source="s")

    def test_qa_requires_both_fields(self):
        with pytest.raises(ValueError):
            QAAnnotation("q?", "  ", "s")

    def test_admissibility(self):
        assert not make_bundle().is_admissible
        assert make_bundle(captions=["a cat"]).is_admissible


class TestMergeBundles:
    def test_captions_plus_boxes_union_with_sources_intact(self):
        image_a = make_image(dataset="coco-captions", uri="shared/img_7.jpg")
        image_b = make_image(dataset="visual-genome", uri="other/IMG_7.JPG")
        a = make_bundle(image_a, captions=["one", "two"], source="coco-captions")
        b = make_bundle(
            image_b,
            boxes=[make_box(label=f"b{i}", source="visual-genome") for i in range(3)],
            source="visual-genome",
        )
        merged = merge_bundles(a, b)
        assert len(merged.captions) == 2
        assert len(merged.boxes) == 3
        assert {c.source for c in merged.captions} == {"coco-captions"}
        assert {x.source for x in merged.boxes} == {"visual-genome"}

    def test_empty_is_identity(self):
        a = make_bundle(captions=["one"], qas=[("q?", "a")])
        empty = make_bundle(make_image())
        assert canonical(merge_bundles(a, empty)) == canonical(a)

    def test_idempotent(self):
        a = make_bundle(captions=["one"], boxes=[make_box()], qas=[("q?", "a")])
        assert canonical(merge_bundles(a, a)) == canonical(a)

    def test_dimension_conflict_beyond_one_pixel(self):
        a = make_bundle(make_image(width=640))
        b = make_bundle(make_image(width=642))
        with pytest.raises(DimensionConflict):
            merge_bundles(a, b)
        # one pixel of disagreement is tolerated
        merge_bundles(make_bundle(make_image(width=640)), make_bundle(make_image(width=641)))

    def test_associative_commutative_up_to_sort(self):
        image = make_image()
        parts = [
            make_bundle(image, captions=["alpha"], source="s1"),
            make_bundle(image, boxes=[make_box("dog", source="s2")], source="s2"),
            make_bundle(image, qas=[("q?", "a")], source="s3"),
        ]
        outputs = set()
        for perm in itertools.permutations(parts):
            merged = perm[0]
            for nxt in perm[1:]:
                merged = merge_bundles(merged, nxt)
            outputs.add(canonical(merged))
        assert len(outputs) == 1

    def test_provenance_sources_preserved(self):
        image = make_image()
        a = make_bundle(image, captions=["x"], source="src-a")
        b = make_bundle(image, qas=[("q?", "a")], source="src-b")
        merged = merge_bundles(a, b)
        assert sources(merged) == {"src-a", "src-b"}

    def test_duplicate_boxes_union_attributes(self):
        image = make_image()
        a = make_bundle(image, boxes=[make_box("dog", (1, 1, 5, 5), ("brown",))])
        b = make_bundle(image, boxes=[make_box("dog", (1, 1, 5, 5), ("furry",))])
        merged = merge_bundles(a, b)
        assert len(merged.boxes) == 1
        assert merged.boxes[0].attributes == ("brown", "furry")


class TestClampBox:
    def test_partially_outside_clamped(self):
        image = make_image(width=100, height=100)
        box = make_box(bbox=(-5, -5, 20, 20))
        assert clamp_box(box, image).bbox == (0.0, 0.0, 15.0, 15.0)

    def test_inside_unchanged(self):
        image = make_image(width=100, height=100)
        box = make_box(bbox=(10, 10, 20, 20))
        assert clamp_box(box, image) is box

    def test_fully_outside_degenerate(self):
        image = make_image(width=100, height=100)
        with pytest.raises(DegenerateBox):
            clamp_box(make_box(bbox=(120, 120, 10, 10)), image)


class TestManifestRoundTrip:
    def test_round_trip_identity(self):
        bundle = make_bundle(
            captions=["a scene"],
            boxes=[make_box("dog", (1, 2, 3, 4), ("brown",), depth_mean=0.25)],
            qas=[("what?", "that")],
        )
        again = bundle_from_record(json.loads(json.dumps(bundle_to_record(bundle))))
        assert again == bundle

    @given(st.text(alphabet="abcXYZ_.-/0123456789", min_size=1, max_size=30))
    def test_stem_is_lowercase_and_dirless(self, uri):
        stem = canonical_image_stem(uri)
        assert stem == stem.lower()
        assert "/" not in stem

    def test_stem_examples(self):
        assert canonical_image_stem("a/b/COCO_train2014_000000123.jpg") == "coco_train2014_000000123"
        assert canonical_image_stem("http://host/path/IMG.PNG") == "img"
