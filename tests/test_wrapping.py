from __future__ import annotations

import random

import pytest

from promptpipe import (
    InputExample,
    PostProcessing,
    Segment,
    apply_post_processing,
    parse_template,
    wrap_example,
    wrapped_text,
)
from promptpipe.errors import ConfigError, ConflictingAttributes, DataError, MissingMetaKey

EINSTEIN = "Albert Einstein was one of the greatest intellects of his time."


def test_example_guid_must_be_non_empty():
    with pytest.raises(DataError, match="guid must be non-empty"):
        InputExample(guid="")


@pytest.mark.parametrize(
    "flags, message",
    [
        ({"is_mask": True}, "mask segments carry the loss flag"),
        ({"soft_slot": 0, "is_mask": True, "loss": True}, "soft segments have no text"),
        ({"soft_slot": 0, "text": "x"}, "soft segments have no text"),
        ({"text": "great", "loss": True}, "and no other does"),
    ],
)
def test_segment_flag_conflicts_raise_conflicting_attributes(flags, message):
    with pytest.raises(ConflictingAttributes, match=message):
        Segment(**{"text": "", **flags})


def test_unknown_post_processing_is_a_config_error_listing_valid_names():
    with pytest.raises(ConfigError) as failure:
        apply_post_processing("lowercase", "X")  # a name, not a PostProcessing
    assert str(failure.value) == (
        "unknown post-processing function 'lowercase'; expected one of "
        "strip_trailing_punctuation, lowercase, prepend_space"
    )


def test_sentiment_wrap_matches_expected_sentence():
    ast = parse_template('{"meta":"text"} It is {"mask"}')
    example = InputExample(guid="e1", meta={"text": EINSTEIN})
    wrapped = wrap_example(ast, example)
    assert wrapped_text(wrapped) == EINSTEIN + " It is <mask>"
    assert wrapped.mask_count == 1


def test_duplicated_soft_nodes_expand_in_place():
    ast = parse_template('{"soft": None, "duplicate": 100} {"meta": "text"} {"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g", meta={"text": "hi"}))
    soft = [s for s in wrapped.segments if s.soft_slot is not None]
    assert len(soft) == 100
    assert [s.soft_slot for s in soft] == list(range(100))
    # the soft block, then " ", then the meta segment
    first_meta = 101
    assert wrapped.segments[first_meta] == Segment(text="hi", shortenable=True)
    assert all(i < first_meta for i, s in enumerate(wrapped.segments) if s.soft_slot is not None)


def test_mask_only_template():
    ast = parse_template('{"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g"))
    assert len(wrapped.segments) == 1
    assert wrapped.segments[0].is_mask and wrapped.segments[0].loss


def test_missing_meta_key_raises():
    ast = parse_template('{"meta": "title"} {"mask"}')
    with pytest.raises(MissingMetaKey) as err:
        wrap_example(ast, InputExample(guid="g", meta={"other": "x"}))
    assert err.value.key == "title"


def test_empty_meta_value_is_legal():
    ast = parse_template('{"meta": "text"} It is {"mask"}')
    wrapped = wrap_example(ast, InputExample(guid="g", meta={"text": ""}))
    assert wrapped_text(wrapped) == " It is <mask>"


def test_post_processing_applied_to_meta_text():
    ast = parse_template(
        '{"meta": "context", "post_processing": lambda s: s.rstrip(string.punctuation)}. {"mask"}'
    )
    wrapped = wrap_example(ast, InputExample(guid="g", meta={"context": "the context."}))
    assert wrapped.segments[0].text == "the context"
    assert wrapped_text(wrapped) == "the context. <mask>"


def test_apply_post_processing_functions():
    strip = PostProcessing.STRIP_TRAILING_PUNCTUATION
    assert apply_post_processing(strip, "the context.") == "the context"
    assert apply_post_processing(strip, "abc") == "abc"
    assert apply_post_processing(strip, "w!?.") == "w"
    assert apply_post_processing(PostProcessing.LOWERCASE, "It Was") == "it was"
    assert apply_post_processing(PostProcessing.PREPEND_SPACE, "x") == " x"
    assert apply_post_processing(PostProcessing.PREPEND_SPACE, "") == ""


def test_wrap_is_pure():
    ast = parse_template('{"soft": None, "duplicate": 3} {"meta": "a"} {"mask"}')
    example = InputExample(guid="g", meta={"a": "text"})
    assert wrap_example(ast, example) == wrap_example(ast, example)


def _random_template(rng: random.Random) -> tuple[str, list[str]]:
    keys = []
    parts = []
    for _ in range(rng.randrange(1, 7)):
        roll = rng.random()
        if roll < 0.3:
            parts.append('{"mask"}')
        elif roll < 0.5:
            key = f"k{rng.randrange(4)}"
            keys.append(key)
            parts.append('{"meta": "%s"}' % key)
        elif roll < 0.7:
            parts.append('{"soft": None, "duplicate": %d}' % rng.randrange(1, 5))
        else:
            parts.append(rng.choice(["plain", "words here", "x y"]))
    return " ".join(parts), keys


def test_mask_conservation_over_randomized_examples():
    rng = random.Random(7)
    for _ in range(1000):
        source, keys = _random_template(rng)
        ast = parse_template(source)
        example = InputExample(
            guid="g",
            meta={f"k{i}": " ".join(["w"] * rng.randrange(0, 5)) for i in range(4)},
        )
        wrapped = wrap_example(ast, example)
        assert wrapped.mask_count == source.count('{"mask"}')


def test_origin_soundness():
    ast = parse_template('head {"meta": "a", "post_processing": "lowercase"} tail {"mask"}')
    example = InputExample(guid="g", meta={"a": "TeXT"})
    wrapped = wrap_example(ast, example)
    meta = 1  # the meta node's segment: after "head ", before " tail " and the mask
    for index, seg in enumerate(wrapped.segments):
        if index == meta:
            assert seg.text == "text"  # post-processed copy of the meta value
        elif not seg.is_mask and seg.soft_slot is None:
            assert seg.text in ("head ", " tail ")
    assert wrapped.segments[3].is_mask
