from __future__ import annotations

import random
import re
import string

import pytest

from promptpipe import (
    Dataset,
    InputExample,
    PostProcessing,
    Segment,
    apply_post_processing,
    parse_template,
    load_jsonl,
    wrap_example,
    wrapped_text,
)
from promptpipe.data import example_to_dict
from promptpipe.errors import ConfigError, ConflictingAttributes, DataError, MissingMetaKey
from promptpipe.textfile import write_jsonl
from promptpipe.wrapping import _PUNCTUATION

EINSTEIN = "Albert Einstein was one of the greatest intellects of his time."


def test_example_guid_must_be_non_empty():
    with pytest.raises(DataError, match="guid must be non-empty"):
        InputExample(guid="")


def test_example_guid_must_be_a_string(tmp_path):
    # before, a guid of 5 was saved to a file that load_jsonl rejects
    with pytest.raises(DataError, match="'guid' must be a string, got 5"):
        InputExample(guid=5)
    dataset = Dataset.from_examples([InputExample(guid="5", meta={"text": "x"}, label="a")])
    write_jsonl(map(example_to_dict, dataset), tmp_path / "data.jsonl")
    assert load_jsonl(tmp_path / "data.jsonl") == dataset


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"label": ""}, "'label' must be a non-empty string when present, got ''"),
        ({"label": 3}, "'label' must be a non-empty string when present, got 3"),
        ({"meta": {"text": 5}}, "meta value for 'text' must be a string, got 5"),
        ({"meta": {"text": None}}, "meta value for 'text' must be a string, got None"),
        ({"meta": ["text"]}, "'meta' must be an object"),
    ],
    ids=["empty_label", "int_label", "int_meta_value", "none_meta_value", "list_meta"],
)
def test_example_label_and_meta_values_are_checked_at_construction(fields, message):
    # before, a non-string meta value surfaced as a bare AttributeError at encode time
    with pytest.raises(DataError, match=re.escape(message)):
        InputExample(guid="g", **fields)


@pytest.mark.parametrize(
    "flags, message",
    [
        ({"soft_slot": 0, "is_mask": True}, "soft segments have no text"),
        ({"soft_slot": 0, "text": "x"}, "soft segments have no text"),
        ({"is_mask": True, "text": "great movie"}, "mask segments have no text"),
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


def test_trailing_punctuation_is_string_punctuation():
    # wrapping spells the set out rather than importing string for it
    assert _PUNCTUATION == string.punctuation
    text = "done" + string.punctuation[::-1]
    assert apply_post_processing(PostProcessing.STRIP_TRAILING_PUNCTUATION, text) == "done"


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
    assert wrapped.segments[0].is_mask


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
