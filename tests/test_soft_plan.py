from __future__ import annotations

import json

import pytest

from promptpipe import (
    InputExample,
    build_soft_plan,
    parse_template,
    wrap_example,
)
from promptpipe.errors import ConfigError
from promptpipe.soft_plan import assign_soft_slots


def test_shared_slot_initialized_once(wordpiece):
    ast = parse_template(
        '{"meta": "premise"} {"meta": "hypothesis"} {"soft": "Does"} '
        '{"soft": "the", "soft_id": 1} first sentence entails {"soft_id": 1} second?'
    )
    plan = build_soft_plan(ast, wordpiece)
    assert len(plan) == 2
    does_slot, the_slot = plan.slots
    assert does_slot.share_group is None
    assert does_slot.init_token_ids == tuple(wordpiece.encode("Does"))
    assert the_slot.share_group == 1
    assert the_slot.init_token_ids == tuple(wordpiece.encode("the"))
    # both soft_id-1 occurrences emit the same slot
    emission = [slots for slots in plan.node_slots if slots]
    assert emission == [(0,), (1,), (1,)]


def test_anonymous_duplicate_gets_fresh_uninitialized_slots(wordpiece):
    ast = parse_template('{"soft": None, "duplicate": 100} {"meta": "text"} {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    assert len(plan) == 100
    assert all(s.init_token_ids is None for s in plan.slots)
    assert all(s.share_group is None for s in plan.slots)
    assert [s.slot_id for s in plan.slots] == list(range(100))


def test_template_without_soft_nodes_yields_empty_plan(wordpiece):
    ast = parse_template('{"meta": "text"} It is {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    assert len(plan) == 0


def test_text_initialization_expands_one_token_per_slot(wordpiece):
    phrase = "Does the first sentence entails the second ?"
    ast = parse_template('{"soft": "%s"} {"mask"} {"soft"}' % phrase)
    plan = build_soft_plan(ast, wordpiece)
    ids = wordpiece.encode(phrase)
    assert len(plan) == len(ids) + 1  # the trailing bare soft gets a fresh slot
    for slot, tid in zip(plan.slots, ids):
        assert slot.init_token_ids == (tid,)
    assert plan.slots[-1].init_token_ids is None


def test_duplicate_with_text_repeats_the_block(wordpiece):
    ast = parse_template('{"soft": "It was", "duplicate": 2} {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    ids = wordpiece.encode("It was")
    assert len(plan) == len(ids) * 2
    inits = [s.init_token_ids for s in plan.slots]
    assert inits == [(i,) for i in ids] * 2


def test_slot_count_formula(wordpiece):
    # anonymous expansions plus one block per shared group
    ast = parse_template(
        '{"soft": None, "duplicate": 3} {"soft": "It was"} '
        '{"soft": "the", "soft_id": 5} {"soft_id": 5} {"mask"}'
    )
    plan = build_soft_plan(ast, wordpiece)
    expected = 3 + len(wordpiece.encode("It was")) + len(wordpiece.encode("the"))
    assert len(plan) == expected


def test_plan_deterministic(wordpiece):
    ast = parse_template('{"soft": "It was", "duplicate": 2} {"soft_id": 9} {"mask"}')
    assert build_soft_plan(ast, wordpiece) == build_soft_plan(ast, wordpiece)


def test_wrap_segments_reference_plan_slots(wordpiece):
    ast = parse_template(
        '{"soft": "Does the first sentence entails the second ?"} '
        '{"meta": "x"} {"mask"} {"soft_id": 2} {"soft_id": 2}'
    )
    plan = build_soft_plan(ast, wordpiece)
    wrapped = wrap_example(ast, InputExample(guid="g", meta={"x": "hi"}), plan)
    slot_ids = {s.slot_id for s in plan.slots}
    seen = [seg.soft_slot for seg in wrapped.segments if seg.soft_slot is not None]
    assert set(seen) <= slot_ids
    # shared group emits the same slot twice
    assert seen.count(seen[-1]) == 2


def test_assign_soft_slots_without_tokenizer_matches_plan(wordpiece):
    ast = parse_template('{"soft": None, "duplicate": 4} {"soft_id": 7} {"mask"} {"soft_id": 7}')
    positional = assign_soft_slots(ast)
    plan = build_soft_plan(ast, wordpiece)
    assert positional == plan.node_slots


def test_assign_soft_slots_requires_plan_for_text_init():
    ast = parse_template('{"soft": "warm"} {"mask"}')
    with pytest.raises(ConfigError):
        assign_soft_slots(ast)


def test_soft_post_processing_recorded_as_note(wordpiece):
    ast = parse_template('{"soft": "It was", "post_processing": "lowercase"} {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    assert all(s.post_processing_note == "lowercase" for s in plan.slots)


def test_plan_json_export_shape(wordpiece):
    ast = parse_template('{"soft": "the", "soft_id": 1} {"soft": None, "duplicate": 2} {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    payload = json.loads(plan.to_json())
    assert list(payload) == ["slots"]
    assert [s["slot_id"] for s in payload["slots"]] == [0, 1, 2]
    assert payload["slots"][0] == {
        "slot_id": 0,
        "share_group": 1,
        "init_token_ids": list(wordpiece.encode("the")),
        "trainable": True,
        "post_processing_note": None,
    }
    assert payload["slots"][1]["init_token_ids"] is None
