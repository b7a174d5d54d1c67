from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    InputExample,
    NodeKind,
    PostProcessing,
    TemplateAST,
    TemplateLayout,
    TemplateNode,
    build_soft_plan,
    parse_template,
    serialize_template,
    wrap_example,
)
from promptpipe.cli import main
from promptpipe.errors import ConfigError
from promptpipe.soft_plan import SlotSpec, assign_soft_slots


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


# --- the plan golden -----------------------------------------------------------------


def test_plan_command_reproduces_the_showcase_golden(fixtures_dir, tmp_path):
    # the golden is the `plan` output of templates 0-6 of the showcase file, joined in order
    outputs = []
    for index in range(7):
        out = tmp_path / f"plan_{index}.json"
        argv = ["plan", "--template-file", str(fixtures_dir / "templates_showcase.txt"),
                "--template-index", str(index), "--vocab", str(fixtures_dir / "vocab.txt"),
                "--output", str(out)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert b"".join(outputs) == (fixtures_dir / "golden" / "plan_showcase.txt").read_bytes()


# --- the two-walk layout this module replaced, as an oracle --------------------------
# (changed since on purpose in one rule: an init text with no ids counts as no text)


def _reference_layout(ast, encode):
    # a blank text (no non-whitespace character) is no init text
    def text_of(node):
        return node.text if node.text and node.text.strip() else None

    group_texts: dict[int, str | None] = {}
    group_notes: dict[int, str | None] = {}
    for node in ast.nodes:
        if node.kind is NodeKind.SOFT and node.soft_id is not None:
            group_texts[node.soft_id] = group_texts.get(node.soft_id) or text_of(node)
            note = node.post_processing.value if node.post_processing else None
            if node.soft_id not in group_notes or (
                group_notes[node.soft_id] is None and note is not None
            ):
                group_notes[node.soft_id] = note

    def init_ids(text):
        if not text:
            return None
        if encode is None:
            raise ConfigError(
                "template has text-initialized soft nodes, whose slots depend on "
                "a tokenizer; build a soft plan with one first"
            )
        return encode(text) or None

    slots: list[SlotSpec] = []
    group_blocks: dict[int, list[int]] = {}
    node_slots: list[tuple[int, ...]] = []

    def allocate(text, share_group, duplicate, note):
        ids = init_ids(text)
        block: list[int] = []
        for _ in range(duplicate):
            if ids is None:
                slots.append(
                    SlotSpec(slot_id=len(slots), share_group=share_group,
                             post_processing_note=note)
                )
                block.append(slots[-1].slot_id)
            else:
                for tid in ids:
                    slots.append(
                        SlotSpec(slot_id=len(slots), share_group=share_group,
                                 init_token_ids=(tid,), post_processing_note=note)
                    )
                    block.append(slots[-1].slot_id)
        return block

    for node in ast.nodes:
        if node.kind is not NodeKind.SOFT:
            node_slots.append(())
            continue
        note = node.post_processing.value if node.post_processing else None
        if node.soft_id is None:
            emitted = allocate(text_of(node), None, node.duplicate, note)
        else:
            gid = node.soft_id
            if gid not in group_blocks:
                group_blocks[gid] = allocate(group_texts[gid], gid, 1, group_notes.get(gid))
            emitted = group_blocks[gid] * node.duplicate
        node_slots.append(tuple(emitted))
    return slots, node_slots


def _reference_json(slots) -> str:
    payload = {
        "slots": [
            {
                "slot_id": s.slot_id,
                "share_group": s.share_group,
                "init_token_ids": list(s.init_token_ids)
                if s.init_token_ids is not None
                else None,
                "trainable": s.trainable,
                "post_processing_note": s.post_processing_note,
            }
            for s in slots
        ]
    }
    return json.dumps(payload, indent=2)


# an empty text and blank texts tokenize to no ids; "zzz" is [UNK]
_BLANK_TEXTS = ["", " ", "\t\n"]
_INIT_TEXTS = ["It was", "great", "Does the first sentence", "zzz", *_BLANK_TEXTS]
_OTHER_NODES = [TemplateNode(NodeKind.MASK), TemplateNode(NodeKind.TEXT, text="a"),
                TemplateNode(NodeKind.META, meta_key="x")]


@st.composite
def _soft_template(draw) -> TemplateAST:
    # one init text per group (a group may carry none), as TemplateAST allows;
    # blank texts are no init text, so a group's nodes may carry them too
    group_texts = {gid: draw(st.sampled_from(_INIT_TEXTS)) for gid in (1, 2, 3)}
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            nodes.append(draw(st.sampled_from(_OTHER_NODES)))
            continue
        gid = draw(st.none() | st.integers(1, 3))
        choices = _INIT_TEXTS if gid is None else [group_texts[gid], *_BLANK_TEXTS]
        nodes.append(TemplateNode(
            NodeKind.SOFT,
            text=draw(st.none() | st.sampled_from(choices)),
            soft_id=gid,
            duplicate=draw(st.integers(1, 4)),
            post_processing=draw(st.none() | st.sampled_from(list(PostProcessing))),
        ))
    return TemplateAST(nodes=tuple(nodes))


def _outcome(fn):
    try:
        return fn()
    except ConfigError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ast=_soft_template())
def test_one_walk_layout_equals_the_two_walk_reference(wordpiece, ast):
    plan = build_soft_plan(ast, wordpiece)
    slots, node_slots = _reference_layout(ast, wordpiece.encode)
    assert plan.slots == tuple(slots)
    assert plan.node_slots == tuple(node_slots)
    assert plan.to_json() == _reference_json(slots)
    assert _outcome(lambda: assign_soft_slots(ast)) == _outcome(
        lambda: tuple(_reference_layout(ast, None)[1]))


def _soft_node_slots(ast, plan):
    return [slots for node, slots in zip(ast.nodes, plan.node_slots) if node.kind is NodeKind.SOFT]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ast=_soft_template())
def test_a_serialized_template_plans_the_same_slots(wordpiece, ast):
    # re-parsing merges adjacent text nodes, so only the soft nodes' slots are compared
    reparsed = parse_template(serialize_template(ast))
    plan, replan = build_soft_plan(ast, wordpiece), build_soft_plan(reparsed, wordpiece)
    assert replan.slots == plan.slots
    assert _soft_node_slots(reparsed, replan) == _soft_node_slots(ast, plan)
    # every soft node emits at least one slot per copy
    assert all(len(slots) >= node.duplicate for node, slots in zip(ast.nodes, plan.node_slots)
               if node.kind is NodeKind.SOFT)


@pytest.mark.parametrize("source", ['{"soft": " "} {"mask"}', '{"soft": ""} {"mask"}'])
def test_init_text_without_ids_gives_one_uninitialized_slot(wordpiece, source):
    ast = parse_template(source)
    plan = build_soft_plan(ast, wordpiece)
    assert plan.node_slots == ((0,), (), ())
    assert plan.slots == (SlotSpec(slot_id=0),)
    layout = TemplateLayout(ast, plan.node_slots)
    assert layout.render(InputExample(guid="g", meta={})) == "<soft> <mask>"
    # any sequence of ints per node is read as its tuple
    assert TemplateLayout(ast, [[0], [], []]).segments == layout.segments


@pytest.mark.parametrize("text", ["", " "])
def test_group_whose_text_has_no_ids_gets_one_uninitialized_slot(wordpiece, text):
    nodes = (TemplateNode(NodeKind.SOFT, text=text, soft_id=2), TemplateNode(NodeKind.MASK),
             TemplateNode(NodeKind.SOFT, soft_id=2, duplicate=3))
    plan = build_soft_plan(TemplateAST(nodes=nodes), wordpiece)
    assert plan.slots == (SlotSpec(slot_id=0, share_group=2),)
    assert plan.node_slots == ((0,), (), (0, 0, 0))


def test_blank_and_real_text_in_one_group_share_the_real_texts_slots(wordpiece, vocab):
    # a blank text is no init text, so it cannot conflict with the group's text
    ast = parse_template('{"soft": " ", "soft_id": 1} {"soft": "the", "soft_id": 1} {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    assert plan.slots == (SlotSpec(slot_id=0, share_group=1, init_token_ids=(vocab.ids["the"],)),)
    assert vocab.ids["the"] == 27
    assert _soft_node_slots(ast, plan) == [(0,), (0,)]


@pytest.mark.parametrize("text", ["", " ", "\t \n"], ids=["empty", "space", "mixed"])
def test_blank_init_text_needs_no_tokenizer(fixtures_dir, tmp_path, wordpiece, text):
    source = '{"soft": %s} {"mask"}' % json.dumps(text)
    ast = parse_template(source)
    assert assign_soft_slots(ast) == ((0,), (), ())
    assert assign_soft_slots(ast) == build_soft_plan(ast, wordpiece).node_slots
    template = tmp_path / "blank.txt"
    template.write_text(source + "\n", encoding="utf-8")
    out = tmp_path / "wrap.jsonl"
    argv = ["wrap", "--template-file", str(template), "--dataset",
            str(fixtures_dir / "sentiment.jsonl"), "--output", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text(encoding="utf-8").splitlines()[0])["wrapped_text"] == (
        "<soft> <mask>")
