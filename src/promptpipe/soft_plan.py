"""Soft-token slot planning: which trainable embedding slots exist, how
soft nodes share them, and which token ids initialize them.

Slot layout rules (deterministic, independent of examples):

* An ungrouped soft node with initialization text of k tokens expands to
  k fresh slots (one token id per slot); with no text and duplicate=n it
  expands to n fresh uninitialized slots; text with duplicate=d repeats
  the k-slot block d times (k*d fresh slots).
* Nodes sharing a ``soft_id`` reference one slot block. The block is
  sized by the group's unique initialization text (or a single
  uninitialized slot when no group node carries text) and allocated at
  the group's first occurrence in node order. Every occurrence emits the
  shared block, repeated by its own ``duplicate``; no new slots are
  created for repeat occurrences.

Slot ids are dense and assigned in node order, so re-planning the same
template always yields the same table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError
from .template import NodeKind, TemplateAST

__all__ = ["SlotSpec", "SoftEmbeddingPlan", "build_soft_plan", "assign_soft_slots"]


@dataclass(frozen=True)
class SlotSpec:
    slot_id: int
    share_group: int | None = None
    init_token_ids: tuple[int, ...] | None = None
    trainable: bool = True
    post_processing_note: str | None = None


@dataclass(frozen=True)
class SoftEmbeddingPlan:
    """Slot table plus, per template node, the slot ids that node emits."""

    slots: tuple[SlotSpec, ...]
    node_slots: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.slots)

    def to_json(self) -> str:
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
                for s in self.slots
            ]
        }
        return json.dumps(payload, indent=2)


def _layout(
    ast: TemplateAST, encode: Callable[[str], list[int]] | None
) -> tuple[list[SlotSpec], list[tuple[int, ...]]]:
    group_texts: dict[int, str | None] = {}
    group_notes: dict[int, str | None] = {}
    for node in ast.nodes:
        if node.kind is NodeKind.SOFT and node.soft_id is not None:
            # TemplateAST allows one init text per group: the first found
            group_texts[node.soft_id] = group_texts.get(node.soft_id) or node.text or None
            note = node.post_processing.value if node.post_processing else None
            if node.soft_id not in group_notes or (
                group_notes[node.soft_id] is None and note is not None
            ):
                group_notes[node.soft_id] = note

    def init_ids(text: str | None) -> list[int] | None:
        if text is None:
            return None
        if encode is None:
            raise ConfigError(
                "template has text-initialized soft nodes, whose slots depend on "
                "a tokenizer; build a soft plan with one first"
            )
        return encode(text)

    slots: list[SlotSpec] = []
    group_blocks: dict[int, list[int]] = {}
    node_slots: list[tuple[int, ...]] = []

    def allocate(
        text: str | None, share_group: int | None, duplicate: int, note: str | None
    ) -> list[int]:
        ids = init_ids(text)
        block: list[int] = []
        for _ in range(duplicate):
            if ids is None:
                slots.append(
                    SlotSpec(
                        slot_id=len(slots),
                        share_group=share_group,
                        post_processing_note=note,
                    )
                )
                block.append(slots[-1].slot_id)
            else:
                for tid in ids:
                    slots.append(
                        SlotSpec(
                            slot_id=len(slots),
                            share_group=share_group,
                            init_token_ids=(tid,),
                            post_processing_note=note,
                        )
                    )
                    block.append(slots[-1].slot_id)
        return block

    for node in ast.nodes:
        if node.kind is not NodeKind.SOFT:
            node_slots.append(())
            continue
        note = node.post_processing.value if node.post_processing else None
        if node.soft_id is None:
            emitted = allocate(node.text, None, node.duplicate, note)
        else:
            gid = node.soft_id
            if gid not in group_blocks:
                group_blocks[gid] = allocate(
                    group_texts[gid], gid, 1, group_notes.get(gid)
                )
            emitted = group_blocks[gid] * node.duplicate
        node_slots.append(tuple(emitted))
    return slots, node_slots


def build_soft_plan(ast: TemplateAST, tokenizer) -> SoftEmbeddingPlan:
    """Build the slot table for a template, tokenizing initialization text.

    ``tokenizer`` is anything with an ``encode(text) -> list[int]`` method.
    """
    slots, node_slots = _layout(ast, tokenizer.encode)
    return SoftEmbeddingPlan(slots=tuple(slots), node_slots=tuple(node_slots))


def assign_soft_slots(ast: TemplateAST) -> tuple[tuple[int, ...], ...]:
    """Per-node slot ids without a tokenizer.

    Works only for templates whose soft nodes carry no initialization
    text (their expansion is then independent of any vocabulary); raises
    :class:`~promptpipe.errors.ConfigError` otherwise.
    """
    _, node_slots = _layout(ast, None)
    return tuple(node_slots)
