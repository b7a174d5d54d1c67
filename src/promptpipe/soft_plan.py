"""Soft-token slot planning: which trainable embedding slots exist, how
soft nodes share them, and which token ids initialize them.

Slot layout rules (deterministic, independent of examples). One walk
over the template's nodes allocates each slot block once, in node order:

* An ungrouped soft node gets fresh slots for each of its ``duplicate``
  copies: one slot per token of its initialization text (one token id
  per slot), or a single uninitialized slot when it has no text. A blank
  text (``""``, ``" "``; see :func:`~promptpipe.template.is_init_text`)
  counts as no text, with or without a tokenizer, so every soft node
  emits at least one slot. Its slots note its post-processing.
* Nodes sharing a ``soft_id`` reference one slot block, allocated at the
  group's first node. The block takes the group's initialization text
  (one per group, whichever node carries it) and the first
  post-processing note of any of the group's nodes, and is a single
  uninitialized slot when no group node carries text. Every node of the
  group emits the shared block, repeated by its own ``duplicate``; no
  new slots are created for later nodes.

Slot ids are dense and assigned in node order, so re-planning the same
template always yields the same table.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

from .errors import ConfigError, InvalidValueType, check_instance
from .template import NodeKind, TemplateAST, TemplateNode, is_init_text

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
        # SlotSpec's field order is the JSON's; tuples serialize as lists
        return json.dumps({"slots": [asdict(s) for s in self.slots]}, indent=2)


def _layout(
    ast: TemplateAST, encode: Callable[[str], list[int]] | None
) -> tuple[list[SlotSpec], list[tuple[int, ...]]]:
    slots: list[SlotSpec] = []
    blocks: dict[int, tuple[int, ...]] = {}  # per soft_id, its shared block
    node_slots: list[tuple[int, ...]] = []
    for node in ast.nodes:
        gid = node.soft_id
        if node.kind is not NodeKind.SOFT:
            node_slots.append(())
        elif gid is None:
            node_slots.append(_allocate(slots, [node], node.text, None, node.duplicate, encode))
        else:
            if gid not in blocks:
                group = [n for n in ast.nodes if n.soft_id == gid]
                text = next((n.text for n in group if is_init_text(n.text)), None)
                blocks[gid] = _allocate(slots, group, text, gid, 1, encode)
            node_slots.append(blocks[gid] * node.duplicate)
    return slots, node_slots


def _allocate(
    slots: list[SlotSpec], nodes: list[TemplateNode], text: str | None,
    share_group: int | None, copies: int, encode: Callable[[str], list[int]] | None,
) -> tuple[int, ...]:
    """Append ``copies`` fresh blocks for ``nodes`` to ``slots`` and return
    their slot ids. A block is one slot per token of ``text``, or one
    uninitialized slot when ``text`` has no ids; each slot notes the first
    post-processing of ``nodes``."""
    if is_init_text(text) and encode is None:
        raise ConfigError(
            "template has text-initialized soft nodes, whose slots depend on "
            "a tokenizer; build a soft plan with one first"
        )
    ids = encode(text) if is_init_text(text) else []
    inits: list[tuple[int, ...] | None] = [(tid,) for tid in ids] or [None]
    note = next((n.post_processing.value for n in nodes if n.post_processing), None)
    start = len(slots)
    for init in inits * copies:
        slots.append(SlotSpec(len(slots), share_group, init, post_processing_note=note))
    return tuple(range(start, len(slots)))


def build_soft_plan(ast: TemplateAST, tokenizer) -> SoftEmbeddingPlan:
    """Build the slot table for a template, tokenizing initialization text.

    ``tokenizer`` is a :class:`~promptpipe.tokenization.WhitespaceTokenizer`
    or :class:`~promptpipe.tokenization.WordPieceTokenizer`; anything else
    raises :class:`~promptpipe.errors.ConfigError`.
    """
    from .tokenization import _check_tokenizer  # tokenization imports this module

    check_instance("ast", ast, TemplateAST, InvalidValueType)
    _check_tokenizer(tokenizer)
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
