"""Combine a parsed template with one raw example into a WrappedSequence.

Wrapping resolves meta keys against the example, applies per-node text
post-processing, expands soft-node duplicates, and assigns soft slots in
node order. The result is an ordered list of flagged segments that the
tokenization stage encodes without further template knowledge.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import MissingMetaKey
from .soft_plan import SoftEmbeddingPlan, assign_soft_slots
from .template import NodeKind, PostProcessing, TemplateAST

# what wrapped_text prints for a mask and for each soft slot
MASK_MARKER = "<mask>"
SOFT_MARKER = "<soft>"

__all__ = [
    "MASK_MARKER",
    "SOFT_MARKER",
    "InputExample",
    "Segment",
    "SegmentOrigin",
    "WrappedSequence",
    "apply_post_processing",
    "wrap_example",
    "wrapped_text",
]


@dataclass(frozen=True)
class InputExample:
    """One raw dataset record: guid, optional class label, meta fields."""

    guid: str
    meta: Mapping[str, str] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self):
        if not self.guid:
            raise ValueError("guid must be non-empty")


class SegmentOrigin(Enum):
    TEMPLATE = "template"
    EXAMPLE = "example"


@dataclass(frozen=True)
class Segment:
    text: str
    is_mask: bool = False
    soft_slot: int | None = None
    shortenable: bool = False
    loss: bool = False
    origin: SegmentOrigin = SegmentOrigin.TEMPLATE

    def __post_init__(self):
        if self.is_mask and not self.loss:
            raise ValueError("mask segments carry the loss flag")
        if self.soft_slot is not None and (self.is_mask or self.text):
            raise ValueError("soft segments have no text and are not masks")


@dataclass(frozen=True)
class WrappedSequence:
    segments: tuple[Segment, ...]
    example_guid: str
    label: str | None = None

    @property
    def mask_count(self) -> int:
        return sum(1 for s in self.segments if s.is_mask)


def apply_post_processing(fn: PostProcessing, text: str) -> str:
    """Apply one named post-processing function to a piece of text."""
    if fn is PostProcessing.STRIP_TRAILING_PUNCTUATION:
        return text.rstrip(string.punctuation)
    if fn is PostProcessing.LOWERCASE:
        return text.lower()
    if fn is PostProcessing.PREPEND_SPACE:
        return " " + text if text else text
    raise ValueError(f"unknown post-processing function {fn!r}")


def wrap_example(
    ast: TemplateAST,
    example: InputExample,
    plan: SoftEmbeddingPlan | None = None,
) -> WrappedSequence:
    """Wrap one example with a template.

    ``plan`` supplies soft-slot assignments; it is required when the
    template contains text-initialized soft nodes (their expansion
    depends on the tokenizer). Without such nodes the slots are assigned
    positionally and no plan is needed. Missing meta keys raise
    :class:`~promptpipe.errors.MissingMetaKey`; empty meta values are
    legal and produce empty segments.
    """
    node_slots = plan.node_slots if plan is not None else assign_soft_slots(ast)
    segments: list[Segment] = []
    for index, node in enumerate(ast.nodes):
        if node.kind is NodeKind.TEXT:
            segments.append(
                Segment(text=node.text or "", shortenable=node.shortenable)
            )
        elif node.kind is NodeKind.MASK:
            segments.append(Segment(text="", is_mask=True, loss=True))
        elif node.kind is NodeKind.META:
            value = example.meta.get(node.meta_key)  # type: ignore[arg-type]
            if value is None:
                raise MissingMetaKey(node.meta_key or "")
            if node.post_processing is not None:
                value = apply_post_processing(node.post_processing, value)
            segments.append(
                Segment(
                    text=value,
                    shortenable=node.shortenable,
                    origin=SegmentOrigin.EXAMPLE,
                )
            )
        else:
            for slot in node_slots[index]:
                segments.append(Segment(text="", soft_slot=slot))
    return WrappedSequence(
        segments=tuple(segments), example_guid=example.guid, label=example.label
    )


def wrapped_text(
    seq: WrappedSequence, mask_marker: str = MASK_MARKER, soft_marker: str = SOFT_MARKER
) -> str:
    """Human-readable form of a wrapped sequence.

    Concatenates segment texts in order, substituting markers for mask
    and soft segments; template whitespace is already part of the text
    segments, so no separators are inserted.
    """
    parts = []
    for seg in seq.segments:
        if seg.is_mask:
            parts.append(mask_marker)
        elif seg.soft_slot is not None:
            parts.append(soft_marker)
        else:
            parts.append(seg.text)
    return "".join(parts)
