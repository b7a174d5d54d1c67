"""Lay a parsed template out as positions and combine it with raw examples.

A :class:`TemplateLayout` is the one place where node kinds become
positions: one :class:`Segment` per literal text, mask and soft slot (soft
nodes expand their duplicates into their assigned slots), and an empty
placeholder per meta node. It needs no tokenizer. Per example it resolves
the meta values, post-processed, and renders the human-readable text;
:class:`~promptpipe.tokenization.CompiledTemplate` builds on it to encode.
:func:`wrap_example` substitutes the meta values into the layout's
segments, giving a :class:`WrappedSequence` that
:func:`~promptpipe.tokenization.encode_wrapped` encodes without further
template knowledge.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import ConfigError, ConflictingAttributes, DataError, MissingMetaKey
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
    "TemplateLayout",
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
            raise DataError("guid must be non-empty")


@dataclass(frozen=True)
class Segment:
    text: str
    is_mask: bool = False
    soft_slot: int | None = None
    shortenable: bool = False
    loss: bool = False

    def __post_init__(self):
        if self.is_mask != self.loss:
            raise ConflictingAttributes("mask segments carry the loss flag, and no other does")
        if self.soft_slot is not None and (self.is_mask or self.text):
            raise ConflictingAttributes("soft segments have no text and are not masks")


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
    valid = ", ".join(p.value for p in PostProcessing)
    raise ConfigError(f"unknown post-processing function {fn!r}; expected one of {valid}")


class TemplateLayout:
    """A template's positions, independent of any tokenizer and example.

    ``segments`` holds one segment per literal text, mask and soft slot
    (``node_slots`` gives each node's slots, as a
    :class:`~promptpipe.soft_plan.SoftEmbeddingPlan` does), and an empty
    placeholder per meta node, whose shortenable flag is the node's.
    """

    def __init__(self, ast: TemplateAST, node_slots: Sequence[Sequence[int]]):
        self.ast = ast
        segments: list[Segment] = []
        # per meta node: (segment index, key, post-processing)
        metas: list[tuple[int, str, PostProcessing | None]] = []
        text: list[str] = []  # str.format pieces of the rendered text
        for node, slots in zip(ast.nodes, node_slots):
            if node.kind is NodeKind.TEXT:
                text.append(node.text.replace("{", "{{").replace("}", "}}"))
                segments.append(Segment(text=node.text, shortenable=node.shortenable))
            elif node.kind is NodeKind.MASK:
                text.append(MASK_MARKER)
                segments.append(Segment(text="", is_mask=True, loss=True))
            elif node.kind is NodeKind.META:
                text.append("{}")
                metas.append((len(segments), node.meta_key, node.post_processing))
                segments.append(Segment(text="", shortenable=node.shortenable))
            else:
                for slot in slots:
                    text.append(SOFT_MARKER)
                    segments.append(Segment(text="", soft_slot=slot))
        self.segments = tuple(segments)
        self._metas = metas
        self._format = "".join(text)

    def resolve(self, example: InputExample) -> list[str]:
        """The example's meta values in node order, post-processed.

        A missing key raises :class:`~promptpipe.errors.MissingMetaKey`;
        an empty value is legal.
        """
        values = []
        for _, key, post_processing in self._metas:
            value = example.meta.get(key)
            if value is None:
                raise MissingMetaKey(key)
            if post_processing is not None:
                value = apply_post_processing(post_processing, value)
            values.append(value)
        return values

    def render(self, values: Sequence[str]) -> str:
        """The human-readable text for resolved meta values, as :func:`wrapped_text`."""
        return self._format.format(*values)


def wrap_example(
    ast: TemplateAST,
    example: InputExample,
    plan: SoftEmbeddingPlan | None = None,
) -> WrappedSequence:
    """Wrap one example with a template: its layout, with the meta values in.

    ``plan`` supplies soft-slot assignments; it is required when the
    template contains text-initialized soft nodes (their expansion
    depends on the tokenizer), which otherwise raise
    :class:`~promptpipe.errors.ConfigError`. Without such nodes the slots
    are assigned positionally and no plan is needed. A missing meta key
    raises :class:`~promptpipe.errors.MissingMetaKey`; an empty value gives
    an empty segment.
    """
    layout = TemplateLayout(ast, plan.node_slots if plan is not None else assign_soft_slots(ast))
    segments = list(layout.segments)
    for (index, _, _), value in zip(layout._metas, layout.resolve(example)):
        segments[index] = Segment(text=value, shortenable=segments[index].shortenable)
    return WrappedSequence(
        segments=tuple(segments), example_guid=example.guid, label=example.label
    )


def wrapped_text(seq: WrappedSequence) -> str:
    """Human-readable form of a wrapped sequence.

    Concatenates segment texts in order, substituting markers for mask
    and soft segments; template whitespace is already part of the text
    segments, so no separators are inserted.
    """
    parts = []
    for seg in seq.segments:
        if seg.is_mask:
            parts.append(MASK_MARKER)
        elif seg.soft_slot is not None:
            parts.append(SOFT_MARKER)
        else:
            parts.append(seg.text)
    return "".join(parts)
