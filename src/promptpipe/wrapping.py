"""Lay a parsed template out as positions and combine it with raw examples.

A :class:`TemplateLayout` is the one place where node kinds become
positions: one :class:`Segment` per literal text, mask and soft slot (soft
nodes expand their duplicates into their assigned slots), and an empty
placeholder per meta node; a mask segment is the only prediction slot.
It needs no tokenizer. Per example it renders the human-readable text
(:meth:`TemplateLayout.render`);
:class:`~promptpipe.tokenization.CompiledTemplate` builds on it to encode.
:func:`wrap_example` substitutes the meta values into the layout's
segments, giving a :class:`WrappedSequence` that
:func:`~promptpipe.tokenization.encode_wrapped` encodes without further
template knowledge.
"""

from __future__ import annotations

import string
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

from .errors import (
    ConfigError,
    ConflictingAttributes,
    DataError,
    InvalidValueType,
    MissingMetaKey,
    check_instance,
)
from .soft_plan import SoftEmbeddingPlan, assign_soft_slots
from .template import NodeKind, PostProcessing, TemplateAST
from .textfile import has_surrogate

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


@dataclass(frozen=True, init=False)
class InputExample:
    """One raw dataset record: guid, optional class label, meta fields.

    The guid and a label, when present, are non-empty strings, and every
    meta key and value is a string; none of these strings holds a lone
    surrogate, which no output could write. Anything else raises
    :class:`~promptpipe.errors.DataError`. ``meta`` is a read-only view of
    the copy that was checked.
    """

    guid: str
    meta: Mapping[str, str]
    label: str | None = None

    def __init__(self, guid: str, meta: Mapping[str, str] = MappingProxyType({}),
                 label: str | None = None):
        if not isinstance(guid, str):
            raise DataError(f"'guid' must be a string, got {guid!r}")
        if not guid:
            raise DataError("guid must be non-empty")
        if not guid.isascii():
            _check_text("'guid'", guid)
        if label is not None:
            if not (isinstance(label, str) and label):
                raise DataError(f"'label' must be a non-empty string when present, got {label!r}")
            if not label.isascii():
                _check_text("'label'", label)
        # a dict, as every loaded meta is, needs no ABC check
        if type(meta) is not dict and not isinstance(meta, Mapping):
            raise DataError(f"'meta' must be an object, got {type(meta).__name__}")
        meta = dict(meta)
        for key, value in meta.items():
            if not isinstance(key, str):
                raise DataError(f"meta key must be a string, got {key!r}")
            if not isinstance(value, str):
                raise DataError(f"meta value for {key!r} must be a string, got {value!r}")
            if not (key.isascii() and value.isascii()):
                _check_text("meta key", key)
                _check_text(f"meta value for {key!r}", value)
        # the instance is frozen: one update of its fields costs less than the
        # three setattr calls of a generated __init__, and pays for the copy
        self.__dict__.update(guid=guid, meta=MappingProxyType(meta), label=label)

    def __reduce__(self):
        # a view cannot be pickled: rebuild, and so check, from a plain dict
        return InputExample, (self.guid, dict(self.meta), self.label)


def _check_text(name: str, text: str) -> None:
    """Raise :class:`~promptpipe.errors.DataError` if ``text`` holds a lone
    surrogate; only non-ASCII text can, so callers test ``isascii`` first."""
    if has_surrogate(text):
        raise DataError(f"{name} must not hold a lone surrogate, got {text!r}")


@dataclass(frozen=True)
class Segment:
    """One position of a wrapped template: literal or meta text, a mask, or
    a soft slot. ``text`` must be a ``str``, ``is_mask`` and
    ``shortenable`` ``bool`` values, and ``soft_slot`` ``None`` or an
    ``int`` >= 0 that is not a ``bool``; anything else, or a soft slot
    or mask with text, raises a :class:`~promptpipe.errors.TemplateError`."""

    text: str
    is_mask: bool = False
    soft_slot: int | None = None
    shortenable: bool = False

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise InvalidValueType(f"segment text must be a string, got {self.text!r}")
        if not (isinstance(self.is_mask, bool) and isinstance(self.shortenable, bool)):
            name = "shortenable" if isinstance(self.is_mask, bool) else "is_mask"
            raise InvalidValueType(f"segment {name} must be a bool, got {getattr(self, name)!r}")
        slot = self.soft_slot
        if slot is not None and (not isinstance(slot, int) or isinstance(slot, bool) or slot < 0):
            raise InvalidValueType(f"segment soft_slot must be None or an int >= 0, got {slot!r}")
        if self.soft_slot is not None and (self.is_mask or self.text):
            raise ConflictingAttributes("soft segments have no text and are not masks")
        if self.is_mask and self.text:
            raise ConflictingAttributes("mask segments have no text")


@dataclass(frozen=True)
class WrappedSequence:
    """One example wrapped by a template: its segments in order, with the
    example's guid and label. ``segments`` must be a tuple of
    :class:`Segment`, ``example_guid`` a ``str`` and ``label`` a ``str``
    or ``None``; anything else raises :class:`~promptpipe.errors.DataError`."""

    segments: tuple[Segment, ...]
    example_guid: str
    label: str | None = None

    def __post_init__(self):
        if not isinstance(self.segments, tuple) or not all(
                isinstance(segment, Segment) for segment in self.segments):
            raise DataError(f"segments must be a tuple of Segment, got {self.segments!r}")
        check_instance("example_guid", self.example_guid, str, DataError)
        if self.label is not None and not isinstance(self.label, str):
            raise DataError(f"label must be a str or None, got {self.label!r}")

    @property
    def mask_count(self) -> int:
        return sum(1 for s in self.segments if s.is_mask)


def apply_post_processing(fn: PostProcessing, text: str) -> str:
    """Apply one named post-processing function to a piece of text."""
    check_instance("text", text, str, DataError)
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
    (``node_slots`` holds each node's sequence of int slot ids, as a
    :class:`~promptpipe.soft_plan.SoftEmbeddingPlan` does), and an empty
    placeholder per meta node, whose shortenable flag is the node's.
    """

    def __init__(self, ast: TemplateAST, node_slots: Sequence[Sequence[int]]):
        check_instance("ast", ast, TemplateAST, InvalidValueType)
        check_instance("node_slots", node_slots, Sequence)
        slots_per_node = [tuple(slots) if isinstance(slots, Sequence) else None
                          for slots in node_slots]
        if len(slots_per_node) != len(ast.nodes) or not all(
                slots is not None and all(type(slot) is int for slot in slots)
                for slots in slots_per_node):
            raise ConfigError(
                f"node_slots must hold one sequence of int slot ids per node, got {node_slots!r}")
        self.ast = ast
        segments: list[Segment] = []
        # per meta node: (segment index, key, post-processing)
        metas: list[tuple[int, str, PostProcessing | None]] = []
        text: list[str] = []  # str.format pieces of the rendered text
        for node, slots in zip(ast.nodes, slots_per_node):
            if node.kind is NodeKind.TEXT:
                text.append(node.text.replace("{", "{{").replace("}", "}}"))
                segments.append(Segment(text=node.text, shortenable=node.shortenable))
            elif node.kind is NodeKind.MASK:
                text.append(MASK_MARKER)
                segments.append(Segment(text="", is_mask=True))
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
        self._keys = frozenset(key for _, key, _ in metas)
        self._format = "".join(text)

    def render(self, example: InputExample) -> str:
        """The example's human-readable text, as :func:`wrapped_text` gives it.

        Anything but an :class:`InputExample` raises
        :class:`~promptpipe.errors.DataError`, and a missing meta key
        :class:`~promptpipe.errors.MissingMetaKey`.
        """
        check_instance("example", example, InputExample, DataError)
        return self._render(self._resolve(example))

    def _resolve(self, example: InputExample) -> list[str]:
        """The example's meta values in node order, post-processed; an empty
        value is legal."""
        values = []
        for _, key, post_processing in self._metas:
            value = example.meta.get(key)
            if value is None:
                raise MissingMetaKey(key)
            if post_processing is not None:
                value = apply_post_processing(post_processing, value)
            values.append(value)
        return values

    def _check_keys(self, example: InputExample) -> None:
        """Raise what :meth:`_resolve` raises, without resolving the values."""
        if not example.meta.keys() >= self._keys:
            self._resolve(example)

    def _render(self, values: Sequence[str]) -> str:
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
    check_instance("ast", ast, TemplateAST, InvalidValueType)
    check_instance("example", example, InputExample, DataError)
    if plan is not None:
        check_instance("plan", plan, SoftEmbeddingPlan)
    layout = TemplateLayout(ast, plan.node_slots if plan is not None else assign_soft_slots(ast))
    segments = list(layout.segments)
    for (index, _, _), value in zip(layout._metas, layout._resolve(example)):
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
    check_instance("seq", seq, WrappedSequence, DataError)
    parts = []
    for seg in seq.segments:
        if seg.is_mask:
            parts.append(MASK_MARKER)
        elif seg.soft_slot is not None:
            parts.append(SOFT_MARKER)
        else:
            parts.append(seg.text)
    return "".join(parts)
