"""Template language: lexing, parsing, validation, and serialization.

A template is plain text mixed with brace-delimited control nodes, e.g.::

    a {"mask"} news: {"meta": "title"} {"meta": "description"}

Each node is an attribute map with double-quoted keys and scalar values
(the Python literals ``None``/``True``/``False`` are accepted alongside
JSON's ``null``/``true``/``false``). A key without a value, as in
``{"mask"}``, stands for the key with a null value. Literal text between
nodes is preserved byte-for-byte, whitespace included.

Node kinds and their attributes:

* ``{"mask"}`` - a prediction slot. No other attributes.
* ``{"meta": "title"}`` - splices the example's ``title`` field in.
  May carry ``shortenable`` (default true) and ``post_processing``.
* ``{"soft": "It was"}`` / ``{"soft"}`` / ``{"soft_id": 1}`` - trainable
  placeholder tokens, optionally initialized from text and optionally
  sharing an embedding slot via ``soft_id``. May carry ``duplicate``
  to replicate the node and ``post_processing`` (recorded in the soft
  plan, not applied to input text).

Mask and soft nodes are never shortenable: truncation must not remove
template control tokens.

:class:`TemplateNode` checks every field, its type and its kind's rules,
however it is built; the parser only maps attribute keys to fields.
"""

from __future__ import annotations

import json
import re
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TypeVar

from .errors import (
    ConfigError,
    ConflictingAttributes,
    ConflictingSoftIdInitialization,
    EmptyTemplate,
    InvalidValueType,
    TemplateError,
    UnbalancedBrace,
    UnknownAttributeKey,
    check_instance,
)
from .textfile import read_lines

__all__ = [
    "Choice",
    "NodeKind",
    "PostProcessing",
    "TemplateNode",
    "TemplateAST",
    "Diagnostic",
    "parse_template",
    "serialize_template",
    "validate_template",
    "load_template_file",
]


class NodeKind(Enum):
    TEXT = "text"
    MASK = "mask"
    SOFT = "soft"
    META = "meta"


_C = TypeVar("_C", bound="Choice")


class Choice(Enum):
    """An enum chosen by name: in a config file, on a flag or in the API.

    A name matches a member's value whatever its case, its surrounding
    whitespace, or ``-`` written for ``_``. The setting a choice names is
    its class name in snake case (``TokenizerKind``: ``tokenizer_kind``).
    """

    @classmethod
    def parse(cls: type[_C], value) -> _C:
        """``value`` as a member; an unknown name raises
        :class:`~promptpipe.errors.ConfigError` listing the valid ones."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower().replace("-", "_"))
        except ValueError:
            setting = re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__).lower()
            valid = ", ".join(member.value for member in cls)
            raise ConfigError(f"unknown {setting} {value!r}; expected one of {valid}") from None


class PostProcessing(Choice):
    STRIP_TRAILING_PUNCTUATION = "strip_trailing_punctuation"
    LOWERCASE = "lowercase"
    PREPEND_SPACE = "prepend_space"


# Inline expressions accepted as aliases for the named post-processing
# functions. Matching ignores internal whitespace.
_POST_PROCESSING_ALIASES = {
    "lambdas:s.rstrip(string.punctuation)": PostProcessing.STRIP_TRAILING_PUNCTUATION,
    "lambdas:s.lower()": PostProcessing.LOWERCASE,
}

_TEXT, _MASK, _META, _SOFT = NodeKind.TEXT, NodeKind.MASK, NodeKind.META, NodeKind.SOFT

# Each field: its accepted types, how a message names them, and the kinds
# that may set it to other than its default. A bool is an int to Python,
# but only ``shortenable`` takes one.
_FIELD_RULES = {
    "text": ((str, type(None)), "a string", {_TEXT, _SOFT}),
    "meta_key": ((str, type(None)), "a string", {_META}),
    "soft_id": ((int, type(None)), "an integer", {_SOFT}),
    "duplicate": ((int,), "an integer", {_SOFT}),
    "shortenable": ((bool,), "a boolean", {_TEXT, _META}),
    "post_processing": ((PostProcessing, type(None)), "a PostProcessing member", {_META, _SOFT}),
}


@dataclass(frozen=True)
class TemplateNode:
    """One parsed node. Every field is checked at construction time."""

    kind: NodeKind
    text: str | None = None
    meta_key: str | None = None
    soft_id: int | None = None
    duplicate: int = 1
    shortenable: bool = False
    post_processing: PostProcessing | None = None

    def __post_init__(self):
        if not isinstance(self.kind, NodeKind):
            raise InvalidValueType(f"node kind must be a NodeKind, got {self.kind!r}")
        for name, (types, expected, _) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise InvalidValueType(f"{name} must be {expected}, got {value!r}")
        if self.duplicate < 1:
            raise InvalidValueType(f"duplicate must be a positive integer, got {self.duplicate}")
        for name, (_, _, kinds) in _FIELD_RULES.items():
            # the class attribute holds the field's default
            if self.kind not in kinds and getattr(self, name) != getattr(TemplateNode, name):
                raise ConflictingAttributes(f"{self.kind.value} node cannot carry {name}")
        if self.kind is _TEXT and self.text is None:
            raise InvalidValueType("text node requires text")
        if self.kind is _META and not self.meta_key:
            raise InvalidValueType("meta node requires a non-empty meta key")
        if self.soft_id is not None and self.soft_id < 1:
            raise InvalidValueType(f"soft_id must be a positive integer, got {self.soft_id}")


def is_init_text(text: str | None) -> bool:
    """Whether a soft node's ``text`` initializes it: only a text with a
    non-whitespace character does, as only such a text tokenizes to ids."""
    return bool(text) and not text.isspace()


@dataclass(frozen=True)
class TemplateAST:
    """Immutable parse result: ordered nodes plus the original source."""

    nodes: tuple[TemplateNode, ...]
    source: str = ""

    def __post_init__(self):
        if not isinstance(self.nodes, tuple):
            raise InvalidValueType(f"nodes must be a tuple, got {type(self.nodes).__name__}")
        if not isinstance(self.source, str):
            raise InvalidValueType(f"source must be a string, got {self.source!r}")
        if not self.nodes:
            raise EmptyTemplate("template has no nodes")
        # nodes sharing a soft_id share one slot block, so one init text
        texts: dict[int, str] = {}
        for index, node in enumerate(self.nodes):
            if not isinstance(node, TemplateNode):
                raise InvalidValueType(f"nodes[{index}] must be a TemplateNode, got {node!r}")
            if node.soft_id is not None and is_init_text(node.text):
                first = texts.setdefault(node.soft_id, node.text)
                if first != node.text:
                    raise ConflictingSoftIdInitialization(
                        f"soft_id {node.soft_id} initialized with conflicting texts "
                        f"{sorted({first, node.text})}"
                    )

    @cached_property  # nodes never change, so count them once
    def mask_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind is NodeKind.MASK)

    def meta_keys(self) -> list[str]:
        return [n.meta_key for n in self.nodes if n.kind is NodeKind.META and n.meta_key]


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    node_index: int | None = None


# --- scanner ---------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class _Expression:
    """An unquoted attribute value, such as a lambda. It is not a ``str``,
    so no field that takes a string accepts it: ``{"meta": abc}`` is no key."""

    source: str

    def __repr__(self) -> str:
        return self.source


def _skip_ws(source: str, i: int) -> int:
    n = len(source)
    while i < n and source[i].isspace():
        i += 1
    return i


def _scan_string(source: str, i: int) -> tuple[str, int]:
    """Scan a double-quoted string starting at ``i``; returns (value, next_i)."""
    start = i
    i += 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\\":
            i += 2
            continue
        if c == '"':
            raw = source[start : i + 1]
            try:
                return json.loads(raw), i + 1
            except ValueError as exc:
                raise InvalidValueType(f"bad string literal {raw!r}: {exc}") from None
        i += 1
    raise UnbalancedBrace(f"unterminated string starting at offset {start}")


_KEYWORDS = {
    "None": None,
    "null": None,
    "True": True,
    "true": True,
    "False": False,
    "false": False,
}


def _scan_raw(source: str, i: int) -> tuple[str, int]:
    """Scan an unquoted expression up to a top-level ``,`` or ``}``."""
    start = i
    depth = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                if c == "}":
                    return source[start:i].strip(), i
                raise InvalidValueType(f"unbalanced {c!r} at offset {i}")
            depth -= 1
        elif c == "," and depth == 0:
            return source[start:i].strip(), i
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and source[i] != quote:
                i += 2 if source[i] == "\\" else 1
            if i >= n:
                raise UnbalancedBrace(f"unterminated string starting at offset {start}")
        i += 1
    raise UnbalancedBrace("node not closed before end of template")


def _scan_value(source: str, i: int) -> tuple[object, int]:
    """Scan one attribute value: a ``str``, ``int``, ``float``, ``bool``,
    ``None`` or :class:`_Expression`. Returns it and the next index."""
    i = _skip_ws(source, i)
    if i >= len(source):
        raise UnbalancedBrace("node not closed before end of template")
    c = source[i]
    if c == '"':
        return _scan_string(source, i)
    for word, value in _KEYWORDS.items():
        end = i + len(word)
        if source.startswith(word, i) and (
            end >= len(source) or not (source[end].isalnum() or source[end] == "_")
        ):
            return value, end
    if c.isdigit() or c == "-":
        j = i + 1
        n = len(source)
        while j < n and (source[j].isdigit() or source[j] in ".eE+-"):
            j += 1
        literal = source[i:j]
        try:
            return int(literal), j
        except ValueError:
            try:
                return float(literal), j
            except ValueError:
                raise InvalidValueType(f"bad numeric literal {literal!r}") from None
    raw, i = _scan_raw(source, i)
    if not raw:
        raise InvalidValueType(f"missing attribute value at offset {i}")
    return _Expression(raw), i


def _scan_node(source: str, i: int) -> tuple[list[tuple[str, object]], int]:
    """Scan one ``{...}`` node starting at the opening brace."""
    i = _skip_ws(source, i + 1)
    entries: list[tuple[str, object]] = []
    n = len(source)
    while True:
        if i >= n:
            raise UnbalancedBrace("node is never closed")
        if source[i] == "}":
            return entries, i + 1
        if source[i] != '"':
            raise InvalidValueType(
                f"expected double-quoted attribute key at offset {i}, got {source[i]!r}"
            )
        key, i = _scan_string(source, i)
        i = _skip_ws(source, i)
        if i < n and source[i] == ":":
            value, i = _scan_value(source, i + 1)
        else:
            value = None
        entries.append((key, value))
        i = _skip_ws(source, i)
        if i >= n:
            raise UnbalancedBrace("node is never closed")
        if source[i] == ",":
            i = _skip_ws(source, i + 1)
            if i < n and source[i] == "}":
                raise InvalidValueType("trailing comma in node")
        elif source[i] != "}":
            raise InvalidValueType(
                f"expected ',' or '}}' at offset {i}, got {source[i]!r}"
            )


# --- node construction ------------------------------------------------------


def _decode_post_processing(value: object) -> object:
    """A name or an alias expression as a member; TemplateNode rejects the rest."""
    if isinstance(value, str):
        try:
            return PostProcessing.parse(value)
        except ConfigError as exc:
            raise InvalidValueType(str(exc)) from None
    if isinstance(value, _Expression):
        alias = _POST_PROCESSING_ALIASES.get("".join(value.source.split()))
        if alias is None:
            raise InvalidValueType(f"unsupported post_processing expression {value.source!r}")
        return alias
    return value


# Each attribute key: the TemplateNode field its value sets, and the kind
# it names, if any
_KEYS = {
    "mask": (None, _MASK),
    "meta": ("meta_key", _META),
    "soft": ("text", _SOFT),
    "soft_id": ("soft_id", _SOFT),
    "duplicate": ("duplicate", None),
    "shortenable": ("shortenable", None),
    "post_processing": ("post_processing", None),
}


def _build_node(entries: list[tuple[str, object]]) -> TemplateNode:
    """Map a node's attributes to :class:`TemplateNode` fields.

    Only source-level rules are checked here; every field's type and the
    node's kind invariants are :class:`TemplateNode`'s.
    """
    attrs: dict[str, object] = {}
    for key, value in entries:
        if key not in _KEYS:
            raise UnknownAttributeKey(f"unknown attribute key {key!r}")
        if key in attrs:
            raise ConflictingAttributes(f"attribute {key!r} given twice")
        attrs[key] = value
    kinds = {_KEYS[key][1] for key in attrs} - {None}
    if len(kinds) != 1:
        raise ConflictingAttributes(
            "node mixes mask/meta/soft attributes"
            if kinds
            else "node needs one of mask, meta, soft, soft_id"
        )
    kind = kinds.pop()
    # TemplateNode cannot tell an explicit duplicate of 1 from the default
    if "duplicate" in attrs and kind is not _SOFT:
        raise ConflictingAttributes("duplicate is only valid on soft nodes")
    if attrs.pop("mask", None) is not None:
        raise InvalidValueType('"mask" takes no value')
    fields = {"kind": kind, "shortenable": kind is _META}
    for key, value in attrs.items():
        if value is None and key != "soft":  # TemplateNode would take it for the default
            raise InvalidValueType(f'"{key}" needs a value')
        if key == "post_processing":
            value = _decode_post_processing(value)
        elif key == "soft" and value == "":
            value = None  # empty init text means anonymous
        fields[_KEYS[key][0]] = value
    return TemplateNode(**fields)


# --- public API -------------------------------------------------------------


def parse_template(source: str) -> TemplateAST:
    """Parse a template string into a validated AST.

    Total: returns a :class:`TemplateAST` or raises a
    :class:`~promptpipe.errors.TemplateError` subclass.
    """
    if not isinstance(source, str):
        raise InvalidValueType(f"template source must be a string, got {source!r}")
    if source == "":
        raise EmptyTemplate("template source is empty")
    nodes: list[TemplateNode] = []
    text_start = 0
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "{":
            if i > text_start:
                nodes.append(TemplateNode(kind=NodeKind.TEXT, text=source[text_start:i]))
            try:
                entries, end = _scan_node(source, i)
                nodes.append(_build_node(entries))
            except TemplateError as exc:
                raise type(exc)(f"node at offset {i}: {exc}") from None
            i = text_start = end
        elif c == "}":
            raise UnbalancedBrace(f"stray '}}' at offset {i}")
        else:
            i += 1
    if text_start < n:
        nodes.append(TemplateNode(kind=NodeKind.TEXT, text=source[text_start:]))
    return TemplateAST(nodes=tuple(nodes), source=source)


def _serialize_node(node: TemplateNode) -> str:
    if node.kind is NodeKind.TEXT:
        return node.text or ""
    if node.kind is NodeKind.MASK:
        return '{"mask"}'
    parts: list[str] = []
    if node.kind is NodeKind.META:
        parts.append(f'"meta": {json.dumps(node.meta_key)}')
        if not node.shortenable:
            parts.append('"shortenable": False')
    else:
        if node.text is not None:
            parts.append(f'"soft": {json.dumps(node.text)}')
        elif node.soft_id is None:
            if node.duplicate == 1 and node.post_processing is None:
                return '{"soft"}'
            parts.append('"soft": None')
        if node.soft_id is not None:
            parts.append(f'"soft_id": {node.soft_id}')
        if node.duplicate != 1:
            parts.append(f'"duplicate": {node.duplicate}')
    if node.post_processing is not None:
        parts.append(f'"post_processing": {json.dumps(node.post_processing.value)}')
    return "{" + ", ".join(parts) + "}"


def serialize_template(ast: TemplateAST) -> str:
    """Render an AST back to canonical template text.

    ``parse_template(serialize_template(ast))`` yields the same nodes.
    """
    if not isinstance(ast, TemplateAST):
        raise InvalidValueType(f"serialize_template takes a TemplateAST, got {ast!r}")
    return "".join(_serialize_node(node) for node in ast.nodes)


def validate_template(
    ast: TemplateAST,
    known_meta_keys: set[str],
    require_mask: bool = True,
) -> list[Diagnostic]:
    """Check an AST against a dataset's meta keys; returns diagnostics.

    An empty list means the template is usable. ``require_mask`` should be
    true when the template drives classification.
    """
    if not isinstance(ast, TemplateAST):
        raise InvalidValueType(f"validate_template takes a TemplateAST, got {ast!r}")
    check_instance("known_meta_keys", known_meta_keys, AbstractSet, InvalidValueType)
    diagnostics: list[Diagnostic] = []
    for index, node in enumerate(ast.nodes):
        if node.kind is NodeKind.META and node.meta_key not in known_meta_keys:
            diagnostics.append(
                Diagnostic(
                    code="unknown_meta_key",
                    message=f"meta key {node.meta_key!r} not in {sorted(known_meta_keys)}",
                    node_index=index,
                )
            )
    if require_mask and ast.mask_count == 0:
        diagnostics.append(
            Diagnostic(code="no_mask_node", message="template has no mask node")
        )
    return diagnostics


def load_template_file(path: str | Path) -> list[TemplateAST]:
    """Load templates from a text file: one per line, ``#`` comments, blanks skipped.

    A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``; other characters that
    ``str.splitlines`` breaks at (``\\x0c``, ``\\x85``, ``\\u2028``, ...) are
    literal template text.
    """
    templates: list[TemplateAST] = []
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        try:
            templates.append(parse_template(line))
        except TemplateError as exc:
            raise type(exc)(f"{path}:{line_no}: {exc}") from None
    return templates
