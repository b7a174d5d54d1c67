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
"""

from __future__ import annotations

import json
import re
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


_KNOWN_KEYS = frozenset(
    {"mask", "soft", "meta", "soft_id", "duplicate", "shortenable", "post_processing"}
)

# Inline expressions accepted as aliases for the named post-processing
# functions. Matching ignores internal whitespace.
_POST_PROCESSING_ALIASES = {
    "lambdas:s.rstrip(string.punctuation)": PostProcessing.STRIP_TRAILING_PUNCTUATION,
    "lambdas:s.lower()": PostProcessing.LOWERCASE,
}


@dataclass(frozen=True)
class TemplateNode:
    """One parsed node. Invariants are enforced at construction time."""

    kind: NodeKind
    text: str | None = None
    meta_key: str | None = None
    soft_id: int | None = None
    duplicate: int = 1
    shortenable: bool = False
    post_processing: PostProcessing | None = None

    def __post_init__(self):
        if self.duplicate < 1:
            raise InvalidValueType("duplicate must be a positive integer")
        if self.kind is NodeKind.TEXT:
            if self.text is None:
                raise InvalidValueType("text node requires text")
            if self.meta_key is not None or self.soft_id is not None:
                raise ConflictingAttributes("text node cannot carry meta_key/soft_id")
            if self.duplicate != 1 or self.post_processing is not None:
                raise ConflictingAttributes("text node cannot carry duplicate/post_processing")
        elif self.kind is NodeKind.MASK:
            if self.text is not None or self.meta_key is not None or self.soft_id is not None:
                raise ConflictingAttributes("mask node cannot carry text/meta_key/soft_id")
            if self.duplicate != 1:
                raise ConflictingAttributes("duplicate is only valid on soft nodes")
            if self.shortenable:
                raise ConflictingAttributes("mask nodes are never shortenable")
            if self.post_processing is not None:
                raise ConflictingAttributes("mask node cannot carry post_processing")
        elif self.kind is NodeKind.META:
            if not self.meta_key:
                raise InvalidValueType("meta node requires a non-empty meta key")
            if self.text is not None or self.soft_id is not None:
                raise ConflictingAttributes("meta node cannot carry text/soft_id")
            if self.duplicate != 1:
                raise ConflictingAttributes("duplicate is only valid on soft nodes")
        elif self.kind is NodeKind.SOFT:
            if self.meta_key is not None:
                raise ConflictingAttributes("soft node cannot carry meta_key")
            if self.shortenable:
                raise ConflictingAttributes("soft nodes are never shortenable")
            if self.soft_id is not None and self.soft_id < 1:
                raise InvalidValueType("soft_id must be a positive integer")
        else:
            raise InvalidValueType(f"node kind must be a NodeKind, got {self.kind!r}")


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
        if not self.nodes:
            raise EmptyTemplate("template has no nodes")
        # nodes sharing a soft_id share one slot block, so one init text
        texts: dict[int, str] = {}
        for node in self.nodes:
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

_NULL = ("null", None)


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
    "None": _NULL,
    "null": _NULL,
    "True": ("bool", True),
    "true": ("bool", True),
    "False": ("bool", False),
    "false": ("bool", False),
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


def _scan_value(source: str, i: int) -> tuple[tuple, int]:
    """Scan one attribute value; returns a (tag, payload) pair and next index."""
    i = _skip_ws(source, i)
    if i >= len(source):
        raise UnbalancedBrace("node not closed before end of template")
    c = source[i]
    if c == '"':
        value, i = _scan_string(source, i)
        return ("string", value), i
    for word, tagged in _KEYWORDS.items():
        end = i + len(word)
        if source.startswith(word, i) and (
            end >= len(source) or not (source[end].isalnum() or source[end] == "_")
        ):
            return tagged, end
    if c.isdigit() or c == "-":
        j = i + 1
        n = len(source)
        while j < n and (source[j].isdigit() or source[j] in ".eE+-"):
            j += 1
        literal = source[i:j]
        try:
            return ("int", int(literal)), j
        except ValueError:
            try:
                float(literal)
            except ValueError:
                raise InvalidValueType(f"bad numeric literal {literal!r}") from None
            return ("float", literal), j
    raw, i = _scan_raw(source, i)
    if not raw:
        raise InvalidValueType(f"missing attribute value at offset {i}")
    return ("raw", raw), i


def _scan_node(source: str, i: int) -> tuple[list[tuple[str, tuple]], int]:
    """Scan one ``{...}`` node starting at the opening brace."""
    i = _skip_ws(source, i + 1)
    entries: list[tuple[str, tuple]] = []
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
            value = _NULL
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


def _parse_post_processing(value: tuple) -> PostProcessing:
    tag, payload = value
    if tag == "string":
        try:
            return PostProcessing.parse(payload)
        except ConfigError as exc:
            raise InvalidValueType(str(exc)) from None
    if tag == "raw":
        normalized = "".join(str(payload).split())
        alias = _POST_PROCESSING_ALIASES.get(normalized)
        if alias is not None:
            return alias
        raise InvalidValueType(f"unsupported post_processing expression {payload!r}")
    raise InvalidValueType("post_processing must be a function name")


_KIND_KEYS = {
    "mask": NodeKind.MASK,
    "meta": NodeKind.META,
    "soft": NodeKind.SOFT,
    "soft_id": NodeKind.SOFT,
}


def _payload(attrs: dict[str, tuple], key: str, tags: tuple[str, ...], message: str):
    tag, payload = attrs[key]
    if tag not in tags:
        raise InvalidValueType(message)
    return payload


def _build_node(entries: list[tuple[str, tuple]]) -> TemplateNode:
    """Decode a node's attribute tags into :class:`TemplateNode` fields.

    Only source-level rules are checked here; the node's kind invariants
    are :class:`TemplateNode`'s.
    """
    attrs: dict[str, tuple] = {}
    for key, value in entries:
        if key not in _KNOWN_KEYS:
            raise UnknownAttributeKey(f"unknown attribute key {key!r}")
        if key in attrs:
            raise ConflictingAttributes(f"attribute {key!r} given twice")
        attrs[key] = value
    kinds = {_KIND_KEYS[key] for key in attrs if key in _KIND_KEYS}
    if len(kinds) != 1:
        raise ConflictingAttributes(
            "node mixes mask/meta/soft attributes"
            if kinds
            else "node needs one of mask, meta, soft, soft_id"
        )
    kind = kinds.pop()
    # TemplateNode cannot tell an explicit duplicate of 1 from the default
    if "duplicate" in attrs and kind is not NodeKind.SOFT:
        raise ConflictingAttributes("duplicate is only valid on soft nodes")

    fields: dict = {"kind": kind}
    if kind is NodeKind.MASK:
        _payload(attrs, "mask", ("null",), '"mask" takes no value')
    elif kind is NodeKind.META:
        fields["meta_key"] = _payload(attrs, "meta", ("string",), '"meta" requires a string key')
        fields["shortenable"] = True
    elif "soft" in attrs:
        text = _payload(attrs, "soft", ("string", "null"), '"soft" must be a string or None')
        fields["text"] = text or None  # empty init text means anonymous
    if "soft_id" in attrs:
        fields["soft_id"] = _payload(attrs, "soft_id", ("int",), "soft_id must be an integer")
    if "duplicate" in attrs:
        fields["duplicate"] = _payload(attrs, "duplicate", ("int",), "duplicate must be an integer")
    if "shortenable" in attrs:
        fields["shortenable"] = _payload(
            attrs, "shortenable", ("bool",), "shortenable must be a boolean"
        )
    if "post_processing" in attrs:
        fields["post_processing"] = _parse_post_processing(attrs["post_processing"])
    return TemplateNode(**fields)


# --- public API -------------------------------------------------------------


def parse_template(source: str) -> TemplateAST:
    """Parse a template string into a validated AST.

    Total over string input: returns a :class:`TemplateAST` or raises a
    :class:`~promptpipe.errors.TemplateError` subclass.
    """
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
