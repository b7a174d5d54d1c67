"""How every input file is read: UTF-8 text, a leading byte-order mark
dropped, lines ending only at ``\\n``, ``\\r\\n`` or ``\\r``; how every
JSON document is decoded; and how every JSONL output is written.

A file that is not valid UTF-8 raises
:class:`~promptpipe.errors.InvalidEncoding` naming the file and the line
of the first undecodable byte, and a path that is not a non-empty ``str``
or an ``os.PathLike`` raises :class:`~promptpipe.errors.ConfigError`. Every JSON
or YAML input rejects a repeated key, at any depth: each JSON file and
JSONL line is decoded by :data:`JSON_DECODER`, whose hook
:func:`unique_keys` also builds the YAML config's mappings.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, InvalidEncoding

__all__ = ["JSON_DECODER", "is_file_path", "read_json_object", "read_lines", "read_text",
           "unique_keys", "write_jsonl"]

# "utf-8-sig" drops one byte-order mark at the start of the file and
# otherwise decodes exactly as "utf-8"
ENCODING = "utf-8-sig"

# one encoder for every record; its encode gives json.dumps(..., ensure_ascii=False)
_encode = json.JSONEncoder(ensure_ascii=False).encode


class RepeatedKey(ValueError):
    """A key that one object names twice: bad JSON wherever it is decoded."""

    def __init__(self, key, index: int):
        super().__init__(f"repeated key {key!r}")
        self.key = key
        self.index = index  # of the pair that repeats it


def unique_keys(pairs: list) -> dict:
    """The object of ``pairs``, unless a key repeats; every input's ``object_pairs_hook``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        index = next(i for i, (key, _) in enumerate(pairs) if key in seen or seen.add(key))
        raise RepeatedKey(pairs[index][0], index)
    return obj


JSON_DECODER = json.JSONDecoder(object_pairs_hook=unique_keys)  # of every JSON input


def is_file_path(value: object) -> bool:
    """Whether ``value`` is a non-empty ``str`` or an ``os.PathLike``: the one path rule.

    ``open(5)`` would open file descriptor 5, and ``""`` names no file.
    """
    return isinstance(value, (str, os.PathLike)) and value != ""


def _file_path(path: object, what: str = "input") -> str | os.PathLike:
    """``path``, if :func:`is_file_path`; otherwise a :class:`ConfigError`."""
    if not is_file_path(path):
        raise ConfigError(f"{what} must be a file path, got {path!r}")
    return path


def read_json_object(path: str | Path, what: str, error: type[Exception], repeated=None) -> dict:
    """The JSON object in file ``path``; any other content raises ``error`` naming
    ``what`` and the file, but a key the object itself repeats ``repeated(key)``
    if given (a key repeated deeper is invalid JSON like any other error)."""
    text = read_text(path)
    try:
        value = JSON_DECODER.decode(text)
    except ValueError as exc:
        if repeated and isinstance(exc, RepeatedKey) and _repeated_at_top(text, exc.key):
            raise repeated(exc.key) from None
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise error(f"{what} {path} must be a JSON object")
    return value


def _repeated_at_top(text: str, key) -> bool:
    """Whether ``text``'s top-level object names ``key`` twice.

    The decoder's hook sees each object without its depth, so the document
    is decoded again with every object kept as its tuple of pairs.
    """
    try:
        top = json.JSONDecoder(object_pairs_hook=tuple).decode(text)
    except ValueError:
        return False
    return isinstance(top, tuple) and [k for k, _ in top].count(key) > 1


def read_text(path: str | Path) -> str:
    """The whole file, with ``\\r\\n`` and ``\\r`` read as ``\\n``."""
    try:
        with open(_file_path(path), encoding=ENCODING) as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise _invalid_utf8(path) from None


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, line)`` from 1, each line ending in ``\\n`` but the last."""
    with open(_file_path(path), encoding=ENCODING) as handle:
        try:
            yield from enumerate(handle, start=1)
        except UnicodeDecodeError:
            raise _invalid_utf8(path) from None


def _invalid_utf8(path: str | Path) -> InvalidEncoding:
    """The error for a file that failed to decode, naming its first bad line.

    Text is decoded in chunks, so the failure can surface lines before the
    bad byte; the file is read again as bytes to find it. A UTF-8 sequence
    never holds the byte ``\\n``, so each binary line decodes on its own.
    """
    line_no = 1
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = raw[: exc.start]
                # a "\r" not followed by "\n" also ends a line
                line_no += head.count(b"\r") - head.count(b"\r\n")
                return InvalidEncoding(
                    f"{path}:{line_no}: not valid UTF-8 "
                    f"(byte 0x{raw[exc.start]:02x}: {exc.reason})"
                )
            line_no += raw.count(b"\r") - raw.count(b"\r\n") + raw.endswith(b"\n")
    return InvalidEncoding(f"{path}: not valid UTF-8")


def write_jsonl(records: Iterable, output: str | Path | None = None) -> None:
    """Write one JSON line per record, non-ASCII text kept as is, to the
    UTF-8 file ``output``, or to standard output if ``output`` is ``None``."""
    lines = (_encode(record) + "\n" for record in records)
    if output is None:
        sys.stdout.writelines(lines)
        return
    with open(_file_path(output, "output"), "w", encoding="utf-8") as handle:
        handle.writelines(lines)
