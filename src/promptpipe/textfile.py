"""How every input file is read: UTF-8 text, a leading byte-order mark
dropped, lines ending only at ``\\n``, ``\\r\\n`` or ``\\r``; how every
JSON document is decoded; and how every JSONL output is written.

Every input but the logits file is read once as text, whole
(:func:`read_text`) or in blocks of lines (:func:`read_line_blocks`); a
byte that is not UTF-8 reads as a lone surrogate, so that pass raises
:class:`~promptpipe.errors.InvalidEncoding` naming the file and the line
of the first such byte, as :func:`decode_line` does for each line of the
logits file, read as bytes through one reused buffer (:func:`read_spans`).
A path that is not a non-empty ``str`` or an ``os.PathLike`` raises
:class:`~promptpipe.errors.ConfigError`, and a file that cannot be opened
:class:`~promptpipe.errors.UnreadableFile`. Each JSON file and JSONL line
is decoded by :data:`JSON_DECODER`, which refuses a repeated key at any
depth (its hook :func:`unique_keys` also builds the YAML config's
mappings) and a value nested more than :data:`MAX_DEPTH` deep; a YAML
config nested deeper than its parser can recurse is refused too. Every
JSONL output is encoded by :data:`JSON_ENCODER`.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import ConfigError, InvalidEncoding, UnreadableFile

__all__ = ["JSON_DECODER", "JSON_ENCODER", "MAX_DEPTH", "decode_line", "is_file_path",
           "read_json_object", "has_surrogate", "read_line_blocks", "read_lines", "read_spans",
           "read_text", "unique_keys", "write_jsonl", "write_lines"]

# "utf-8-sig" drops one byte-order mark at the start of the file and
# otherwise decodes exactly as "utf-8"
ENCODING = "utf-8-sig"
BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8
# bytes that read_spans reads at a time, into one buffer that grows only to
# hold a line longer than itself
_BUFFER = 1 << 20
# characters of whole lines that read_line_blocks gives at a time
_BLOCK = 1 << 16

# a code point that no UTF-8 text holds: JSON's "\\ud800" escape decodes to one
_SURROGATE = re.compile("[\\ud800-\\udfff]")
# one encoder for every output; its encode gives json.dumps(..., ensure_ascii=False)
JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)


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


# the deepest that arrays and objects may nest in a JSON input, so that
# whether a document is too deep depends on the document, not on how deep
# the caller's stack is when it is decoded
MAX_DEPTH = 100
# a string, whose brackets do not nest, or a bracket
_NESTING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[\[\]{}]')
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


class _BoundedDecoder(json.JSONDecoder):
    """A JSON decoder that refuses a value nesting arrays and objects more
    than :data:`MAX_DEPTH` deep, with a ``ValueError``, before decoding it.
    Only a text holding more ``[`` and ``{`` than that is scanned for its
    depth; any other passes in two C calls."""

    def raw_decode(self, s, idx=0):
        if s.count("[", idx) + s.count("{", idx) > MAX_DEPTH:
            depth = 0
            for match in _NESTING.finditer(s, idx):
                depth += _STEP.get(match[0], 0)
                if depth > MAX_DEPTH:
                    raise ValueError(f"maximum recursion depth exceeded: JSON values may nest "
                                     f"{MAX_DEPTH} arrays and objects deep")
        return super().raw_decode(s, idx)


JSON_DECODER = _BoundedDecoder(object_pairs_hook=unique_keys)  # of every JSON input


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


def _open(path: str | Path, *args, **options) -> IO:
    """Input file ``path`` opened by ``open``; one it cannot open raises UnreadableFile."""
    try:
        return open(_file_path(path), *args, **options)
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc.strerror or exc}") from None


def _bad_line(path: str | Path, text: str, line_no: int) -> tuple[int, InvalidEncoding] | None:
    """How many lines of ``text``, from line ``line_no`` of ``path``, precede the
    first that held bytes that are not UTF-8, and its error; ``None`` if none did."""
    try:
        text.isascii() or text.encode()  # a lone surrogate, a byte that is not UTF-8, raises
        return None
    except UnicodeEncodeError:
        raw = text.encode("utf-8", "surrogateescape")  # the bytes read, "\n" ending each line
    try:
        raw.decode()
    except UnicodeDecodeError as exc:
        before = raw.count(b"\n", 0, exc.start)
        return before, InvalidEncoding(f"{path}:{line_no + before}: not valid UTF-8 "
                                       f"(byte 0x{raw[exc.start]:02x}: {exc.reason})")


def read_text(path: str | Path) -> str:
    """The whole file, with ``\\r\\n`` and ``\\r`` read as ``\\n``."""
    with _open(path, encoding=ENCODING, errors="surrogateescape") as handle:
        text = handle.read()
    if bad := _bad_line(path, text, 1):
        raise bad[1]
    return text


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line_no, line)`` from 1, each line ending in ``\\n`` but the last."""
    return enumerate(chain.from_iterable(read_line_blocks(path)), 1)


def read_line_blocks(path: str | Path) -> Iterator[list[str]]:
    """Yield the file's lines, each ending in ``\\n`` but the last, in lists of about
    ``_BLOCK`` characters; a line not UTF-8 raises InvalidEncoding once those before it are."""
    line_no = 1
    with _open(path, encoding=ENCODING, errors="surrogateescape") as handle:
        while lines := handle.readlines(_BLOCK):
            if bad := _bad_line(path, "".join(lines), line_no):
                yield lines[:bad[0]]
                raise bad[1]
            line_no += len(lines)
            yield lines


def read_spans(path: str | Path) -> Iterator[tuple[int, bytearray, int, int]]:
    """Yield ``(line_no, buffer, start, end)`` from 1 for each line of the file,
    whose bytes, line end included, are ``buffer[start:end]``.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, and a byte-order mark
    at the start of the file is dropped. The file is read into one buffer
    of ``_BUFFER`` bytes, or of the file's size if that is smaller, reused
    for every line, so a line's bytes hold only until the next line is
    asked for; a line longer than the buffer grows it to twice its size.
    """
    with _open(path, "rb", buffering=0) as handle:
        # a smaller file needs its size, and one byte more for the read that finds its end
        size = os.fstat(handle.fileno()).st_size
        buffer = bytearray(min(_BUFFER, size + 1) if size else _BUFFER)
        view = memoryview(buffer)
        filled = 0
        while filled < len(BOM) and (got := handle.readinto(view[filled:])):
            filled += got
        start = len(BOM) if buffer.startswith(BOM, 0, filled) else 0
        line_no, eof = 0, False
        newline = -1  # the first "\n" from start, or filled if none; kept across lines
        while True:
            # searched again only once passed, so lines that end at a lone "\r"
            # do not each scan the rest of the buffer for one
            if newline < start:
                newline = buffer.find(b"\n", start, filled)
                if newline < 0:
                    newline = filled
            cr = buffer.find(b"\r", start, newline)
            if cr < 0 and newline < filled:
                end = newline + 1
            elif 0 <= cr < filled - 1:
                end = cr + 1 + (buffer[cr + 1] == 10)  # "\r\n" or a lone "\r"
            elif eof:
                # the last line, or a "\r" that no "\n" can follow
                if start == filled:
                    return
                end = filled
            else:
                # the rest of the line to the front, then more of the file after it
                kept = filled - start
                if kept == len(buffer):
                    grown = bytearray(2 * len(buffer))
                    grown[:kept] = view[start:filled]
                    buffer, view = grown, memoryview(grown)
                else:
                    view[:kept] = view[start:filled]
                got = handle.readinto(view[kept:])
                start, filled, eof, newline = 0, kept + got, got == 0, -1
                continue
            line_no += 1
            yield line_no, buffer, start, end
            start = end


def decode_line(path: str | Path, line_no: int, buffer: bytearray, start: int, end: int) -> str:
    """Line ``line_no`` of ``path``, ``buffer[start:end]`` as :func:`read_spans`
    gives it, as text whose line end is ``\\n``; bytes that are not UTF-8
    raise :class:`~promptpipe.errors.InvalidEncoding` naming the line and
    the first of them."""
    line = buffer[start:end].decode(errors="surrogateescape")
    if bad := _bad_line(path, line, line_no):
        raise bad[1]
    # a "\r" inside a line ends it, so one can only be last or before a last "\n"
    if buffer[end - 1] == 13:
        return line[:-1] + "\n"
    if end - start > 1 and buffer[end - 2] == 13:
        return line[:-2] + "\n"
    return line


def has_surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate, which no UTF-8 output can
    write; ASCII text is answered in O(1)."""
    return not text.isascii() and _SURROGATE.search(text) is not None


def write_jsonl(records: Iterable, output: str | Path | None = None) -> None:
    """Write one JSON line per record, non-ASCII text kept as is, to the
    UTF-8 file ``output``, or to standard output if ``output`` is ``None``."""
    encode = JSON_ENCODER.encode
    write_lines((encode(record) + "\n" for record in records), output)


def write_lines(lines: Iterable[str], output: str | Path | None = None) -> None:
    """Write text ``lines``, each ending in ``\\n``, to the UTF-8 file ``output``,
    or to standard output if ``output`` is ``None``: the one output path of
    :func:`write_jsonl` and of ``run``'s result lines."""
    if output is None:
        sys.stdout.writelines(lines)
        return
    with open(_file_path(output, "output"), "w", encoding="utf-8") as handle:
        handle.writelines(lines)
