"""Logits replay: the JSONL logits file reader and the scorer built on it.

A logits file is read in two tiers (:func:`read_logits_records`), both
giving the values ``json.loads`` gives: rows of short decimals (at most 8
integer and 8 fraction digits, 15 in all) are converted exactly by numpy
arithmetic, one division per value, from one 8-byte window per value when
it has at most 7 digits and from two otherwise; every other line, such as
one of 17-digit reprs or exponents, is read by the JSON decoder, the only
path that raises. A run reads its dataset first and checks every line of the
logits file, but converts only the records of the guids it scores: its
examples', and the content-free one when it calibrates. The scorer built on
the reader projects each record it keeps with the run's
:class:`~promptpipe.verbalizer.Verbalizer`, once, as it reads it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Collection, Iterator
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .data import read_guid_lines
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatch,
    MissingLogits,
    NonFiniteValue,
    check_instance,
    check_integer,
)
from .textfile import JSON_DECODER
from .tokenization import TokenizedInput
from .verbalizer import Verbalizer, float_array

__all__ = ["LogitsFileScorer", "read_logits_records"]


def _check_verbalizer(verbalizer) -> None:
    """A scorer's ``verbalizer`` is ``None`` or a :class:`Verbalizer`."""
    if verbalizer is not None:
        check_instance("verbalizer", verbalizer, Verbalizer)


def _check_mask_count(mask_count) -> None:
    check_integer("mask_count", mask_count)
    if mask_count < 1:
        raise DimensionMismatch(f"mask_count must be >= 1, got {mask_count}")


class _Scorer:
    """A scorer gives ``rows(guid, M)``: ``(M, V)`` logits, or ``(M, C, W)``
    label-word scores when it was built with a verbalizer. Called with an
    encoding, it gives ``rows`` for its mask count; anything without a sized
    ``mask_positions`` raises :class:`~promptpipe.errors.DataError`."""

    def __call__(self, guid: str, tokenized: TokenizedInput) -> np.ndarray:
        try:
            mask_count = len(tokenized.mask_positions)
        except (AttributeError, TypeError):
            raise DataError(f"tokenized must have mask_positions, got {tokenized!r}") from None
        return self.rows(guid, mask_count)


def read_logits_records(path: str | Path, vocab_size: int) -> Iterator[tuple[str, np.ndarray]]:
    """An iterator of ``(guid, rows)`` for each record of a JSONL logits file,
    read in one pass; ``vocab_size`` is checked at the call.

    Each non-blank line is ``{"guid": ..., "mask_logits": [[...], ...]}``
    with rows of width ``vocab_size`` (an integer, at least 1) holding JSON
    numbers. Records are read by :func:`~promptpipe.data.read_guid_lines`,
    so the guid rules are those of every guid-keyed file. The file is read
    as bytes through one reused buffer, and memory does not grow with the
    line count. A line is read in one of two tiers, which both give the
    values ``json.loads`` gives:

    - a line of exactly that form whose every value is a short decimal
      (up to 8 integer and 8 fraction digits, 15 in all, as ``json.dumps``
      writes logits rounded to a few decimals) is converted from its bytes
      by numpy arithmetic (:func:`_decimal_row`), bit-identical to
      ``float()`` because each value is one correctly rounded division of
      two exact doubles; the line is never decoded to text;
    - every other line, such as one holding the 16- and 17-digit reprs of
      float32 logits upcast or numbers with an exponent, is decoded by the
      one JSON decoder, the only path that raises: a record without
      usable ``mask_logits``, with a value that is not a number
      (:func:`~promptpipe.verbalizer.float_array`: a string, ``true``,
      ``false`` or ``null``) or with a non-finite logit
      raises a :class:`~promptpipe.errors.PromptPipeError` naming the
      file, line and guid.
    """
    check_integer("vocab_size", vocab_size, 1)
    return _logits_records(path, vocab_size)


def _check_guids(guids) -> frozenset[str] | None:
    if guids is None:
        return None
    if not isinstance(guids, Collection) or isinstance(guids, (str, bytes)):
        raise ConfigError(f"guids must be None or a collection of strings, got {guids!r}")
    for guid in guids:
        if not isinstance(guid, str):
            raise ConfigError(f"guids must hold strings, got {guid!r}")
    return frozenset(guids)


def _logits_records(
    path: str | Path, vocab_size: int, guids: frozenset[str] | None = None
) -> Iterator[tuple[str, np.ndarray]]:
    """The records of ``guids`` (all of them for ``None``), every line checked."""
    # one padded row buffer for the whole file, which _decimal_row grows to the longest row
    read_line = partial(_numeric_record, vocab_size=vocab_size, guids=guids, pad=bytearray())
    for line_no, guid, record in read_guid_lines(path, read_line):
        if not isinstance(record, dict):  # read by _numeric_record; None if not kept
            if record is not None:
                yield guid, record
            continue
        where = f"{path}:{line_no}"
        if "mask_logits" not in record:
            raise ConfigError(f"{where}: logits record for guid {guid!r} has no 'mask_logits'")
        values = record["mask_logits"]
        try:
            rows = np.asarray(values)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        if rows.dtype.kind not in "iuf" and rows.ndim != 2:
            raise ConfigError(
                f"{where}: bad mask_logits for guid {guid!r}: expected rows of numbers, "
                f"got {json.dumps(values)[:40]}"
            )
        if rows.ndim != 2 or rows.shape[1] != vocab_size:
            raise DimensionMismatch(f"{where}: mask_logits must be rows of width {vocab_size}")
        try:
            rows = float_array(values, rows)
        except TypeError as exc:
            raise ConfigError(
                f"{where}: guid {guid!r} has a non-numeric logit {json.dumps(exc.value)}"
            ) from None
        except OverflowError as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        if not np.isfinite(rows).all():
            raise NonFiniteValue(f"{where}: guid {guid!r} has a non-finite logit")
        if guids is None or guid in guids:
            yield guid, rows


# The documented record form, with any spaces or tabs between its parts: the
# head up to the outer "[[", the tail from the rows' closing "]" to the line
# end, and the separator between two rows.
_WS = r"[ \t]*"
_HEAD = re.compile(
    rf'{_WS}\{{{_WS}"guid"{_WS}:{_WS}(?P<guid>"(?:[^"\\]|\\.)*"){_WS},'
    rf'{_WS}"mask_logits"{_WS}:{_WS}\[{_WS}\['.encode()
)
_TAIL = re.compile(rf"\]{_WS}\]{_WS}\}}[ \t\r\n]*".encode())
_ROW_SEPARATOR = re.compile(rf"\]{_WS},{_WS}\[".encode())


def _numeric_record(
    line: bytearray,
    start: int,
    end: int,
    vocab_size: int,
    guids: frozenset[str] | None,
    pad: bytearray,
) -> tuple[str, np.ndarray | None] | None:
    """``(guid, rows)`` for the line ``line[start:end]`` if the one JSON decoder
    reads it as a record of ``vocab_size``-wide rows of finite numbers,
    parsed without it; else ``None``.

    The line is framed in one pass, as byte offsets: ``_HEAD`` matches it
    up to the outer ``[[``; the rows end at the line's second-to-last
    ``]``, from which ``_TAIL`` must match the rest of the line; and every
    ``]`` between must start a ``_ROW_SEPARATOR``, where the rows are cut.
    Each row is padded in ``pad`` and checked by :func:`_decimal_row`, and
    converted, to the values of ``float()``, so of ``json.loads`` followed
    by the float64 conversion, into a fresh ``(M, V)`` array only if
    ``guids`` is ``None`` or holds the guid; ``rows`` is ``None`` for a
    line checked but not converted. At the first row it refuses, the line
    is left to the decoder, as is any other line, valid or not. Of a line
    read here, the decoder reads only the guid literal.
    """
    head = _HEAD.match(line, start, end)
    if head is None:
        return None
    start = head.end()
    stop = line.rfind(b"]", start, max(line.rfind(b"]", start, end), start))
    if stop < 0 or _TAIL.fullmatch(line, stop, end) is None:
        return None
    bounds = []
    while (close := line.find(b"]", start, stop)) >= 0:
        separator = _ROW_SEPARATOR.match(line, close, stop)
        if separator is None:
            return None
        bounds.append((start, close))
        start = separator.end()
    bounds.append((start, stop))
    try:
        # a literal that is not UTF-8 is left to the decoder, which names its line
        guid = JSON_DECODER.decode(head["guid"].decode())
    except ValueError:
        return None
    # a field takes at least 4 bytes with its comma: this also bounds the
    # memory a short row can ask for
    if any(close - begin < 4 * vocab_size - 1 for begin, close in bounds):
        return None
    rows = None
    if guids is None or guid in guids:
        rows = np.empty((len(bounds), vocab_size))
    view = memoryview(line)
    for m, (begin, close) in enumerate(bounds):
        if not _decimal_row(view[begin:close], vocab_size, None if rows is None else rows[m], pad):
            return None
    return guid, rows


_SEP, _MINUS, _DOT, _ZERO, _SPACE = b",-.0 "
_CHUNK = 1 << 16  # bytes per step; the step's temporaries stay in cache

# Tables for _decimal_row, indexed by a digit count k <= 8: the bits that
# hold the digit values of the last k bytes of an 8-byte window, 10**k and
# the divisor 10.0**k (negated at k + 9).
_DIGIT_BITS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - k) << 8 * (8 - k) for k in range(9)],
                       dtype=np.uint64)
_POW10 = np.array([10**k for k in range(9)], dtype=np.uint64)
_SCALE = np.array([float(sign * 10**k) for sign in (1, -1) for k in range(9)])


def _decimal_row(row, width: int, out: np.ndarray | None, pad: bytearray) -> bool:
    """Whether ``row``, a logits row in bytes, holds ``width`` short decimals;
    if so, each is converted to the value ``float()`` reads into ``out``,
    unless ``out`` is ``None``. The row is copied once, padded, into
    ``pad``, a buffer of zeros grown as needed that a reader reuses across
    rows.

    Each field is ``-?(0|[1-9][0-9]{0,7})\\.[0-9]{1,8}`` with at most 15
    digits in all, and one space may follow each comma and lead the row.
    Such a field is a JSON number, and its value is exact (Clinger's fast
    path): its digits without the dot make an integer below
    10**15 < 2**53, which a float64 holds exactly, as it does 10.0**f for
    f fraction digits, so the one division rounds once, to the double
    nearest the decimal. A minus sign divides by -10.0**f, so ``-0.0``
    stays negative.

    The row is read in steps of about ``_CHUNK`` bytes, each cut at a
    comma, so every temporary stays small: whole-row temporaries come as
    fresh pages, whose faults cost more than the arithmetic (on a
    replay_bert row, 256 KB and 30522 wide, one whole-row step faulted
    about 340 pages to check it and 510 to convert it, where 64 KiB steps
    fault none, and took about 1.5 times as long either way; 32 and
    128 KiB steps were slower too). A step finds its commas and dots in one
    pass, which must alternate, and checks the form; with ``out``, it then
    converts the digits by multiply and shift from unaligned 8-byte
    windows, masked to those digits. When the step's longest field has at
    most 7 digits, a field's digits and dot fit in the one window that ends
    at its comma: moving the integer digits up a byte, over the dot, leaves
    the digits of the field as one integer, divided once by ``10**f``.
    A step with a longer field converts the digits before each dot and
    before each next comma from the window that ends there, and joins the
    two parts as ``integer * 10**f + fraction``; both give the same
    integer. A row is accepted or refused alike with or without ``out``.
    """
    # a comma before and after the row, so every step runs from a comma to
    # a comma, and 8 zero bytes before those for the first field's windows;
    # bytes after the second comma are not read
    length = len(row) + 10
    if len(pad) < length:
        pad.extend(bytes(length - len(pad)))
    pad[9 : length - 1] = row
    pad[8] = pad[length - 1] = _SEP
    x = np.frombuffer(pad, np.uint8, length)
    windows = np.ndarray((length - 7,), "<u8", buffer=pad, strides=(1,))
    done = 0
    start = 8
    while start < length - 1:
        stop = pad.find(b",", start + _CHUNK, length - 1)
        if stop < 0:
            stop = length - 1
        text = x[start : stop + 1]
        # "," and "." differ only in bit 1; commas at even places and dots
        # at odd ones make k fields of one dot each
        marks = ((text & 0xFD) == _SEP).nonzero()[0]
        k = len(marks) // 2
        if len(marks) % 2 == 0 or done + k > width:
            return False
        kinds = text[marks]
        if kinds[0::2].max() != _SEP or kinds[1::2].min() != _DOT:
            return False
        # each field's first digit, after its comma, a space and a sign
        first = marks[:-1:2] + 1
        first += text[first] == _SPACE
        negative = text[first] == _MINUS
        first += negative
        # the digits before each dot, then before the next comma
        n = marks[1:] - marks[:-1]
        n -= 1
        np.subtract(marks[1::2], first, out=n[0::2])
        counts = n[0::2] + n[1::2]
        longest = counts.max()
        if n.min() < 1 or n.max() > 8 or longest > 15:
            return False
        # every byte of those runs is a digit, as no byte outside them is one
        if np.count_nonzero((text - _ZERO) < 10) != n.sum():
            return False
        # no leading zero: an integer part of several digits starts with 1-9
        if ((text[first] == _ZERO) & (n[0::2] > 1)).any():
            return False
        if out is not None:
            # the window ending at place p of the step starts at pad[start + p - 8]
            f = n[1::2]
            if longest <= 7:
                # a field's digits and dot fit in the window ending at its
                # comma: move the integer digits up a byte, over the dot
                digits = windows[start - 8 :][marks[2::2]]
                shifted = digits << 8
                digits ^= shifted
                digits &= _DIGIT_BITS[f]
                digits ^= shifted
                digits &= _DIGIT_BITS[counts]
            else:
                digits = windows[start - 8 :][marks[1:]]
                digits &= _DIGIT_BITS[n]
            # byte values to 2-digit, 4-digit, then 8-digit numbers; the first
            # digit is the low byte, and masked bytes lead with zeros
            digits *= 10 << 8 | 1
            digits >>= 8
            digits &= 0x00FF00FF00FF00FF
            digits *= 100 << 16 | 1
            digits >>= 16
            digits &= 0x0000FFFF0000FFFF
            digits *= 10000 << 32 | 1
            digits >>= 32
            if longest > 7:
                # the integer part, then the fraction, of each field
                fractions = digits[1::2]
                digits = digits[0::2]
                digits *= _POW10[f]
                digits += fractions
            f += 9 * negative
            np.divide(digits, _SCALE[f], out=out[done : done + k])
        done += k
        start = stop
    return done == width


class LogitsFileScorer(_Scorer):
    """Replays logits from a JSONL file of {guid, mask_logits} records.

    ``rows(guid, M)``, or a call with an encoding of M masks, returns the
    guid's rows, which must number M, an integer >= 1; ``records`` maps
    each guid to its rows in file order, read-only. Without a
    ``verbalizer`` these are the record's ``(M, V)`` logits. With one, a
    :class:`~promptpipe.verbalizer.Verbalizer`, each record's logits go
    through its :meth:`~promptpipe.verbalizer.Verbalizer.word_scores` once,
    as they are read, and only the result is kept: the scorer holds
    ``(M, C, W)`` label-word scores per guid, never ``(M, V)`` rows. The
    runner passes its verbalizer.

    With ``guids``, a collection of strings, every line is still read and
    checked as :func:`read_logits_records` checks it, and rejected alike,
    but only the records of those guids are converted, projected and
    kept; the runner passes its dataset's guids, and the content-free one
    when it calibrates.
    """

    def __init__(
        self,
        path: str | Path,
        vocab_size: int,
        verbalizer: Verbalizer | None = None,
        guids: Collection[str] | None = None,
    ):
        _check_verbalizer(verbalizer)
        check_integer("vocab_size", vocab_size, 1)
        records = _logits_records(path, vocab_size, _check_guids(guids))
        if verbalizer is not None:
            records = ((guid, verbalizer.word_scores(rows)) for guid, rows in records)
        self.records = MappingProxyType(dict(records))

    def rows(self, guid: str, mask_count: int) -> np.ndarray:
        try:
            rows = self.records.get(guid)
        except TypeError:  # an unhashable guid names no record
            rows = None
        if rows is None:
            raise MissingLogits(guid)
        if type(mask_count) is not int or rows.shape[0] != mask_count:
            _check_mask_count(mask_count)
            raise DimensionMismatch(
                f"guid {guid!r} has {rows.shape[0]} logits rows for {mask_count} mask positions"
            )
        return rows
