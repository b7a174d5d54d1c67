"""Dataset ingestion (JSONL) and deterministic few-shot sampling.

Dataset lines are JSON objects with a ``guid`` string, an optional
``label`` (a non-empty string), and a ``meta`` map of string fields;
the rules for the last two are :class:`~promptpipe.wrapping.InputExample`'s.
The legacy top-level fields ``text_a``/``text_b`` are folded into
``meta`` under those names.

The few-shot sampler uses a fixed, self-contained PRNG so samples are
bit-reproducible across platforms, runs, and reimplementations:

* classes are processed in lexicographic (code point) order;
* each class gets an independent splitmix64 stream seeded with
  ``(seed mod 2^64) XOR fnv1a64(class_name_utf8)``;
* the class's examples (in dataset order) are shuffled with a
  Fisher-Yates walk from the top index down, drawing
  ``j = next() mod (i + 1)``;
* the first ``k`` shuffled examples are taken, in shuffled order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    DataError,
    DuplicateGuid,
    InsufficientExamples,
    InvalidEncoding,
    MalformedLine,
    check_instance,
    check_integer,
)
from .textfile import (
    JSON_DECODER,
    decode_line,
    has_surrogate,
    read_line_blocks,
    read_spans,
)
from .wrapping import InputExample

__all__ = ["Dataset", "load_jsonl", "fewshot_sample"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Dataset:
    """Examples in order, each an :class:`~promptpipe.wrapping.InputExample`
    whose guid no other example has; a repeated guid raises
    :class:`~promptpipe.errors.DuplicateGuid`."""

    examples: tuple[InputExample, ...]

    def __post_init__(self):
        check_instance("examples", self.examples, tuple, DataError)
        seen: set[str] = set()
        for ex in self.examples:
            if not isinstance(ex, InputExample):
                raise DataError(f"examples must hold InputExample values, got {ex!r}")
            if ex.guid in seen:
                raise DuplicateGuid(f"guid {ex.guid!r} appears twice")
            seen.add(ex.guid)

    @cached_property
    def label_set(self) -> frozenset[str]:
        """The labels of the labeled examples, derived once on first use."""
        return frozenset(ex.label for ex in self.examples if ex.label is not None)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[InputExample]:
        return iter(self.examples)

    @classmethod
    def from_examples(cls, examples: Iterable[InputExample]) -> "Dataset":
        """A dataset of any iterable of examples, checked as the constructor checks them."""
        check_instance("examples", examples, Iterable, DataError)
        return cls(tuple(examples))


def read_guid_lines(
    path: str | Path,
    read_line: Callable[[bytearray, int, int], tuple[str, Any] | None] | None = None,
) -> Iterator[tuple[int, str, Any]]:
    """Yield ``(line_no, guid, record)`` for each record of a guid-keyed JSONL
    file read as bytes, line by line (the logits file's reader), skipping
    blank lines; the error is the first bad line's: bytes that are not UTF-8,
    a line that is not one JSON object (:class:`~promptpipe.errors.MalformedLine`)
    or a guid :func:`_add_guid` refuses.

    ``read_line(buffer, start, end)`` gets each line's bytes, as ``read_spans``
    yields them and valid only during the call, and returns ``(guid, record)``
    only when the decoder would read the line as an object with that ``guid``,
    else ``None`` for the decoder to read it; the guid rules apply either way.
    """
    seen: dict[str, int] = {}  # each guid's line
    for line_no, buffer, start, end in read_spans(path):
        read = read_line(buffer, start, end) if read_line else None
        if read is None:
            line = decode_line(path, line_no, buffer, start, end)
            if line.isspace():
                continue
            record = _record(path, line_no, line)
            guid = record.get("guid")
        else:
            guid, record = read
        _add_guid(path, line_no, guid, seen)
        yield line_no, guid, record


def _record(path: str | Path, line_no: int, line: str) -> dict:
    """The JSON object that line ``line_no`` holds; anything else raises MalformedLine."""
    try:
        record = JSON_DECODER.decode(line)
    except ValueError as exc:
        raise MalformedLine(path, line_no, f"invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise MalformedLine(path, line_no, "expected a JSON object")
    return record


def _add_guid(path: str | Path, line_no: int, guid: object, seen: dict[str, int]) -> None:
    """Map line ``line_no``'s ``guid`` to it in ``seen``, unless it breaks a rule or is there."""
    if not isinstance(guid, str) or not guid:
        raise MalformedLine(path, line_no, "missing or non-string 'guid'")
    if has_surrogate(guid):
        raise MalformedLine(path, line_no, f"'guid' must not hold a lone surrogate, got {guid!r}")
    if guid in seen:
        raise DuplicateGuid(f"{path}:{line_no}: guid {guid!r} already appears on line {seen[guid]}")
    seen[guid] = line_no


def load_jsonl(path: str | Path) -> Dataset:
    """Load a JSONL dataset, preserving line order; errors name ``path:line``.

    The file is read once, in blocks of lines; the error is the first bad
    line's: not UTF-8, :func:`read_guid_lines`' checks, a legacy field also
    in ``meta``, then ``InputExample``'s rules. Each line is one ``raw_decode``
    that must end at its end: an array decode per block would read a value
    cut over two lines, with two values on a third, as one record a line.
    """
    decode = JSON_DECODER.raw_decode
    examples: list[InputExample | None] = []  # one per line, None for a blank one
    try:
        for lines in read_line_blocks(path):
            for line in lines:
                if line.isspace():
                    examples.append(None)
                    continue
                # the record must span the line but for JSON whitespace, which
                # here is only " ", "\t" and the "\n" that ends the line
                record, end = decode(line, len(line) - len(line.lstrip(" \t")))
                if line[end:].strip(" \t\n") or type(record) is not dict:
                    raise ValueError("not one JSON object")
                if "text_a" in record or "text_b" in record:
                    _fold_legacy(record)
                examples.append(InputExample(record.get("guid"), record.get("meta", {}),
                                             record.get("label")))
        return Dataset(tuple(filter(None, examples)))  # an example is never false
    except (InvalidEncoding, DuplicateGuid, ValueError, DataError) as exc:
        seen: dict[str, int] = {}
        for line_no, example in enumerate(examples, 1):
            if example is not None:
                _add_guid(path, line_no, example.guid, seen)
        if isinstance(exc, (InvalidEncoding, DuplicateGuid)):  # the reader's, or Dataset's
            raise
        line_no = len(examples) + 1  # ``line`` gives no example
        _add_guid(path, line_no, _record(path, line_no, line).get("guid"), seen)
        raise MalformedLine(path, line_no, str(exc)) from None  # legacy fold's or InputExample's


def _fold_legacy(record: dict) -> None:
    """Fold ``record``'s legacy top-level ``text_a``/``text_b`` into its ``meta``."""
    for legacy in ("text_a", "text_b"):
        meta = record.get("meta", {})
        if legacy in record and isinstance(meta, dict):
            if legacy in meta:
                raise DataError(f"{legacy!r} given both top-level and in meta")
            record["meta"] = {**meta, legacy: record[legacy]}


def example_to_dict(example: InputExample) -> dict:
    record: dict = {"guid": example.guid}
    if example.label is not None:
        record["label"] = example.label
    record["meta"] = dict(example.meta)
    return record


# --- fixed PRNG (see module docstring) --------------------------------------


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """splitmix64 generator; the full 64-bit output sequence is the contract."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64


def _shuffled(items: list, rng: SplitMix64) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def fewshot_sample(
    dataset: Dataset, k_per_class: int, seed: int, strict: bool = True
) -> Dataset:
    """Draw ``k_per_class`` labeled examples per class, deterministically.

    Unlabeled examples are never sampled; a ``dataset`` that is not a
    :class:`Dataset` raises :class:`~promptpipe.errors.DataError`, and a
    ``k_per_class`` or ``seed`` that is not an ``int``, or a
    ``k_per_class`` below 1, raises :class:`~promptpipe.errors.ConfigError`.
    With ``strict`` (the default) a class with fewer than ``k_per_class``
    examples raises :class:`~promptpipe.errors.InsufficientExamples`;
    otherwise the whole class is taken and a warning is emitted. Identical
    ``(dataset, k_per_class, seed)`` always yields the identical sample.
    """
    check_instance("dataset", dataset, Dataset, DataError)
    check_integer("k_per_class", k_per_class, 1)
    check_integer("seed", seed)
    by_label: dict[str, list[InputExample]] = {}
    for example in dataset.examples:
        if example.label is not None:
            by_label.setdefault(example.label, []).append(example)
    sampled: list[InputExample] = []
    for label in sorted(by_label):
        group = by_label[label]
        if len(group) < k_per_class:
            if strict:
                raise InsufficientExamples(label, len(group), k_per_class)
            warnings.warn(
                f"class {label!r} has only {len(group)} examples, need {k_per_class}; "
                "taking all of them",
                stacklevel=2,
            )
        rng = SplitMix64((seed & _MASK64) ^ fnv1a64(label.encode("utf-8")))
        sampled.extend(_shuffled(group, rng)[:k_per_class])
    return Dataset.from_examples(sampled)
