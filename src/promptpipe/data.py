"""Dataset ingestion (JSONL) and deterministic few-shot sampling.

Dataset lines are JSON objects with a ``guid`` string, an optional
``label`` string, and a ``meta`` map of string fields. The legacy
top-level fields ``text_a``/``text_b`` are folded into ``meta`` under
those names.

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

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigError, DuplicateGuid, InsufficientExamples, MalformedLine
from .textfile import read_lines, write_jsonl
from .wrapping import InputExample

__all__ = ["Dataset", "load_jsonl", "read_records", "save_jsonl", "fewshot_sample"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Dataset:
    examples: tuple[InputExample, ...]
    label_set: frozenset[str]

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[InputExample]:
        return iter(self.examples)

    @classmethod
    def from_examples(cls, examples: Iterable[InputExample]) -> "Dataset":
        """The one constructor: rejects a repeated guid and derives ``label_set``."""
        items = tuple(examples)
        seen: set[str] = set()
        for ex in items:
            if ex.guid in seen:
                raise DuplicateGuid(f"guid {ex.guid!r} appears twice")
            seen.add(ex.guid)
        labels = frozenset(ex.label for ex in items if ex.label is not None)
        return cls(examples=items, label_set=labels)


def read_records(path: str | Path) -> Iterator[tuple[int, str, dict]]:
    """Yield ``(line_no, guid, record)`` for each record of a guid-keyed JSONL file.

    The file is read by :func:`~promptpipe.textfile.read_lines`; blank
    lines are skipped. A line that is not a JSON object with a non-empty
    string ``guid`` raises :class:`~promptpipe.errors.MalformedLine`, and a
    guid seen on an earlier line raises
    :class:`~promptpipe.errors.DuplicateGuid` naming both lines; every
    error names ``path:line``.
    """
    for line_no, guid, record, _ in read_guid_lines(path):
        yield line_no, guid, record


def read_guid_lines(
    path: str | Path, read_line: Callable[[str], tuple[str, Any] | None] | None = None
) -> Iterator[tuple[int, str, Any, str]]:
    """:func:`read_records` that also yields each line, and may read a line itself.

    ``read_line(line)`` returns ``(guid, record)`` for a line it reads, and
    must do so only when ``json.loads(line)`` is an object whose ``guid``
    is that string; it returns ``None`` for any other line, which is then
    read as :func:`read_records` reads it. The guid rules apply to every
    line either way.
    """
    first_line: dict[str, int] = {}
    for line_no, line in read_lines(path):
        if not line.strip():
            continue
        read = read_line(line) if read_line else None
        if read is None:
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise MalformedLine(path, line_no, f"invalid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise MalformedLine(path, line_no, "expected a JSON object")
            guid = record.get("guid")
        else:
            guid, record = read
        if not isinstance(guid, str) or not guid:
            raise MalformedLine(path, line_no, "missing or non-string 'guid'")
        if guid in first_line:
            raise DuplicateGuid(
                f"{path}:{line_no}: guid {guid!r} already appears on line {first_line[guid]}"
            )
        first_line[guid] = line_no
        yield line_no, guid, record, line


def _parse_example(path: str | Path, line_no: int, guid: str, obj: dict) -> InputExample:
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise MalformedLine(path, line_no, "'label' must be a string when present")
    meta_raw = obj.get("meta", {})
    if not isinstance(meta_raw, dict):
        raise MalformedLine(path, line_no, "'meta' must be an object")
    meta: dict[str, str] = {}
    for key, value in meta_raw.items():
        if not isinstance(value, str):
            raise MalformedLine(path, line_no, f"meta value for {key!r} must be a string")
        meta[key] = value
    for legacy in ("text_a", "text_b"):
        if legacy in obj:
            if legacy in meta:
                raise MalformedLine(path, line_no, f"{legacy!r} given both top-level and in meta")
            value = obj[legacy]
            if not isinstance(value, str):
                raise MalformedLine(path, line_no, f"{legacy!r} must be a string")
            meta[legacy] = value
    return InputExample(guid=guid, meta=meta, label=label)


def load_jsonl(path: str | Path) -> Dataset:
    """Load a JSONL dataset, preserving line order; errors name ``path:line``."""
    return Dataset.from_examples(
        _parse_example(path, line_no, guid, record)
        for line_no, guid, record in read_records(path)
    )


def example_to_dict(example: InputExample) -> dict:
    record: dict = {"guid": example.guid}
    if example.label is not None:
        record["label"] = example.label
    record["meta"] = dict(example.meta)
    return record


def save_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the same JSONL format ``load_jsonl`` reads."""
    write_jsonl(map(example_to_dict, dataset.examples), path)


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

    Unlabeled examples are never sampled; a ``k_per_class`` below 1 raises
    :class:`~promptpipe.errors.ConfigError`. With ``strict`` (the default) a
    class with fewer than ``k_per_class`` examples raises
    :class:`~promptpipe.errors.InsufficientExamples`; otherwise the whole
    class is taken and a warning is emitted. Identical
    ``(dataset, k_per_class, seed)`` always yields the identical sample.
    """
    if k_per_class < 1:
        raise ConfigError(f"k_per_class must be >= 1, got {k_per_class}")
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
