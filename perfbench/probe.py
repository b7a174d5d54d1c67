"""Reference process that tracks the speed of the host for the benchmark.

Usage: python probe.py python
       python probe.py json LOGITS_FILE

It starts like a promptpipe run (interpreter, json, numpy), does a fixed
amount of one kind of work and exits. The harness times it from spawn to
exit just before and after every sample, so a slow spell of the host
shows in the probe as it does in the sample. Nothing here depends on
promptpipe, so the probe's time changes only with the host.

``python`` mixes greedy longest-prefix matching against a dict, small
JSON round trips and small numpy reductions, like the toy-scorer runs.
``json`` parses a file of two-row, 30522-wide logits records and makes
each an array, like the logits replay.
"""

from __future__ import annotations

import json
import sys

import numpy as np

PYTHON_ROUNDS = 150
JSON_PASSES = 4


def python_kernel(rounds: int) -> int:
    rng = np.random.default_rng(2111)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = ["".join(rng.choice(letters, size=int(k))) for k in rng.integers(3, 10, 300)]
    vocab = {w[:k]: i for i, w in enumerate(words[::3]) for k in (2, len(w))}
    row = rng.normal(size=256)
    found = 0
    for _ in range(rounds):
        for word in words:
            for end in range(len(word), 0, -1):
                if word[:end] in vocab:
                    found += 1
                    break
        text = json.dumps({"words": words, "row": row.tolist()})
        found += len(json.loads(text)["row"])
        for start in range(0, 200, 2):
            found += int(np.argmax(row[start:start + 56]))
    return found


def json_kernel(path: str, passes: int) -> int:
    values = 0
    for _ in range(passes):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                values += np.asarray(json.loads(line)["mask_logits"], dtype=np.float64).size
    return values


def write_logits(path, records: int = 4, width: int = 30522) -> None:
    """The ``json`` kind's input: logits records at 4 decimals, fixed seed."""
    rng = np.random.default_rng(2111)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(records):
            rows = np.round(rng.normal(0.0, 2.0, size=(2, width)) * 1e4) / 1e4
            handle.write(json.dumps({"guid": f"p{i}", "mask_logits": rows.tolist()}) + "\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["python"] and len(argv) == 1:
        python_kernel(PYTHON_ROUNDS)
    elif argv[:1] == ["json"] and len(argv) == 2:
        json_kernel(argv[1], JSON_PASSES)
    else:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
