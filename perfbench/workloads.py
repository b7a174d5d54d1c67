"""Deterministic inputs for the promptpipe benchmark workloads.

Every file a workload needs (vocabulary, templates, verbalizer, dataset,
scorer file and run configs) is generated from one integer seed. A numpy
generator is seeded from ``promptpipe.data.SplitMix64``, so the same
seed gives byte-identical files on any platform.

Each workload also carries what the benchmark's oracle needs to check a
run: the expected record of every example, computed here with numpy and
a small wordpiece written for the benchmark, never with promptpipe's own
tokenizer or projection.

Workloads (see BENCHMARK.json for the one-line reasons):

* ``short_ensemble``: fixture vocabulary (V=113), three one-mask
  templates ensembled, toy scorer, about 20-word texts, no truncation.
* ``long_truncate``: synthetic 30522-token vocabulary, one two-mask
  template with a non-shortenable title, about 400-word descriptions
  truncated to ``max_len`` 256, toy scorer, ``max`` aggregation.
* ``replay_bert``: synthetic 30522-token vocabulary, one two-mask
  template, short texts, JSONL logits replayed from a file.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from promptpipe.data import SplitMix64

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

BERT_VOCAB_SIZE = 30522
LETTERS = string.ascii_lowercase
UNK = "[UNK]"
N_SPECIAL = 2  # CLS and SEP; every workload runs with add_special_tokens
SCORE_TOLERANCE = 1e-9

# Examples per full run: one child run takes 1.5 to 2.5 s on a 2-core
# x86 host, so a 25-second run takes about ten samples of each kind.
SIZES = {"short_ensemble": 3000, "long_truncate": 600, "replay_bert": 80}

# Template parts: ("text", s), ("mask",), ("soft", init_text) or
# ("meta", key, shortenable, strip_trailing_punctuation).
SENTIMENT = [("meta", "text", True, False), ("text", " It is "), ("mask",)]
SENTIMENT_ALT = [("meta", "text", True, False), ("text", " It's "), ("mask",), ("text", " !")]
SENTIMENT_SOFT = [
    ("meta", "text", True, True),
    ("text", ". "),
    ("soft", "It was"),
    ("text", " "),
    ("mask",),
]
TOPIC_TWO_MASKS = [
    ("text", "a "),
    ("mask",),
    ("text", " "),
    ("mask",),
    ("text", " news: "),
    ("meta", "title", False, False),
    ("text", " "),
    ("meta", "description", True, False),
]
REVIEW_TWO_MASKS = [
    ("meta", "text", True, False),
    ("text", " It was "),
    ("mask",),
    ("text", " , really "),
    ("mask",),
    ("text", " ."),
]


def template_source(parts) -> str:
    """The template-language line for a list of parts."""
    out = []
    for part in parts:
        if part[0] == "text":
            out.append(part[1])
        elif part[0] == "mask":
            out.append('{"mask"}')
        elif part[0] == "soft":
            out.append(json.dumps({"soft": part[1]}))
        else:
            _, key, shortenable, strip = part
            attrs = f'"meta": "{key}"'
            if not shortenable:
                attrs += ', "shortenable": False'
            if strip:
                attrs += ', "post_processing": "strip_trailing_punctuation"'
            out.append("{" + attrs + "}")
    return "".join(out)


class WordPiece:
    """Greedy longest-match wordpiece, kept apart from promptpipe's.

    It follows the rule the README states: split on whitespace, take the
    longest vocabulary prefix repeatedly with ``##`` on continuations,
    and map a word with an unmatchable rest to a single UNK.
    """

    def __init__(self, tokens):
        self.ids = {token: index for index, token in enumerate(tokens)}
        self.unk = self.ids[UNK]
        self._memo: dict[str, list[int]] = {}

    def word(self, word: str) -> list[int]:
        cached = self._memo.get(word)
        if cached is not None:
            return cached
        pieces: list[int] = []
        start = 0
        while start < len(word):
            for end in range(len(word), start, -1):
                piece = word[start:end] if start == 0 else "##" + word[start:end]
                if piece in self.ids:
                    pieces.append(self.ids[piece])
                    start = end
                    break
            else:
                pieces = [self.unk]
                break
        self._memo[word] = pieces
        return pieces

    def encode(self, text: str) -> list[int]:
        return [i for word in text.split() for i in self.word(word)]


def wrapped_text(parts, meta: dict, wp: WordPiece) -> str:
    """What ``wrapped_text`` must print for one example."""
    out = []
    for part in parts:
        if part[0] == "text":
            out.append(part[1])
        elif part[0] == "mask":
            out.append("<mask>")
        elif part[0] == "soft":
            out.append("<soft>" * len(wp.encode(part[1])))
        else:
            value = meta[part[1]]
            out.append(value.rstrip(string.punctuation) if part[3] else value)
    return "".join(out)


def piece_counts(parts, meta: dict, wp: WordPiece) -> tuple[int, int]:
    """(pieces before truncation, UNK pieces) of one encode call, no specials."""
    total = unk = 0
    for part in parts:
        if part[0] == "mask":
            total += 1
        elif part[0] == "soft":
            total += len(wp.encode(part[1]))
        else:
            text = part[1] if part[0] == "text" else meta[part[1]]
            if part[0] == "meta" and part[3]:
                text = text.rstrip(string.punctuation)
            ids = wp.encode(text)
            total += len(ids)
            unk += ids.count(wp.unk)
    return total, unk


def log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def class_scores(log_probs: np.ndarray, word_ids, aggregation: str) -> np.ndarray:
    """Class scores of (..., M, V) log-probs, summed over the M rows.

    ``word_ids`` is, per class, a list of piece-id lists. A word scores
    the mean log-prob of its pieces; a class combines its words by mean
    or max.
    """
    combine = np.mean if aggregation == "mean_log_prob" else np.max
    per_class = []
    for words in word_ids:
        word_scores = np.stack([log_probs[..., ids].mean(axis=-1) for ids in words], axis=-1)
        per_class.append(combine(word_scores, axis=-1).sum(axis=-1))
    return np.stack(per_class, axis=-1)


@dataclass
class Workload:
    name: str
    config: Path  # full dataset
    setup_config: Path  # first example only, same other files
    guids: list[str]
    texts: list[str]  # expected wrapped_text per example
    classes: list[str]
    scores: np.ndarray  # (N, C) expected class scores
    summary: dict  # input properties

    @property
    def n(self) -> int:
        return len(self.guids)

    def first(self) -> "Workload":
        """The oracle of the one-example set-up run."""
        return replace(self, guids=self.guids[:1], texts=self.texts[:1], scores=self.scores[:1])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(SplitMix64(seed).next())


def _random_words(rng, count: int, low: int, high: int) -> list[str]:
    lengths = rng.integers(low, high + 1, size=count)
    letters = rng.integers(0, len(LETTERS), size=(count, high))
    alphabet = np.array(list(LETTERS))
    return ["".join(alphabet[row[:n]]) for row, n in zip(letters, lengths)]


def _fixture_tokens() -> list[str]:
    return (FIXTURES / "vocab.txt").read_text(encoding="utf-8").splitlines()


def _bert_vocab(rng) -> tuple[list[str], list[str], list[str]]:
    """A 30522-token wordpiece vocabulary: (tokens, whole words, ## stems).

    It starts with the fixture lines verbatim, so special tokens and the
    fixture label words keep their ids, and holds every letter and
    ``##`` letter, so every lowercase word tokenizes.
    """
    tokens = _fixture_tokens()
    seen = set(tokens)
    for letter in LETTERS:
        for token in (letter, "##" + letter):
            if token not in seen:
                seen.add(token)
                tokens.append(token)
    stems: list[str] = []
    while len(stems) < 6000:
        for stem in _random_words(rng, 1000, 2, 4):
            if "##" + stem not in seen and len(stems) < 6000:
                seen.add("##" + stem)
                tokens.append("##" + stem)
                stems.append(stem)
    words: list[str] = []
    while len(tokens) < BERT_VOCAB_SIZE:
        for word in _random_words(rng, 2000, 3, 9):
            if word not in seen and len(tokens) < BERT_VOCAB_SIZE:
                seen.add(word)
                tokens.append(word)
                words.append(word)
    return tokens, words, stems


def _compounds(rng, words, stems, count: int) -> list[str]:
    """Words built from a vocabulary word and two or three ``##`` stems."""
    heads = rng.integers(0, len(words), size=count)
    tails = rng.integers(0, len(stems), size=(count, 3))
    lengths = rng.integers(2, 4, size=count)
    return [
        words[h] + "".join(stems[t] for t in row[:n])
        for h, row, n in zip(heads, tails, lengths)
    ]


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")


def _write_dataset(path: Path, guids, metas) -> None:
    _write_lines(
        path,
        (json.dumps({"guid": g, "meta": m}, ensure_ascii=False) for g, m in zip(guids, metas)),
    )


def _write_configs(out: Path, templates: list[str], scorer: dict, max_len: int, aggregation: str):
    common = {
        "templates": templates,
        "vocab": "vocab.txt",
        "verbalizer": "verbalizer.json",
        "tokenizer_kind": "wordpiece",
        "max_len": max_len,
        "add_special_tokens": True,
        "aggregation": aggregation,
        "calibrate": False,
        **scorer,
    }
    _write_json(out / "config.json", {**common, "dataset": "data.jsonl"})
    _write_json(out / "setup_config.json", {**common, "dataset": "setup.jsonl"})


def _toy_row(tokens, frequencies: dict) -> np.ndarray:
    index = {token: i for i, token in enumerate(tokens)}
    row = np.zeros(len(tokens))
    for token, value in frequencies.items():
        row[index[token]] = value
    return row


def _frequencies(rng, tokens, must: list[str], extra: int) -> dict:
    """Token -> logit at 4 decimals for the label words and ``extra`` others."""
    picks = [tokens[i] for i in rng.choice(np.arange(5, len(tokens)), size=extra, replace=False)]
    chosen = list(dict.fromkeys(must + picks))
    values = np.round(rng.normal(0.0, 2.0, size=len(chosen)), 4)
    return {token: float(v) for token, v in zip(chosen, values)}


def _summarize(name, parts_list, metas, wp, max_len) -> dict:
    pieces_in = pieces_out = truncated = unk = calls = 0
    budget = max_len - N_SPECIAL
    for meta in metas:
        for parts in parts_list:
            total, unknown = piece_counts(parts, meta, wp)
            calls += 1
            pieces_in += total
            pieces_out += min(total, budget)
            truncated += total > budget
            unk += unknown
    return {
        "workload": name,
        "n": len(metas),
        "encode_calls": calls,
        "pieces_before_per_call": pieces_in / calls,
        "pieces_after_per_call": pieces_out / calls,
        "truncated_share": truncated / calls,
        "unk_share": unk / pieces_in,
        "logits_rows": 0,
        "logits_bytes": 0,
    }


def _mask_count(parts) -> int:
    return sum(p[0] == "mask" for p in parts)


def _toy_scores(parts_list, wp, verbalizer, row, aggregation, n) -> np.ndarray:
    """(n, C) class scores under the toy scorer, ensembled over templates.

    The toy scorer gives every mask the same row whatever the example, so
    the scores are computed once per template and repeated.
    """
    word_ids = [[wp.encode(w) for w in words] for words in verbalizer.values()]
    log_probs = log_softmax(row)
    per_template = [
        class_scores(np.tile(log_probs, (_mask_count(parts), 1)), word_ids, aggregation)
        for parts in parts_list
    ]
    return np.tile(np.mean(per_template, axis=0), (n, 1))


def _guids(name: str, n: int) -> list[str]:
    return [f"{name[0]}{i}" for i in range(n)]


def _finish(name, out, parts_list, metas, wp, verbalizer, scores, max_len) -> Workload:
    """Write the full and one-example datasets and return the oracle."""
    guids = _guids(name, len(metas))
    _write_dataset(out / "data.jsonl", guids, metas)
    _write_dataset(out / "setup.jsonl", guids[:1], metas[:1])
    return Workload(
        name=name,
        config=out / "config.json",
        setup_config=out / "setup_config.json",
        guids=guids,
        texts=[wrapped_text(parts_list[0], meta, wp) for meta in metas],
        classes=list(verbalizer),
        scores=scores,
        summary=_summarize(name, parts_list, metas, wp, max_len),
    )


def _short_ensemble(seed: int, out: Path, n: int) -> Workload:
    rng = _rng(seed)
    tokens = _fixture_tokens()
    wp = WordPiece(tokens)
    pool = [t for t in tokens if not t.startswith(("[", "##"))]
    metas = []
    for length in rng.integers(16, 25, size=n):
        metas.append({"text": " ".join(pool[i] for i in rng.integers(0, len(pool), size=length))})
    parts_list = [SENTIMENT, SENTIMENT_ALT, SENTIMENT_SOFT]
    files = ["sentiment.txt", "sentiment_alt.txt", "sentiment_soft.txt"]
    for parts, file in zip(parts_list, files):
        _write_lines(out / file, [template_source(parts)])
    _write_lines(out / "vocab.txt", tokens)
    verbalizer = json.loads((FIXTURES / "verbalizer.json").read_text(encoding="utf-8"))
    _write_json(out / "verbalizer.json", verbalizer)
    must = [w for words in verbalizer.values() for w in words]
    frequencies = _frequencies(rng, tokens, must, 40)
    _write_json(out / "frequencies.json", frequencies)
    _write_configs(out, files, {"frequency_file": "frequencies.json"}, 128, "mean_log_prob")
    scores = _toy_scores(parts_list, wp, verbalizer, _toy_row(tokens, frequencies),
                         "mean_log_prob", n)
    return _finish("short_ensemble", out, parts_list, metas, wp, verbalizer, scores, 128)


def _long_truncate(seed: int, out: Path, n: int) -> Workload:
    rng = _rng(seed)
    tokens, words, stems = _bert_vocab(rng)
    wp = WordPiece(tokens)
    compounds = _compounds(rng, words, stems, 4000)
    metas = []
    for _ in range(n):
        title = " ".join(words[i] for i in rng.integers(0, len(words), size=6))
        length = int(rng.integers(360, 441))
        kind = rng.random(length)  # 89% words, 10% compounds, 1% numbers (UNK)
        picks = rng.integers(0, len(words), size=length)
        body = [
            str(1000 + p % 9000) if k < 0.01 else compounds[p % len(compounds)] if k < 0.11 else words[p]
            for k, p in zip(kind, picks)
        ]
        metas.append({"title": title, "description": " ".join(body)})
    labels = [words[i] for i in rng.choice(len(words), size=8, replace=False)]
    multi = [c for c in compounds[:50] if len(wp.encode(c)) > 1][:4]
    verbalizer = {
        "world": [labels[0], multi[0]],
        "sports": [labels[1], labels[2], multi[1]],
        "business": [labels[3], multi[2], labels[4]],
        "science": [labels[5], labels[6], labels[7], multi[3]],
    }
    _write_lines(out / "topic.txt", [template_source(TOPIC_TWO_MASKS)])
    _write_lines(out / "vocab.txt", tokens)
    _write_json(out / "verbalizer.json", verbalizer)
    must = [tokens[i] for ws in verbalizer.values() for w in ws for i in wp.encode(w)]
    frequencies = _frequencies(rng, tokens, must, 2000)
    _write_json(out / "frequencies.json", frequencies)
    _write_configs(out, ["topic.txt"], {"frequency_file": "frequencies.json"}, 256, "max")
    scores = _toy_scores([TOPIC_TWO_MASKS], wp, verbalizer, _toy_row(tokens, frequencies),
                         "max", n)
    return _finish("long_truncate", out, [TOPIC_TWO_MASKS], metas, wp, verbalizer, scores, 256)


def _replay_bert(seed: int, out: Path, n: int) -> Workload:
    rng = _rng(seed)
    tokens, words, _ = _bert_vocab(rng)
    wp = WordPiece(tokens)
    metas = []
    for length in rng.integers(8, 17, size=n):
        metas.append({"text": " ".join(words[i] for i in rng.integers(0, len(words), size=length))})
    verbalizer = json.loads((FIXTURES / "verbalizer.json").read_text(encoding="utf-8"))
    word_ids = [[wp.encode(w) for w in ws] for ws in verbalizer.values()]
    masks = _mask_count(REVIEW_TWO_MASKS)
    scores = np.empty((n, len(verbalizer)))
    with open(out / "logits.jsonl", "w", encoding="utf-8") as handle:
        for i, guid in enumerate(_guids("replay_bert", n)):
            # exact quotients k / 10^4 print as 4-decimal text that parses back
            # to the same doubles, so the oracle sees what the program reads
            rows = np.round(rng.normal(0.0, 2.0, size=(masks, len(tokens))) * 1e4) / 1e4
            handle.write(json.dumps({"guid": guid, "mask_logits": rows.tolist()}))
            handle.write("\n")
            scores[i] = class_scores(log_softmax(rows), word_ids, "mean_log_prob")
    _write_lines(out / "review.txt", [template_source(REVIEW_TWO_MASKS)])
    _write_lines(out / "vocab.txt", tokens)
    _write_json(out / "verbalizer.json", verbalizer)
    _write_configs(out, ["review.txt"], {"logits_file": "logits.jsonl"}, 128, "mean_log_prob")
    w = _finish("replay_bert", out, [REVIEW_TWO_MASKS], metas, wp, verbalizer, scores, 128)
    w.summary["logits_rows"] = n * masks
    w.summary["logits_bytes"] = (out / "logits.jsonl").stat().st_size
    return w


BUILDERS = {
    "short_ensemble": _short_ensemble,
    "long_truncate": _long_truncate,
    "replay_bert": _replay_bert,
}


def generate(name: str, seed: int, out: Path, n: int | None = None) -> Workload:
    """Write workload ``name`` for ``seed`` into ``out`` and return its oracle."""
    out.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, out, SIZES[name] if n is None else n)


def count_failed(workload: Workload, output: Path) -> int:
    """Examples whose output record is missing or disagrees with the oracle.

    Scores match within ``SCORE_TOLERANCE``: batched reductions may flip
    last bits, while the golden fixtures remain the byte-exact check.
    """
    try:
        lines = output.read_text(encoding="utf-8").splitlines()
    except OSError:
        return workload.n
    failed = max(0, len(lines) - workload.n)
    for i in range(workload.n):
        if i >= len(lines):
            failed += 1
            continue
        try:
            record = json.loads(lines[i])
            scores = np.asarray(record["class_scores"], dtype=np.float64)
            ok = (
                set(record) == {"guid", "wrapped_text", "predicted_class", "class_scores"}
                and record["guid"] == workload.guids[i]
                and record["wrapped_text"] == workload.texts[i]
                and scores.shape == workload.scores[i].shape
                and bool(np.all(np.abs(scores - workload.scores[i]) <= SCORE_TOLERANCE))
                and record["predicted_class"] == workload.classes[int(np.argmax(workload.scores[i]))]
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    return min(failed, workload.n)
