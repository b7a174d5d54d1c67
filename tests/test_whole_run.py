"""Whole ``run`` outputs against a reference of README "Scoring semantics".

The reference below shares no code with ``Verbalizer`` or the runner: it
wraps each example with the public per-example functions (``wrap_example``,
``wrapped_text``), applies the length rule to the wrapped segments, and
scores each label word from one logits row at a time with plain Python
arithmetic, so any change to how a run batches, caches or writes its
work shows as a difference in bytes or in the first failing
``(guid, stage)``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    InputExample,
    PipelineConfig,
    Vocab,
    build_soft_plan,
    build_tokenizer,
    parse_template,
    run_pipeline,
    wrap_example,
    wrapped_text,
)
from promptpipe.errors import MissingMetaKey, PipelineStageError, TemplateTooLong

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
VOCAB = Vocab.from_file(FIXTURES / "vocab.txt")
TOKENIZER = build_tokenizer("wordpiece", VOCAB)
CONTENT_FREE = "__content_free__"


# --- the reference -------------------------------------------------------------


def _log_probs(row: np.ndarray, ids) -> list[float]:
    """Each of ``ids``' log-probabilities in the log-softmax of one row."""
    shifted = row - row.max()
    log_z = float(np.log(np.sum(np.exp(shifted))))
    return [float(shifted[i]) - log_z for i in ids]


def _word_scores(row: np.ndarray, words) -> list[list[float]]:
    """Per class, each label word's mean piece log-probability."""
    return [[sum(_log_probs(row, ids)) / len(ids) for ids in class_words]
            for class_words in words]


def _reference(templates, examples, label_words, rows, aggregation, calibrate, max_len,
               add_special_tokens):
    """A run's output bytes, or the ``(guid, stage)`` it fails at.

    ``rows(guid, m)`` gives an example's ``m`` logits rows, ``None`` for a
    missing record or one of another row count.
    """
    asts = [parse_template(source) for source in templates]
    plans = [build_soft_plan(ast, TOKENIZER) for ast in asts]
    words = [[tuple(TOKENIZER.encode(word)) for word in ws] for ws in label_words.values()]
    classes = list(label_words)

    def wrapped(ast, plan, example):
        """The wrapped sequence, once the non-shortenable part fits max_len."""
        seq = wrap_example(ast, example, plan)
        fixed = 0  # positions no truncation removes
        for seg in seq.segments:
            if seg.is_mask or seg.soft_slot is not None:
                fixed += 1
            elif not seg.shortenable:
                fixed += len(TOKENIZER.encode(seg.text))
        if fixed + 2 * add_special_tokens > max_len:
            raise TemplateTooLong("too long")
        return seq

    priors = [None] * len(asts)
    if calibrate:
        for t, ast in enumerate(asts):
            priors[t] = [_word_scores(row, words) for row in rows(CONTENT_FREE, ast.mask_count)]
    lines = []
    for example in examples:
        per_template = []
        for t, (ast, plan, prior) in enumerate(zip(asts, plans, priors)):
            try:
                seq = wrapped(ast, plan, example)
            except MissingMetaKey:
                return example.guid, "wrap"
            except TemplateTooLong:
                return example.guid, "encode"
            if t == 0:
                text = wrapped_text(seq)
            example_rows = rows(example.guid, ast.mask_count)
            if example_rows is None:
                return example.guid, "score"
            total = None
            for m, row in enumerate(example_rows):
                per_class = []
                for c, scores in enumerate(_word_scores(row, words)):
                    if prior is not None:
                        scores = [s - p for s, p in zip(scores, prior[m][c])]
                    per_class.append(sum(scores) / len(scores) if aggregation == "mean_log_prob"
                                     else max(scores) if aggregation == "max" else scores[0])
                total = per_class if total is None else [a + b for a, b in zip(total, per_class)]
            per_template.append(total)
        mean = [sum(column) / len(column) for column in zip(*per_template)]
        record = {"guid": example.guid, "wrapped_text": text,
                  "predicted_class": classes[mean.index(max(mean))], "class_scores": mean}
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")


# --- writing a case ------------------------------------------------------------


def _config(directory: Path, templates, examples, label_words, scorer, **options):
    """A run config over files written to ``directory``; ``scorer`` is a
    frequency dict (toy) or a dict of guid to ``(M, V)`` logits rows, whose
    values are written with ``decimals`` places if given."""
    decimals = options.pop("decimals", None)
    (directory / "templates.txt").write_text("".join(t + "\n" for t in templates),
                                             encoding="utf-8")
    with open(directory / "data.jsonl", "w", encoding="utf-8") as handle:
        for example in examples:
            handle.write(json.dumps({"guid": example.guid, "meta": dict(example.meta)}) + "\n")
    (directory / "verbalizer.json").write_text(json.dumps(label_words), encoding="utf-8")
    files = {}
    if all(isinstance(v, float) for v in scorer.values()):
        (directory / "frequencies.json").write_text(json.dumps(scorer), encoding="utf-8")
        files["frequency_file"] = str(directory / "frequencies.json")
    else:
        with open(directory / "logits.jsonl", "w", encoding="utf-8") as handle:
            for guid, values in scorer.items():
                values = values if decimals is None else np.round(values, decimals)
                handle.write(json.dumps({"guid": guid, "mask_logits": values.tolist()}) + "\n")
        files["logits_file"] = str(directory / "logits.jsonl")
    return PipelineConfig(
        templates=[str(directory / "templates.txt")], dataset=str(directory / "data.jsonl"),
        vocab=str(FIXTURES / "vocab.txt"), verbalizer=str(directory / "verbalizer.json"),
        output=str(directory / "out.jsonl"), **files, **options,
    )


def _rows_of(scorer, decimals=None):
    """The reference's ``rows(guid, m)`` for a frequency dict or logits rows."""
    if all(isinstance(v, float) for v in scorer.values()):
        row = np.zeros(len(VOCAB))
        for token, value in scorer.items():
            row[VOCAB.ids[token]] = value
        return lambda guid, m: [row] * m

    def rows(guid, m):
        values = scorer.get(guid)
        if values is None or len(values) != m:
            return None
        return list(values if decimals is None else np.round(values, decimals))
    return rows


def _outcome(cfg: PipelineConfig):
    """The run's output bytes, or the ``(guid, stage)`` it fails at."""
    try:
        run_pipeline(cfg)
    except PipelineStageError as exc:
        return exc.guid, exc.stage
    return Path(cfg.output).read_bytes()


# --- the property ----------------------------------------------------------------

# words of example texts: whole tokens, pieces, an unknown word and punctuation
TEXT_WORDS = ["good", "bad", "movie", "It", "is", "a", "cab", "zzz", "greatest", ".", "plot",
              "abcabc", "!"]
# single- and multi-piece label words: greatest = great ##est, cabab = ca ##ba ##b
LABEL_WORDS = ["bad", "good", "wonderful", "great", "boring", "terrible", "greatest", "cab",
               "abcabc", "cabab"]
META_NODES = ['{"meta": "a"}', '{"meta": "b"}', '{"meta": "b", "shortenable": false}',
              '{"meta": "a", "post_processing": "strip_trailing_punctuation"}']
TEXT_NODES = [" It is ", " . ", " the plot was ", "a", " ! "]


@st.composite
def _templates(draw, masks: int) -> str:
    parts = ['{"mask"}'] * masks
    parts += draw(st.lists(st.sampled_from(META_NODES), min_size=1, max_size=2))
    parts += draw(st.lists(st.sampled_from(TEXT_NODES), max_size=3))
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(['{"soft"}', '{"soft": "It was"}'])))
    return "".join(draw(st.permutations(parts)))


@st.composite
def _examples(draw) -> list[InputExample]:
    examples = []
    for i in range(draw(st.integers(0, 5))):
        meta = {key: " ".join(draw(st.lists(st.sampled_from(TEXT_WORDS), max_size=10)))
                for key in draw(st.sampled_from([("a", "b")] * 5 + [("a",), ("b",)]))}
        examples.append(InputExample(guid=f"e{i}", meta=meta))
    return examples


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_whole_run_equals_the_scoring_semantics_reference(tmp_path_factory, data):
    replay = data.draw(st.booleans(), "replay")
    shared = data.draw(st.integers(1, 3))
    templates = [data.draw(_templates(shared if replay else data.draw(st.integers(1, 3))))
                 for _ in range(data.draw(st.integers(1, 3)))]
    examples = data.draw(_examples())
    words = data.draw(st.permutations(LABEL_WORDS))
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    label_words = {f"c{c}": words[sum(sizes[:c]):sum(sizes[:c + 1])] for c in range(len(sizes))}
    options = {
        "aggregation": data.draw(st.sampled_from(["mean_log_prob", "max", "first"])),
        "calibrate": data.draw(st.booleans()),
        "max_len": data.draw(st.integers(4, 24)),
        "add_special_tokens": data.draw(st.booleans()),
    }
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), "seed"))
    decimals = None
    if replay:
        decimals = data.draw(st.sampled_from([None, 4]))
        guids = [example.guid for example in examples] + [CONTENT_FREE]
        scorer = {guid: rng.normal(0.0, 3.0, size=(shared, len(VOCAB))) for guid in guids}
    else:
        tokens = rng.choice(len(VOCAB), size=12, replace=False)
        scorer = {VOCAB.tokens[i]: float(np.round(rng.uniform(-5, 5), 4)) for i in tokens}
    cfg = _config(tmp_path_factory.mktemp("run"), templates, examples, label_words, scorer,
                  decimals=decimals, **options)
    expected = _reference(templates, examples, label_words, _rows_of(scorer, decimals), **options)
    assert _outcome(cfg) == expected


# --- the first failing (guid, stage) ---------------------------------------------

_TEXT = '{"meta": "text"} It is {"mask"}'
_TITLED = '{"meta": "title", "shortenable": false} {"meta": "text"} {"mask"}'
_LONG = "the plot was a good movie " + _TEXT  # 8 fixed ids and CLS/SEP: over max_len 8


def _example(guid: str, **meta: str) -> InputExample:
    return InputExample(guid=guid, meta={"text": "a good plot", **meta})


def _logits(*guids, rows: int = 1) -> dict:
    rng = np.random.default_rng(len(guids))
    return {guid: rng.normal(0.0, 3.0, size=(rows, len(VOCAB))) for guid in guids}


# templates, examples, scorer, max_len and the expected (guid, stage): each
# case has two failing examples, and the earlier one names the failure
FIRST_FAILURES = {
    "wrap: a key only template 2 uses": (
        [_TEXT, _TEXT, '{"meta": "title"} ' + _TEXT],
        [_example("e0", title="x"), _example("e1"), InputExample("e2", {"title": "x"})],
        {"great": 1.0}, 16, ("e1", "wrap")),
    "encode: a long non-shortenable value in template 1": (
        [_TEXT, _TITLED],
        [_example("e0", title="good"), _example("e1", title="good " * 20),
         InputExample("e2", {"title": "good"})],
        {"great": 1.0}, 16, ("e1", "encode")),
    "encode: a template too long without its values": (
        [_TEXT, _LONG],
        [_example("e0"), InputExample("e1", {})],
        {"great": 1.0}, 8, ("e0", "encode")),
    "score: a missing logits record": (
        [_TEXT, _TEXT],
        [_example("e0"), _example("e1"), _example("e2")],
        {**_logits("e0"), **_logits("e2", rows=2)}, 16, ("e1", "score")),
    "score: a wrong row count": (
        [_TEXT, _TEXT],
        [_example("e0"), _example("e1"), _example("e2")],
        {**_logits("e0"), **_logits("e1", rows=2)}, 16, ("e1", "score")),
}


@pytest.mark.parametrize("case", FIRST_FAILURES)
def test_the_first_failing_example_names_the_failure(tmp_path, case):
    templates, examples, scorer, max_len, expected = FIRST_FAILURES[case]
    label_words = {"negative": ["bad"], "positive": ["good", "greatest"]}
    cfg = _config(tmp_path, templates, examples, label_words, scorer, max_len=max_len)
    assert _outcome(cfg) == expected
    assert _reference(templates, examples, label_words, _rows_of(scorer), "mean_log_prob",
                      False, max_len, True) == expected


def test_a_template_too_long_without_its_values_fails_no_empty_run(tmp_path):
    """The fixed part's verdict is the same for every example, but it is an
    example's failure: a run without examples succeeds."""
    cfg = _config(tmp_path, [_TEXT, _LONG], [], {"negative": ["bad"], "positive": ["good"]},
                  {"great": 1.0}, max_len=8)
    assert _outcome(cfg) == b""


@pytest.mark.parametrize("replay", [False, True])
def test_a_calibrated_run_takes_its_priors_without_measuring_a_template(tmp_path, replay):
    """Calibration reads the content-free rows for the template's mask count, so
    a template too long for ``max_len`` fails a calibrated run at its first
    example's ``encode`` stage, as it does an uncalibrated one, and a run
    without examples succeeds."""
    label_words = {"negative": ["bad"], "positive": ["good"]}
    scorer = _logits("e0", CONTENT_FREE) if replay else {"great": 1.0}
    for examples, expected in [([], b""), ([_example("e0")], ("e0", "encode"))]:
        directory = tmp_path / f"{len(examples)}"
        directory.mkdir()
        cfg = _config(directory, [_TEXT, _LONG], examples, label_words, scorer, max_len=8,
                      calibrate=True)
        assert _outcome(cfg) == expected
        assert _reference([_TEXT, _LONG], examples, label_words, _rows_of(scorer),
                          "mean_log_prob", True, 8, True) == expected
