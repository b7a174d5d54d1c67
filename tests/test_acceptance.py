"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success (pytest -s) and the terminal
summary hook in conftest.py prints one line per criterion either way.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    InputExample,
    NodeKind,
    PostProcessing,
    TemplateNode,
    Verbalizer,
    Vocab,
    build_soft_plan,
    build_tokenizer,
    encode_wrapped,
    load_template_file,
    parse_template,
    project,
    run_pipeline,
    serialize_template,
    wrap_example,
    wrapped_text,
)
from promptpipe.config import PipelineConfig

EINSTEIN = "Albert Einstein was one of the greatest intellects of his time."


def _ok(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


# --- criterion 1: template-language conformance --------------------------------


def text(s, shortenable=False):
    return TemplateNode(kind=NodeKind.TEXT, text=s, shortenable=shortenable)


def meta(key, shortenable=True, pp=None):
    return TemplateNode(
        kind=NodeKind.META, meta_key=key, shortenable=shortenable, post_processing=pp
    )


def soft(t=None, soft_id=None, duplicate=1, pp=None):
    return TemplateNode(
        kind=NodeKind.SOFT, text=t, soft_id=soft_id, duplicate=duplicate,
        post_processing=pp,
    )


MASK = TemplateNode(kind=NodeKind.MASK)
STRIP = PostProcessing.STRIP_TRAILING_PUNCTUATION

GOLDEN_ASTS = [
    (
        'a {"mask"} news: {"meta": "title"} {"meta": "description"}',
        (text("a "), MASK, text(" news: "), meta("title"), text(" "), meta("description")),
    ),
    (
        '{"meta": "sentence"}. In this sentence, {"meta": "entity"} is a {"mask"},',
        (
            meta("sentence"),
            text(". In this sentence, "),
            meta("entity"),
            text(" is a "),
            MASK,
            text(","),
        ),
    ),
    (
        '{"meta": "premise"} {"meta": "hypothesis"} '
        '{"soft": "Does the first sentence entails the second ?"} {"mask"} {"soft"}.',
        (
            meta("premise"),
            text(" "),
            meta("hypothesis"),
            text(" "),
            soft("Does the first sentence entails the second ?"),
            text(" "),
            MASK,
            text(" "),
            soft(),
            text("."),
        ),
    ),
    (
        '{"soft": None, "duplicate": 100} {"meta": "text"} {"mask"}',
        (soft(duplicate=100), text(" "), meta("text"), text(" "), MASK),
    ),
    (
        '{"meta": "context", "post_processing": lambda s: s.rstrip(string.punctuation)}. '
        '{"soft": "It was"} {"mask"}',
        (meta("context", pp=STRIP), text(". "), soft("It was"), text(" "), MASK),
    ),
    (
        '{"meta": "premise"} {"meta": "hypothesis"} {"soft": "Does"} '
        '{"soft": "the", "soft_id": 1} first sentence entails {"soft_id": 1} second?',
        (
            meta("premise"),
            text(" "),
            meta("hypothesis"),
            text(" "),
            soft("Does"),
            text(" "),
            soft("the", soft_id=1),
            text(" first sentence entails "),
            soft(soft_id=1),
            text(" second?"),
        ),
    ),
    (
        'a {"mask"} news: {"meta": "title", "shortenable": False} {"meta": "description"}',
        (
            text("a "),
            MASK,
            text(" news: "),
            meta("title", shortenable=False),
            text(" "),
            meta("description"),
        ),
    ),
]


def test_criterion_1_template_conformance(fixtures_dir, wordpiece):
    started = time.perf_counter()
    from_file = load_template_file(fixtures_dir / "templates_showcase.txt")
    assert len(from_file) == len(GOLDEN_ASTS) == 7
    for ast, (source, golden) in zip(from_file, GOLDEN_ASTS):
        assert ast.source == source
        assert ast.nodes == golden, f"golden AST mismatch for: {source}"
        reparsed = parse_template(serialize_template(ast))
        assert reparsed.nodes == ast.nodes, f"round trip failed for: {source}"
    block_of_100 = from_file[3]
    plan = build_soft_plan(block_of_100, wordpiece)
    assert len(plan) == 100
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"conformance took {elapsed:.3f}s"
    _ok(1, f"7 golden ASTs, round trips, 100 slots in {elapsed * 1000:.0f}ms")


# --- criterion 2: wrap-and-encode pipeline fixture ------------------------------


def test_criterion_2_pipeline_fixture(wordpiece):
    ast = parse_template('{"meta":"text"} It is {"mask"}')
    example = InputExample(guid="intro", meta={"text": EINSTEIN})
    wrapped = wrap_example(ast, example)
    assert wrapped_text(wrapped) == EINSTEIN + " It is <mask>"
    encoded = encode_wrapped(wrapped, wordpiece, max_len=32)
    assert len(encoded.mask_positions) == 1
    assert encoded.loss_ids[encoded.mask_positions[0]] == 1
    _ok(2, "wrapped sentence matches character-for-character, one mask position")


# --- criterion 3: truncation invariants ------------------------------------------


def _random_case(rng: random.Random):
    parts = ['{"mask"}']
    keys = []
    for _ in range(rng.randrange(0, 5)):
        roll = rng.random()
        if roll < 0.25:
            parts.append('{"mask"}')
        elif roll < 0.6:
            key = f"k{len(keys)}"
            keys.append(key)
            shortenable = rng.random() < 0.8
            parts.append(
                '{"meta": "%s"%s}' % (key, "" if shortenable else ', "shortenable": False')
            )
        elif roll < 0.8:
            parts.append('{"soft": None, "duplicate": %d}' % rng.randrange(1, 4))
        else:
            parts.append(rng.choice(["w1 w2", "w3", "w4 w5 w6"]))
    rng.shuffle(parts)
    meta_values = {
        key: " ".join(f"w{rng.randrange(16)}" for _ in range(rng.randrange(0, 12)))
        for key in keys
    }
    return " ".join(parts), meta_values


def test_criterion_3_truncation_invariants():
    started = time.perf_counter()
    vocab = Vocab.from_tokens(
        ["[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(16)]
    )
    tok = build_tokenizer("whitespace", vocab)
    rng = random.Random(424242)
    for trial in range(1000):
        source, meta_values = _random_case(rng)
        ast = parse_template(source)
        example = InputExample(guid=f"t{trial}", meta=meta_values)
        wrapped = wrap_example(ast, example)
        add_specials = rng.random() < 0.5
        full = encode_wrapped(
            wrapped, tok, max_len=256, add_special_tokens=add_specials
        )
        fixed = sum(
            1 for i in range(full.length) if full.shortenable_ids[i] == 0
        )
        max_len = fixed + rng.randrange(0, 20)
        enc = encode_wrapped(wrapped, tok, max_len=max_len, add_special_tokens=add_specials)
        arrays = (
            enc.input_ids,
            enc.attention_mask,
            enc.loss_ids,
            enc.shortenable_ids,
            enc.soft_slot_ids,
        )
        # (e) aligned arrays share one padded length, (a) = max_len
        assert {len(a) for a in arrays} == {max_len}
        # (b) every non-shortenable token survives
        survivors_fixed = sum(
            1 for i in range(enc.length) if enc.shortenable_ids[i] == 0
        )
        assert survivors_fixed == fixed
        # (c) mask count preserved
        assert len(enc.mask_positions) == wrapped.mask_count
        assert sum(enc.loss_ids) == wrapped.mask_count
        # (d) survivor order is a subsequence of the untruncated order
        def content(e):
            return [
                (e.input_ids[i], e.loss_ids[i], e.shortenable_ids[i], e.soft_slot_ids[i])
                for i in range(e.length)
            ]
        it = iter(content(full))
        assert all(item in it for item in content(enc)), "not a subsequence"
        # padding area is inert
        for i in range(enc.length, max_len):
            assert enc.attention_mask[i] == 0
            assert enc.loss_ids[i] == 0
            assert enc.soft_slot_ids[i] == -1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"invariant suite took {elapsed:.2f}s"
    _ok(3, f"1000 randomized cases in {elapsed:.2f}s")


# --- criterion 4: greedy tokenizer vs dynamic-programming oracle ------------------


def _dp_longest_prefix(word: str, ids: dict[str, int]):
    """Iterative longest-prefix matcher (table-driven), coded independently
    of the library's scanner."""
    pieces = []
    position = 0
    while position < len(word):
        best = None
        for end in range(position + 1, len(word) + 1):
            candidate = word[position:end]
            if position > 0:
                candidate = "##" + candidate
            if candidate in ids:
                best = (end, candidate)  # longer matches overwrite shorter ones
        if best is None:
            return None
        position, piece = best
        pieces.append(piece)
    return pieces


def test_criterion_4_tokenizer_oracle(vocab, wordpiece):
    rng = random.Random(777)
    mismatches = 0
    for _ in range(500):
        length = rng.randrange(1, 14)
        word = "".join(rng.choice("abc") for _ in range(length))
        expected = _dp_longest_prefix(word, vocab.ids)
        got = wordpiece.tokenize(word)
        want = expected if expected is not None else ["[UNK]"]
        mismatches += got != want
    assert mismatches == 0
    _ok(4, "greedy matcher equals DP oracle on 500 random strings")


# --- criterion 5: verbalizer math ---------------------------------------------


def _naive_word_scores(row, verbalizer: Verbalizer) -> list[list[float]]:
    """Per class, each label word's mean piece log-probability, in pure python."""
    m = max(row)
    denom = m + math.log(sum(math.exp(x - m) for x in row))
    log_probs = [x - denom for x in row]
    return [
        [sum(log_probs[i] for i in word_ids) / len(word_ids) for word_ids in
         verbalizer.label_word_ids[name]]
        for name in verbalizer.classes
    ]


def _naive_project(rows, verbalizer: Verbalizer, aggregation: str = "mean", priors=None):
    """Loop-based reference projection in pure python.

    ``priors`` (per mask position, per class, per label word) are
    subtracted from the word scores of their position before
    aggregation, as calibration does.
    """
    totals = [0.0] * len(verbalizer.classes)
    for position, row in enumerate(rows):
        per_class = _naive_word_scores(row, verbalizer)
        for index in range(len(verbalizer.classes)):
            word_scores = per_class[index]
            if priors is not None:
                word_scores = [w - p for w, p in zip(word_scores, priors[position][index])]
            if aggregation == "mean":
                value = sum(word_scores) / len(word_scores)
            elif aggregation == "max":
                value = max(word_scores)
            else:
                value = word_scores[0]
            totals[index] += value
    best = max(range(len(totals)), key=lambda i: (totals[i], -i))
    return totals, best


def _random_verbalizer(rng: random.Random, vocab_size: int, n_classes: int) -> Verbalizer:
    classes = tuple(f"c{i}" for i in range(n_classes))
    words = {}
    word_ids = {}
    for name in classes:
        n_words = rng.randrange(1, 4)
        ids = tuple(
            tuple(rng.randrange(vocab_size) for _ in range(rng.randrange(1, 3)))
            for _ in range(n_words)
        )
        word_ids[name] = ids
        words[name] = tuple("-".join(map(str, seq)) for seq in ids)
    return Verbalizer(classes=classes, label_words=words, label_word_ids=word_ids)


def test_criterion_5_verbalizer_math():
    rng = random.Random(31337)

    # shift invariance: adding a constant to a logits row changes nothing
    worst = 0.0
    for _ in range(1000):
        vocab_size = rng.randrange(5, 21)
        verb = _random_verbalizer(rng, vocab_size, rng.randrange(1, 4))
        row = [rng.uniform(-5, 5) for _ in range(vocab_size)]
        shift = rng.uniform(-100, 100)
        base = project([row], verb)
        moved = project([[x + shift for x in row]], verb)
        worst = max(
            worst, max(abs(a - b) for a, b in zip(base.scores, moved.scores))
        )
        assert moved.predicted_class == base.predicted_class
    assert worst < 1e-9, f"shift changed scores by {worst}"

    # brute-force equivalence on small instances
    for _ in range(200):
        vocab_size = rng.randrange(4, 21)
        verb = _random_verbalizer(rng, vocab_size, rng.randrange(1, 4))
        n_masks = rng.randrange(1, 3)
        rows = [[rng.uniform(-4, 4) for _ in range(vocab_size)] for _ in range(n_masks)]
        aggregation = rng.choice(["mean", "max", "first"])
        lib = project(
            rows,
            verb,
            aggregation={"mean": "mean_log_prob", "max": "max", "first": "first"}[
                aggregation
            ],
        )
        want_scores, want_best = _naive_project(rows, verb, aggregation)
        assert lib.predicted_class == want_best
        for got, want in zip(lib.scores, want_scores):
            assert abs(got - want) < 1e-9

    # uniform priors never change the argmax
    for _ in range(200):
        vocab_size = rng.randrange(4, 21)
        verb = _random_verbalizer(rng, vocab_size, rng.randrange(1, 4))
        flat = [[rng.uniform(-1, -1)] * vocab_size]
        calibration = verb.word_scores(verb.check_rows(flat))
        row = [rng.uniform(-4, 4) for _ in range(vocab_size)]
        raw = project([row], verb)
        adjusted = project([row], verb, calibration=calibration)
        assert adjusted.predicted_class == raw.predicted_class
    _ok(5, "shift invariance, brute-force equivalence, calibration argmax")


_AGGREGATION_NAMES = {"mean": "mean_log_prob", "max": "max", "first": "first"}


@st.composite
def _verbalizer_case(draw):
    """A random verbalizer whose classes have uneven word and piece counts,
    one of them with at least 8 label words, plus logits rows for it."""
    vocab_size = draw(st.integers(2, 40))
    n_classes = draw(st.integers(1, 4))
    big = draw(st.integers(0, n_classes - 1))
    word_ids = {}
    for c in range(n_classes):
        n_words = draw(st.integers(8, 11) if c == big else st.integers(1, 7))
        word = st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=3).map(tuple)
        word_ids[f"c{c}"] = tuple(draw(st.lists(word, min_size=n_words, max_size=n_words)))
    verb = Verbalizer(
        classes=tuple(word_ids),
        label_words={k: tuple(map(str, v)) for k, v in word_ids.items()},
        label_word_ids=word_ids,
    )
    logit = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
    n_masks = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(logit, min_size=vocab_size, max_size=vocab_size),
                         min_size=n_masks, max_size=n_masks))
    prior_rows = draw(st.lists(st.lists(logit, min_size=vocab_size, max_size=vocab_size),
                               min_size=n_masks, max_size=n_masks))
    return verb, rows, prior_rows


@pytest.mark.parametrize("calibrated", [False, True])
@pytest.mark.parametrize("aggregation", ["mean", "max", "first"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_verbalizer_case())
def test_dense_kernel_matches_naive_projection(aggregation, calibrated, case):
    verb, rows, prior_rows = case
    priors = None
    calibration = None
    if calibrated:
        calibration = verb.word_scores(verb.check_rows(prior_rows))
        priors = [_naive_word_scores(row, verb) for row in prior_rows]
        # one (M, C, W) array: the real words' priors, then 0.0 at padding words
        assert calibration.shape == (len(priors), *verb.word_mask.shape)
        for got_position, want_position in zip(calibration, priors):
            assert len(got_position) == len(want_position)
            for got, want in zip(got_position, want_position):
                assert max(abs(a - b) for a, b in zip(got[: len(want)], want)) < 1e-9
                assert all(value == 0.0 for value in got[len(want):])
    lib = project(rows, verb, aggregation=_AGGREGATION_NAMES[aggregation],
                  calibration=calibration)
    want_scores, _ = _naive_project(rows, verb, aggregation, priors)
    assert max(abs(a - b) for a, b in zip(lib.scores, want_scores)) < 1e-9


# --- criterion 6: sampler determinism --------------------------------------------


def _run_sample_cli(fixtures_dir: Path, out: Path) -> bytes:
    subprocess.run(
        [
            sys.executable,
            "-m",
            "promptpipe",
            "sample",
            "--dataset",
            str(fixtures_dir / "topics.jsonl"),
            "--k",
            "2",
            "--seed",
            "7",
            "--output",
            str(out),
        ],
        check=True,
    )
    return out.read_bytes()


def test_criterion_6_sampler_determinism(fixtures_dir, tmp_path):
    golden = (fixtures_dir / "golden" / "fewshot_topics_k2_seed7.jsonl").read_bytes()
    outputs = []
    for run in range(6):
        out = tmp_path / f"sample_{run}.jsonl"
        outputs.append(_run_sample_cli(fixtures_dir, out))
    assert all(result == golden for result in outputs)
    _ok(6, "bit-identical sample over 6 CLI runs")


# --- criterion 7: end-to-end golden run ------------------------------------------


def test_criterion_7_golden_run(fixtures_dir, tmp_path):
    golden_path = fixtures_dir / "golden" / "run_sentiment.jsonl"
    golden = golden_path.read_bytes()

    def run_once(out_name: str) -> bytes:
        out = tmp_path / out_name
        cfg = PipelineConfig.from_file(
            fixtures_dir / "run_sentiment.yaml", {"output": str(out)}
        )
        report = run_pipeline(cfg)
        assert report.accuracy == 0.6
        assert report.n_examples == report.n_labeled == 5
        return out.read_bytes()

    first = run_once("a.jsonl")
    assert first == golden, "pipeline output differs from the checked-in golden"
    assert run_once("b.jsonl") == golden, "rerun not byte-identical"

    # the same bytes, and the summary line, through the process entry
    out = tmp_path / "c.jsonl"
    summary = subprocess.run(
        [sys.executable, "-m", "promptpipe", "run", "--config",
         str(fixtures_dir / "run_sentiment.yaml"), "--output", str(out)],
        check=True, capture_output=True,
    ).stdout
    assert out.read_bytes() == golden, "python -m promptpipe run differs from the golden"
    assert summary == b'{"n_examples": 5, "n_labeled": 5, "accuracy": 0.6}\n'

    # independent verification of what is frozen in the golden file: the toy
    # scorer boosts only "great", so with mean aggregation every example
    # scores negative = lp(bad) and positive = mean lp(good, wonderful, great)
    tokens = (fixtures_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    freq = json.loads((fixtures_dir / "word_scores.json").read_text(encoding="utf-8"))
    row = [float(freq.get(t, 0.0)) for t in tokens]
    m = max(row)
    denom = m + math.log(sum(math.exp(x - m) for x in row))
    lp = {t: row[i] - denom for i, t in enumerate(tokens)}
    want_negative = lp["bad"]
    want_positive = (lp["good"] + lp["wonderful"] + lp["great"]) / 3
    records = [json.loads(line) for line in golden.decode("utf-8").splitlines()]
    assert [r["guid"] for r in records] == ["s1", "s2", "s3", "s4", "s5"]
    assert records[0]["wrapped_text"] == EINSTEIN + " It is <mask>"
    for record in records:
        assert record["predicted_class"] == "positive"
        assert abs(record["class_scores"][0] - want_negative) < 1e-12
        assert abs(record["class_scores"][1] - want_positive) < 1e-12
    _ok(7, "golden bytes reproduced (run, rerun, CLI process) and oracle-checked")


# --- criterion 8: throughput -------------------------------------------------------


def test_criterion_8_throughput(fixtures_dir, wordpiece):
    ast = parse_template('{"meta": "text"} It is {"mask"}')
    plan = build_soft_plan(ast, wordpiece)
    rng = random.Random(8)
    words = ["brilliant", "boring", "movie", "film", "great", "the", "of", "a",
             "loved", "hated", "story", "plot", "time", "this", "I", "was"]
    examples = [
        InputExample(
            guid=f"p{i}",
            meta={"text": " ".join(rng.choice(words) for _ in range(20))},
        )
        for i in range(6000)
    ]
    best = 0.0
    for _ in range(2):
        started = time.perf_counter()
        for example in examples:
            wrapped = wrap_example(ast, example, plan)
            encode_wrapped(wrapped, wordpiece, max_len=128)
        elapsed = time.perf_counter() - started
        best = max(best, len(examples) / elapsed)
    assert best >= 5000, f"wrap+encode rate {best:.0f}/s is below 5000/s"
    _ok(8, f"wrap+encode at {best:.0f} examples/s (max_len 128)")
