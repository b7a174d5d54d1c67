from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    Aggregation,
    Verbalizer,
    Vocab,
    build_tokenizer,
    build_verbalizer,
    calibrate,
    load_verbalizer,
    project,
    project_per_position,
)
from promptpipe.errors import (
    ConfigError,
    DimensionMismatch,
    DuplicateClass,
    EmptyClass,
    NonFiniteValue,
    UnreadableFile,
    VerbalizerError,
)

SPECIALS = ["[PAD]", "[UNK]", "[MASK]", "[CLS]", "[SEP]"]
WORDS = ["bad", "good", "wonderful", "great"]


@pytest.fixture()
def toy():
    vocab = Vocab.from_tokens(SPECIALS + WORDS)
    tok = build_tokenizer("whitespace", vocab)
    verb = build_verbalizer(
        {"negative": ["bad"], "positive": ["good", "wonderful", "great"]}, tok
    )
    return vocab, tok, verb


def _row(vocab, values: dict[str, float]) -> list[float]:
    row = [0.0] * len(vocab)
    for word, value in values.items():
        row[vocab.ids[word]] = value
    return row


# --- loading ------------------------------------------------------------------


def test_load_verbalizer_file(fixtures_dir, wordpiece):
    verb = load_verbalizer(fixtures_dir / "verbalizer.json", wordpiece)
    assert verb.classes == ("negative", "positive")
    assert len(verb.label_words["negative"]) == 1
    assert len(verb.label_words["positive"]) == 3


def test_empty_class_rejected(tmp_path, wordpiece):
    path = tmp_path / "v.json"
    path.write_text('{"positive": []}', encoding="utf-8")
    with pytest.raises(EmptyClass):
        load_verbalizer(path, wordpiece)


def test_single_class_file_loads(tmp_path, wordpiece):
    path = tmp_path / "v.json"
    path.write_text('{"a": ["good"]}', encoding="utf-8")
    verb = load_verbalizer(path, wordpiece)
    assert verb.classes == ("a",)


def test_duplicate_class_rejected(tmp_path, wordpiece):
    path = tmp_path / "v.json"
    path.write_text('{"a": ["good"], "a": ["bad"]}', encoding="utf-8")
    with pytest.raises(DuplicateClass):
        load_verbalizer(path, wordpiece)


def test_unreadable_file(tmp_path, wordpiece):
    with pytest.raises(UnreadableFile):
        load_verbalizer(tmp_path / "missing.json", wordpiece)
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(UnreadableFile):
        load_verbalizer(bad, wordpiece)


def test_word_must_tokenize():
    vocab = Vocab.from_tokens(SPECIALS + ["x"])
    tok = build_tokenizer("whitespace", vocab)
    with pytest.raises(VerbalizerError):
        build_verbalizer({"a": [""]}, tok)


@pytest.mark.parametrize("kind", ["whitespace", "wordpiece"])
@pytest.mark.parametrize("word", ["zebra", "great zebra", "[UNK]"])
def test_label_word_mapping_to_unk_is_rejected(fixtures_dir, kind, word):
    vocab = Vocab.from_file(fixtures_dir / "vocab.txt")
    tok = build_tokenizer(kind, vocab)
    with pytest.raises(VerbalizerError) as failure:
        build_verbalizer({"negative": ["bad"], "positive": ["good", word]}, tok)
    assert "'positive'" in str(failure.value) and repr(word) in str(failure.value)


# --- projection ---------------------------------------------------------------


def test_projection_mean_log_prob_example(toy):
    # raw logits put bad/good/wonderful/great at -2.0/-1.0/-1.5/-0.5; after
    # log-softmax every value shifts by the same log-partition c, so
    # negative = -2 - c and positive = mean(-1, -1.5, -0.5) - c = -1 - c.
    vocab, tok, verb = toy
    row = _row(vocab, {"bad": -2.0, "good": -1.0, "wonderful": -1.5, "great": -0.5})
    c = math.log(sum(math.exp(x) for x in row))
    scores = project([row], verb)
    assert scores.scores[0] == pytest.approx(-2.0 - c, abs=1e-12)
    assert scores.scores[1] == pytest.approx(-1.0 - c, abs=1e-12)
    assert scores.scores[1] - scores.scores[0] == pytest.approx(1.0, abs=1e-12)
    assert scores.predicted_label == "positive"


def test_projection_uniform_logits_ties_to_first_class(toy):
    vocab, tok, verb = toy
    scores = project([[0.0] * len(vocab)], verb)
    assert scores.scores[0] == pytest.approx(scores.scores[1], abs=1e-12)
    assert scores.predicted_class == 0


def test_projection_sums_across_mask_positions(toy):
    vocab, tok, verb = toy
    row = _row(vocab, {"bad": 1.0, "great": 2.0, "good": 0.5})
    single = project([row], verb)
    double = project([row, row], verb)
    for one, two in zip(single.scores, double.scores):
        assert two == pytest.approx(2 * one, abs=1e-12)
    assert double.predicted_class == single.predicted_class


def test_projection_sums_positions_left_to_right_exactly(toy):
    vocab, tok, verb = toy
    rng = random.Random(5)
    for _ in range(50):
        rows = [[rng.uniform(-9, 9) for _ in range(len(vocab))] for _ in range(4)]
        per_row = [project([row], verb).scores for row in rows]
        want = [((a + b) + c) + d for a, b, c, d in zip(*per_row)]
        assert list(project(rows, verb).scores) == want


def test_projection_aggregations(toy):
    vocab, tok, verb = toy
    row = _row(vocab, {"good": 3.0, "wonderful": 1.0, "great": -1.0})
    lp = np.array(row) - math.log(sum(math.exp(x) for x in row))
    by_word = [lp[vocab.ids[w]] for w in ("good", "wonderful", "great")]
    mean = project([row], verb, aggregation=Aggregation.MEAN_LOG_PROB)
    Mx = project([row], verb, aggregation="max")
    first = project([row], verb, aggregation=Aggregation.FIRST)
    assert mean.scores[1] == pytest.approx(sum(by_word) / 3, abs=1e-12)
    assert Mx.scores[1] == pytest.approx(max(by_word), abs=1e-12)
    assert first.scores[1] == pytest.approx(by_word[0], abs=1e-12)


@pytest.mark.parametrize("name", ["bogus", "", "mean"])
def test_unknown_aggregation_is_a_config_error(toy, name):
    _, _, verb = toy
    row = [0.0] * 9
    with pytest.raises(ConfigError, match="mean_log_prob, max, first"):
        project([row], verb, aggregation=name)
    with pytest.raises(ConfigError, match="mean_log_prob, max, first"):
        project_per_position([row], [verb], aggregation=name)
    assert Aggregation.parse("MAX") is Aggregation.MAX


def test_projection_multi_subword_words_average(fixtures_dir, wordpiece, vocab):
    # "greatest" tokenizes to two pieces; its score is the mean of both
    verb = build_verbalizer({"a": ["greatest"], "b": ["bad"]}, wordpiece)
    row = [0.0] * len(vocab)
    row[vocab.ids["great"]] = 2.0
    row[vocab.ids["##est"]] = 1.0
    c = math.log(sum(math.exp(x) for x in row))
    scores = project([row], verb)
    assert scores.scores[0] == pytest.approx((2.0 + 1.0) / 2 - c, abs=1e-12)


def test_projection_dimension_errors(toy):
    vocab, tok, verb = toy
    with pytest.raises(DimensionMismatch):
        project([[0.0, 1.0]], verb)  # row narrower than the label-word ids
    with pytest.raises(DimensionMismatch):
        project(np.zeros((0, len(vocab))), verb)


def test_permuting_label_words_does_not_change_mean_or_max(toy):
    vocab, tok, verb = toy
    permuted = build_verbalizer(
        {"negative": ["bad"], "positive": ["great", "good", "wonderful"]}, tok
    )
    rng = random.Random(5)
    for _ in range(50):
        row = [rng.uniform(-3, 3) for _ in range(len(vocab))]
        for agg in (Aggregation.MEAN_LOG_PROB, Aggregation.MAX):
            a = project([row], verb, aggregation=agg)
            b = project([row], permuted, aggregation=agg)
            assert a.scores == pytest.approx(b.scores, abs=1e-12)


def test_mean_log_prob_lies_within_word_score_bounds(toy):
    vocab, tok, verb = toy
    rng = random.Random(11)
    for _ in range(100):
        row = [rng.uniform(-4, 4) for _ in range(len(vocab))]
        lp = np.array(row) - math.log(sum(math.exp(x) for x in row))
        word_scores = [lp[vocab.ids[w]] for w in ("good", "wonderful", "great")]
        scores = project([row], verb)
        assert min(word_scores) - 1e-12 <= scores.scores[1] <= max(word_scores) + 1e-12


def test_normalized_scores_sum_to_one(toy):
    vocab, tok, verb = toy
    row = _row(vocab, {"bad": 1.0, "good": 2.0})
    normed = project([row], verb).normalized()
    assert sum(math.exp(s) for s in normed.scores) == pytest.approx(1.0, abs=1e-9)


# --- calibration ----------------------------------------------------------------


def test_uniform_prior_preserves_argmax(toy):
    vocab, tok, verb = toy
    flat_scorer = lambda _: [[0.0] * len(vocab)]
    calibration = calibrate(flat_scorer, verb, content_free_input=None)
    rng = random.Random(21)
    for _ in range(50):
        row = [rng.uniform(-3, 3) for _ in range(len(vocab))]
        raw = project([row], verb)
        adjusted = project([row], verb, calibration=calibration)
        assert adjusted.predicted_class == raw.predicted_class


def test_prior_favoring_great_breaks_tie_toward_negative(toy):
    # content-free input puts "great" one nat above every other token, so the
    # calibrated positive mean drops by 1/3 nat relative to negative
    vocab, tok, verb = toy
    prior_row = _row(vocab, {"great": 1.0})
    calibration = calibrate(lambda _: [prior_row], verb, content_free_input=None)
    uniform = [0.0] * len(vocab)
    raw = project([uniform], verb)
    assert raw.scores[0] == pytest.approx(raw.scores[1], abs=1e-12)
    adjusted = project([uniform], verb, calibration=calibration)
    assert adjusted.predicted_label == "negative"
    assert adjusted.scores[0] - adjusted.scores[1] == pytest.approx(1 / 3, abs=1e-9)


def test_single_class_calibration_cannot_change_prediction(toy):
    vocab, tok, _ = toy
    verb = build_verbalizer({"only": ["good", "great"]}, tok)
    rng = random.Random(3)
    for _ in range(20):
        prior_row = [rng.uniform(-2, 2) for _ in range(len(vocab))]
        calibration = calibrate(lambda _: [prior_row], verb, content_free_input=None)
        row = [rng.uniform(-2, 2) for _ in range(len(vocab))]
        assert project([row], verb, calibration=calibration).predicted_class == 0


def test_calibration_shape_mismatch_rejected(toy):
    vocab, tok, verb = toy
    with pytest.raises(DimensionMismatch):
        project([[0.0] * len(vocab)], verb, calibration=[[0.0], [0.0]])
    calibration = calibrate(lambda _: [[0.0] * len(vocab)] * 2, verb, content_free_input=None)
    with pytest.raises(DimensionMismatch):
        project([[0.0] * len(vocab)] * 3, verb, calibration=calibration)


def test_calibrate_returns_the_padded_word_scores_of_the_rows(toy):
    vocab, tok, verb = toy
    rng = random.Random(8)
    rows = [[rng.uniform(-4, 4) for _ in range(len(vocab))] for _ in range(2)]
    calibration = calibrate(lambda _: rows, verb, content_free_input=None)
    index = verb.dense
    assert calibration.shape == (2, *index.word_mask.shape)
    assert calibration.tobytes() == index.word_scores(np.asarray(rows)).tobytes()
    # "negative" has one label word of three: its padding words are 0
    assert (calibration[:, 0, 1:] == 0.0).all()


def test_calibration_padding_entries_are_ignored(toy):
    vocab, tok, verb = toy
    row = [float(i) for i in range(len(vocab))]
    calibration = calibrate(lambda _: [row], verb, content_free_input=None)
    for junk in (5.0, math.nan, math.inf):
        dirty = calibration.copy()
        dirty[:, ~verb.dense.word_mask] = junk
        for aggregation in ("mean_log_prob", "max", "first"):
            want = project([row], verb, aggregation=aggregation, calibration=calibration)
            assert project([row], verb, aggregation=aggregation, calibration=dirty) == want
        assert project_per_position([row], [verb], calibrations=[dirty[0]]) == \
            project_per_position([row], [verb], calibrations=[calibration[0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_prior_rejected(toy, bad):
    vocab, tok, verb = toy
    row = [0.0] * len(vocab)
    calibration = calibrate(lambda _: [row], verb, content_free_input=None)
    calibration[0, 1, 2] = bad
    with pytest.raises(NonFiniteValue):
        project([row], verb, calibration=calibration)
    with pytest.raises(NonFiniteValue):
        project_per_position([row], [verb], calibrations=[calibration[0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_logits_rejected(toy, bad):
    # check_rows gates project, project_per_position and calibrate
    vocab, tok, verb = toy
    row = _row(vocab, {"good": bad})
    with pytest.raises(NonFiniteValue, match="NaN or an infinity"):
        project([row], verb)
    with pytest.raises(NonFiniteValue, match="NaN or an infinity"):
        project_per_position([row], [verb])
    with pytest.raises(NonFiniteValue, match="NaN or an infinity"):
        calibrate(lambda _: [row], verb, content_free_input=None)


@pytest.mark.parametrize(
    "values, aggregation",
    [
        # every word score is finite, but positive's sum of three is below -1.8e308
        ({"great": 1e308}, "mean_log_prob"),
        # bad's log-probability, about -2e308, is itself beyond the range
        ({"great": 1e308, "bad": -1e308}, "mean_log_prob"),
        ({"great": 1e308, "bad": -1e308}, "max"),
        ({"great": 1e308, "bad": -1e308}, "first"),
    ],
)
def test_finite_logits_beyond_the_float_range_give_an_error_not_a_warning(
    toy, values, aggregation
):
    vocab, tok, verb = toy
    row = _row(vocab, values)
    with pytest.raises(NonFiniteValue, match="beyond the float64 range"):
        project([row], verb, aggregation=aggregation)
    with pytest.raises(NonFiniteValue, match="beyond the float64 range"):
        project_per_position([row], [verb], aggregation=aggregation)
    if "bad" in values:
        with pytest.raises(NonFiniteValue, match="beyond the float64 range"):
            calibrate(lambda _: [row], verb, content_free_input=None)


def test_nested_list_calibration_rejected(toy):
    # the old ragged per-class lists are not an (M, C, W) array
    vocab, tok, verb = toy
    with pytest.raises(DimensionMismatch):
        project([[0.0] * len(vocab)], verb, calibration=[[[0.0], [0.0, 0.0, 0.0]]])


@pytest.mark.parametrize("aggregation", ["mean_log_prob", "max", "first"])
@pytest.mark.parametrize("n_masks", [1, 2, 3])
def test_self_calibrated_content_free_logits_score_zero(toy, n_masks, aggregation):
    # each mask position subtracts its own priors, so the content-free input
    # scored against its own calibration is 0 for every class at any M
    vocab, tok, verb = toy
    rng = random.Random(n_masks)
    rows = [[rng.uniform(-4, 4) for _ in range(len(vocab))] for _ in range(n_masks)]
    calibration = calibrate(lambda _: rows, verb, content_free_input=None)
    assert len(calibration) == n_masks
    scores = project(rows, verb, aggregation=aggregation, calibration=calibration).scores
    assert scores == (0.0, 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    words_per_class=st.lists(st.integers(1, 10), min_size=1, max_size=4),
    n=st.integers(0, 40),
    n_masks=st.integers(1, 3),
    aggregation=st.sampled_from(Aggregation),
    calibrated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_reduces_each_example_on_its_own(
    words_per_class, n, n_masks, aggregation, calibrated, seed
):
    # classes with fewer words are padded; from 8 words a class sum is pairwise
    classes = tuple(f"c{k}" for k in range(len(words_per_class)))
    ids = {c: tuple((w,) for w in range(k)) for c, k in zip(classes, words_per_class)}
    index = Verbalizer(classes, {c: ("w",) * len(ids[c]) for c in classes}, ids).dense
    shape = (n_masks, *index.word_mask.shape)
    rng = np.random.default_rng(seed)
    # padding words score 0, as word_scores gives them
    words = np.where(index.word_mask, rng.uniform(-30, 0, (n, *shape)), 0.0)
    prior = None
    if calibrated:
        prior = index.check_prior(rng.uniform(-30, 0, shape), (n_masks,))
    together = index.aggregate(words, aggregation, prior)
    assert together.shape == (n, len(classes))
    for i in range(n):
        alone = index.aggregate(words[i], aggregation, prior)
        assert together[i].tobytes() == alone.tobytes()


# --- per-position verbalizers ----------------------------------------------------


def test_per_position_verbalizers_sum_and_match_single(toy):
    vocab, tok, verb = toy
    rng = random.Random(17)
    rows = [[rng.uniform(-2, 2) for _ in range(len(vocab))] for _ in range(2)]
    same = project_per_position(rows, [verb, verb])
    assert same.scores == pytest.approx(project(rows, verb).scores, abs=1e-12)

    other = build_verbalizer({"negative": ["bad", "good"], "positive": ["great"]}, tok)
    mixed = project_per_position(rows, [verb, other])
    want = [a + b for a, b in zip(project([rows[0]], verb).scores,
                                  project([rows[1]], other).scores)]
    assert mixed.scores == pytest.approx(want, abs=1e-12)


def test_per_position_verbalizers_require_matching_classes(toy):
    vocab, tok, verb = toy
    renamed = build_verbalizer({"neg": ["bad"], "pos": ["good"]}, tok)
    with pytest.raises(VerbalizerError):
        project_per_position([[0.0] * len(vocab)] * 2, [verb, renamed])
    with pytest.raises(DimensionMismatch):
        project_per_position([[0.0] * len(vocab)], [verb, verb])


def test_per_position_without_verbalizers_rejected(toy):
    vocab, tok, verb = toy
    with pytest.raises(DimensionMismatch, match="no verbalizers"):
        project_per_position([[0.0] * len(vocab)], [])


def test_per_position_calibrations_must_match_verbalizers(toy):
    vocab, tok, verb = toy
    rows = [[0.0] * len(vocab)] * 2
    calibration = calibrate(lambda _: rows, verb, content_free_input=None)
    with pytest.raises(DimensionMismatch, match="1 calibrations for 2 verbalizers"):
        project_per_position(rows, [verb, verb], calibrations=[calibration[0]])
    # a position's (C, W) priors for another verbalizer have the wrong shape
    other = build_verbalizer({"negative": ["bad", "good"], "positive": ["great"]}, tok)
    with pytest.raises(DimensionMismatch):
        project_per_position(rows, [verb, other], calibrations=list(calibration))


def test_per_position_calibration_matches_single_verbalizer(toy):
    vocab, tok, verb = toy
    rng = random.Random(5)
    rows = [[rng.uniform(-2, 2) for _ in range(len(vocab))] for _ in range(2)]
    prior_rows = [[rng.uniform(-2, 2) for _ in range(len(vocab))] for _ in range(2)]
    calibration = calibrate(lambda _: prior_rows, verb, content_free_input=None)
    got = project_per_position(rows, [verb, verb], calibrations=list(calibration))
    assert got.scores == project(rows, verb, calibration=calibration).scores
