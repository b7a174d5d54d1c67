from __future__ import annotations

import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    Aggregation,
    ClassScores,
    Verbalizer,
    Vocab,
    build_tokenizer,
    build_verbalizer,
    load_verbalizer,
    project,
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


def _priors(verb, rows):
    """The label-word scores of content-free logits ``rows``: the priors a
    calibrated run subtracts."""
    return verb.word_scores(verb.check_rows(rows))


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


@pytest.mark.parametrize("words", ["god", 5, None])
def test_a_class_must_map_to_a_list_of_words(words):
    # each letter of "god" is a token, so a string would iterate as three words
    tok = build_tokenizer("whitespace", Vocab.from_tokens(SPECIALS + ["g", "o", "d", "bad"]))
    with pytest.raises(VerbalizerError, match="^class 'pos' must map to a list of words$"):
        build_verbalizer({"pos": words, "neg": ["bad"]}, tok)
    assert build_verbalizer({"pos": ("g", "o"), "neg": ["bad"]}, tok).label_words["pos"] == (
        "g", "o")


@pytest.mark.parametrize("name", [5, None, ("pos",), b"pos"])
def test_a_class_name_must_be_a_string(name):
    tok = build_tokenizer("whitespace", Vocab.from_tokens(SPECIALS + ["good", "bad"]))
    with pytest.raises(VerbalizerError) as failure:
        build_verbalizer({"neg": ["bad"], name: ["good"]}, tok)
    assert str(failure.value) == f"class name must be a string, got {name!r}"


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
    # each position scored on its own, with its own priors, then summed left
    # to right; a caller who wants a word set per position sums the same way
    vocab, tok, verb = toy
    rng = random.Random(5)
    for aggregation in Aggregation:
        for n_masks in (1, 2, 3, 4):
            for _ in range(10):
                rows = [[rng.uniform(-9, 9) for _ in range(len(vocab))] for _ in range(n_masks)]
                prior_rows = [[rng.uniform(-9, 9) for _ in range(len(vocab))]
                              for _ in range(n_masks)]
                for cal in (None, _priors(verb, prior_rows)):
                    per_position = [
                        project([row], verb, aggregation, None if cal is None else cal[p:p + 1])
                        for p, row in enumerate(rows)]
                    want = list(per_position[0].scores)
                    for one in per_position[1:]:
                        want = [a + b for a, b in zip(want, one.scores)]
                    assert list(project(rows, verb, aggregation, cal).scores) == want


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
    with pytest.raises(ConfigError, match=f"^unknown aggregation {name!r}; expected one of "
                                          "mean_log_prob, max, first$"):
        verb.aggregate(np.zeros((1, *verb.word_mask.shape)), name)
    assert Aggregation.parse("MAX") is Aggregation.MAX


def test_aggregate_takes_an_aggregation_name(toy):
    # a name, not a member, used to fall through to the first word's score
    vocab, tok, verb = toy
    row = _row(vocab, {"good": 1.0, "great": 2.0})
    words = verb.word_scores(np.array([row]))
    want = verb.aggregate(words, Aggregation.MAX)
    assert want.tolist() != verb.aggregate(words, Aggregation.FIRST).tolist()
    for name in ("max", "MAX", " Max "):
        assert verb.aggregate(words, name).tolist() == want.tolist()


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
    # numpy cannot read these as an array of numbers
    with pytest.raises(DimensionMismatch, match="rows of numbers"):
        project("abc", verb)
    with pytest.raises(DimensionMismatch, match="rows of numbers"):
        project([[0.0] * len(vocab), [0.0]], verb)  # ragged rows
    with pytest.raises(DimensionMismatch, match="rows of numbers"):
        project([[10**400] * len(vocab)], verb)
    with pytest.raises(DimensionMismatch, match="rows of numbers"):
        _priors(verb, "abc")
    with pytest.raises(DimensionMismatch, match="calibration must be"):
        project([[0.0] * len(vocab)], verb, calibration=[[[10**400, 0.0, 0.0]] * 2])


@pytest.mark.parametrize("classes, scores", [
    (("a",), (1.0, 2.0)),
    (("a", "b"), (1.0,)),
    ((), ()),
])
def test_class_scores_need_one_score_per_class(classes, scores):
    # before, ClassScores(("a",), (1.0, 2.0)).predicted_label raised a bare IndexError
    with pytest.raises(DimensionMismatch, match="need one per class"):
        ClassScores(classes, scores)


@pytest.mark.parametrize("classes", ["ab", ("a", 5), [None, "b"], (b"a", "b")])
def test_class_scores_classes_must_be_strings(classes):
    # before, ClassScores("ab", (1.0, 2.0)).predicted_label was "b"
    with pytest.raises(DimensionMismatch, match="^classes must be a sequence of strings, got "):
        ClassScores(classes, (1.0, 2.0))


@pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_class_scores_must_be_finite(score):
    with pytest.raises(NonFiniteValue, match="is not finite"):
        ClassScores(("a", "b"), (0.0, score))


@pytest.mark.parametrize("score", [True, np.bool_(False), "1.0", None, 1j, [1.0]])
def test_class_scores_must_be_real_numbers(score):
    with pytest.raises(DimensionMismatch, match="must be a real number"):
        ClassScores(("a", "b"), (0.0, score))


def test_class_scores_take_any_finite_real_number():
    scores = ClassScores(("a", "b", "c"), (1, np.float32(2.5), -0.0))
    assert scores.predicted_label == "b"


def test_verbalizers_compare_by_their_words_and_ids(toy):
    # the derived arrays take no part: the generated __eq__ would compare them
    # element-wise, and they follow from the three fields anyway
    _, tok, verb = toy
    same = build_verbalizer({"negative": ["bad"], "positive": ["good", "wonderful", "great"]}, tok)
    assert same is not verb and same.piece_ids is not verb.piece_ids
    assert (same == verb) is True
    rebuilt = Verbalizer(verb.classes, dict(verb.label_words), dict(verb.label_word_ids))
    assert (rebuilt == verb) is True
    assert rebuilt.piece_ids.tobytes() == verb.piece_ids.tobytes()
    reordered = build_verbalizer({"negative": ["bad"], "positive": ["great", "good", "wonderful"]},
                                 tok)
    assert (reordered == verb) is False
    assert (build_verbalizer({"negative": ["bad"], "positive": ["good"]}, tok) == verb) is False
    assert "piece_ids" not in repr(verb)


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


# --- calibration ----------------------------------------------------------------


def test_uniform_prior_preserves_argmax(toy):
    vocab, tok, verb = toy
    calibration = _priors(verb, [[0.0] * len(vocab)])
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
    calibration = _priors(verb, [prior_row])
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
        calibration = _priors(verb, [prior_row])
        row = [rng.uniform(-2, 2) for _ in range(len(vocab))]
        assert project([row], verb, calibration=calibration).predicted_class == 0


def test_calibration_shape_mismatch_rejected(toy):
    vocab, tok, verb = toy
    with pytest.raises(DimensionMismatch):
        project([[0.0] * len(vocab)], verb, calibration=[[0.0], [0.0]])
    calibration = _priors(verb, [[0.0] * len(vocab)] * 2)
    with pytest.raises(DimensionMismatch):
        project([[0.0] * len(vocab)] * 3, verb, calibration=calibration)


def test_content_free_priors_are_padded_word_scores(toy):
    vocab, tok, verb = toy
    rng = random.Random(8)
    rows = [[rng.uniform(-4, 4) for _ in range(len(vocab))] for _ in range(2)]
    calibration = _priors(verb, rows)
    assert calibration.shape == (2, *verb.word_mask.shape)
    assert verb.check_prior(calibration, 2).tobytes() == calibration.tobytes()
    # "negative" has one label word of three: its padding words are 0
    assert (calibration[:, 0, 1:] == 0.0).all()


def test_calibration_padding_entries_are_ignored(toy):
    vocab, tok, verb = toy
    row = [float(i) for i in range(len(vocab))]
    calibration = _priors(verb, [row])
    for junk in (5.0, math.nan, math.inf):
        dirty = calibration.copy()
        dirty[:, ~verb.word_mask] = junk
        for aggregation in ("mean_log_prob", "max", "first"):
            want = project([row], verb, aggregation=aggregation, calibration=calibration)
            assert project([row], verb, aggregation=aggregation, calibration=dirty) == want
        assert verb.check_prior(dirty, 1).tobytes() == calibration.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_prior_rejected(toy, bad):
    vocab, tok, verb = toy
    row = [0.0] * len(vocab)
    calibration = _priors(verb, [row])
    calibration[0, 1, 2] = bad
    with pytest.raises(NonFiniteValue):
        project([row], verb, calibration=calibration)
    with pytest.raises(NonFiniteValue):
        verb.check_prior(calibration, 1)


@pytest.mark.parametrize(
    "make_row",
    [
        lambda n: ["1"] * n,
        lambda n: [True] * n,
        lambda n: [None] * n,
        lambda n: [object()] * n,
        lambda n: np.ones(n, dtype=bool),
        lambda n: np.full(n, "1"),
        lambda n: [0.0] * (n - 1) + [None],
        lambda n: [0.0] * (n - 1) + [True],
    ],
    ids=["digit strings", "true", "null", "object", "bool array", "str array", "null last",
         "true last"],
)
def test_non_number_logits_rejected(toy, make_row):
    # float64 would read these as 1.0 or NaN
    vocab, tok, verb = toy
    row = make_row(len(vocab))
    with pytest.raises(DimensionMismatch, match="logits must be rows of numbers"):
        project([row], verb)
    with pytest.raises(DimensionMismatch, match="logits must be rows of numbers"):
        _priors(verb, [row])


# a value that is not a number: a boolean, a numeric string, null or a list
NON_NUMBERS = st.one_of(
    st.booleans(),
    st.floats(-10, 10).map(repr),
    st.none(),
    st.lists(st.floats(-10, 10), max_size=2),
)


def _json_tier_records(values, width):
    """The records of a one-line logits file of ``values``; mask_logits come
    first, so the JSON decoder reads the line."""
    from promptpipe.logits import read_logits_records

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "logits.jsonl"
        path.write_text(json.dumps({"mask_logits": [values], "guid": "g"}) + "\n")
        return dict(read_logits_records(path, width))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(row=st.lists(st.floats(-10, 10), min_size=9, max_size=9), data=st.data())
def test_one_definition_of_a_number(row, data):
    """A logits file's JSON tier, project, check_rows, a prior and a frequency
    dict each accept a row of numbers, and each rejects it with one value that
    is not a number at any index, a prior's padding words included."""
    from promptpipe.runner import ToyScorer

    vocab = Vocab.from_tokens(SPECIALS + WORDS)
    # three classes of at most three words: a (1, 3, 3) prior holds a whole row
    verb = build_verbalizer(
        {"negative": ["bad"], "positive": ["good", "wonderful", "great"], "mixed": ["bad", "good"]},
        build_tokenizer("whitespace", vocab))

    def prior(values):
        return np.array(values, dtype=object).reshape(1, 3, 3).tolist()

    assert _json_tier_records(row, len(vocab))["g"].tobytes() == np.array([row]).tobytes()
    project([row], verb)
    _priors(verb, [row])
    project([row], verb, calibration=prior(row))
    ToyScorer(dict(zip(vocab.tokens, row)), vocab)

    bad = list(row)
    bad[data.draw(st.integers(0, len(row) - 1), label="index")] = data.draw(NON_NUMBERS)
    with pytest.raises(ConfigError, match="logits.jsonl:1: "):
        _json_tier_records(bad, len(vocab))
    with pytest.raises(DimensionMismatch, match="^logits must be rows of numbers: "):
        project([bad], verb)
    with pytest.raises(DimensionMismatch, match="^logits must be rows of numbers: "):
        _priors(verb, [bad])
    with pytest.raises(DimensionMismatch, match=r"^calibration must be a \(1, 3, 3\) array: "):
        project([row], verb, calibration=prior(bad))
    with pytest.raises(ConfigError, match="^token .* has non-numeric frequency "):
        ToyScorer(dict(zip(vocab.tokens, bad)), vocab)


def test_int_logits_beyond_int64_are_numbers(toy):
    vocab, tok, verb = toy
    row = [2**70] + [0] * (len(vocab) - 1)
    assert project([row], verb) == project([[float(2**70)] + [0.0] * (len(vocab) - 1)], verb)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_logits_rejected(toy, bad):
    # check_rows gates project and the content-free rows of a prior
    vocab, tok, verb = toy
    row = _row(vocab, {"good": bad})
    with pytest.raises(NonFiniteValue, match="NaN or an infinity"):
        project([row], verb)
    with pytest.raises(NonFiniteValue, match="NaN or an infinity"):
        _priors(verb, [row])


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
    if "bad" in values:
        # taken as content-free rows, its -inf word score is no prior
        with pytest.raises(NonFiniteValue, match="non-finite prior"):
            verb.check_prior(_priors(verb, [row]), 1)


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
    calibration = _priors(verb, rows)
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
    verb = Verbalizer(classes, {c: ("w",) * len(ids[c]) for c in classes}, ids)
    shape = (n_masks, *verb.word_mask.shape)
    rng = np.random.default_rng(seed)
    # padding words score 0, as word_scores gives them
    words = np.where(verb.word_mask, rng.uniform(-30, 0, (n, *shape)), 0.0)
    prior = None
    if calibrated:
        prior = verb.check_prior(rng.uniform(-30, 0, shape), n_masks)
    together = verb.aggregate(words, aggregation, prior)
    assert together.shape == (n, len(classes))
    for i in range(n):
        alone = verb.aggregate(words[i], aggregation, prior)
        assert together[i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("aggregation", list(Aggregation))
@pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2, 2), (2, 2), (1, 2, 3), (1, 3, 2)])
def test_aggregate_rejects_no_mask_position_or_another_shape(aggregation, shape):
    # a template without a mask gives (N, 0, C, W) word scores: no class score to sum
    ids = {"a": ((0,), (1,)), "b": ((2,),)}
    verb = Verbalizer(("a", "b"), {"a": ("x", "y"), "b": ("z",)}, ids)
    assert verb.word_mask.shape == (2, 2)
    with pytest.raises(DimensionMismatch, match=r"word scores have shape .*M >= 1"):
        verb.aggregate(np.zeros(shape), aggregation)


@pytest.mark.parametrize("aggregation", list(Aggregation))
@pytest.mark.parametrize("prior_shape", [(3, 2, 2), (2, 2), (1, 1, 2, 2), (1, 2, 3)])
def test_aggregate_rejects_a_prior_of_another_shape(aggregation, prior_shape):
    # a prior for another mask count used to broadcast over the word scores
    ids = {"a": ((0,), (1,)), "b": ((2,),)}
    verb = Verbalizer(("a", "b"), {"a": ("x", "y"), "b": ("z",)}, ids)
    with pytest.raises(DimensionMismatch, match=r"prior has shape .*expected \(1, 2, 2\)"):
        verb.aggregate(np.zeros((4, 1, 2, 2)), aggregation, np.zeros(prior_shape))
    assert verb.aggregate(np.zeros((4, 1, 2, 2)), aggregation, np.zeros((1, 2, 2))).shape == (4, 2)


# --- a word set per mask position ---------------------------------------------
# One verbalizer serves every mask position; a caller who wants a word set per
# position projects each position on its own and sums the scores left to right.


def _log_softmax(row):
    c = math.log(sum(math.exp(x) for x in row))
    return [x - c for x in row]


def test_per_position_verbalizers_sum_and_match_single(toy):
    vocab, tok, verb = toy
    rng = random.Random(17)
    rows = [[rng.uniform(-2, 2) for _ in range(len(vocab))] for _ in range(2)]
    same = [project([row], verb).scores for row in rows]
    assert [a + b for a, b in zip(*same)] == list(project(rows, verb).scores)

    other = build_verbalizer({"negative": ["bad", "good"], "positive": ["great"]}, tok)
    assert other.classes == verb.classes
    mixed = [a + b for a, b in zip(project([rows[0]], verb).scores,
                                   project([rows[1]], other).scores)]
    lp = [_log_softmax(row) for row in rows]
    ids = vocab.ids
    want = [
        lp[0][ids["bad"]] + (lp[1][ids["bad"]] + lp[1][ids["good"]]) / 2,
        (lp[0][ids["good"]] + lp[0][ids["wonderful"]] + lp[0][ids["great"]]) / 3
        + lp[1][ids["great"]],
    ]
    assert mixed == pytest.approx(want, abs=1e-12)


def test_per_position_calibration_matches_single_verbalizer(toy):
    vocab, tok, verb = toy
    rng = random.Random(5)
    rows = [[rng.uniform(-2, 2) for _ in range(len(vocab))] for _ in range(2)]
    prior_rows = [[rng.uniform(-2, 2) for _ in range(len(vocab))] for _ in range(2)]
    calibration = _priors(verb, prior_rows)
    assert calibration.shape == (2, 2, 3)
    per_position = [project([row], verb, calibration=calibration[p:p + 1]).scores
                    for p, row in enumerate(rows)]
    got = [a + b for a, b in zip(*per_position)]
    assert got == list(project(rows, verb, calibration=calibration).scores)
    # each position's priors are that position's own (1, C, W) slice
    for p, row in enumerate(rows):
        own = _priors(verb, [prior_rows[p]])
        assert own.tobytes() == calibration[p:p + 1].tobytes()


def test_check_prior_takes_only_the_per_position_form(toy):
    # one position's (C, W) priors are not an (M, C, W) array with M = 1
    vocab, tok, verb = toy
    calibration = _priors(verb, [[0.0] * len(vocab)])
    assert verb.check_prior(calibration, 1).shape == (1, 2, 3)
    with pytest.raises(DimensionMismatch, match=r"^calibration has shape \(2, 3\), "
                                                r"expected \(1, 2, 3\)$"):
        verb.check_prior(calibration[0], 1)
    with pytest.raises(DimensionMismatch):
        project([[0.0] * len(vocab)], verb, calibration=calibration[0])
