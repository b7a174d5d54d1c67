from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promptpipe import (
    ClassScores,
    InputExample,
    PipelineConfig,
    ensemble_scores,
    evaluate_accuracy,
    run_pipeline,
)
from promptpipe.cli import main
from promptpipe.runner import _result_lines
from promptpipe.textfile import write_jsonl
from promptpipe.errors import (
    ClassListMismatch,
    ConfigError,
    DataError,
    DimensionMismatch,
    GuidMismatch,
    NonFiniteValue,
    PipelineStageError,
    PromptPipeError,
)


def scores(*values: float) -> ClassScores:
    return ClassScores(classes=("a", "b"), scores=tuple(values))


# a wrapped text with nothing to escape is copied as is; these sit at the
# edges of that check: a long plain text, it with one character to escape
# last, first or in the middle, and non-ASCII text needing no escape
_LONG_PLAIN = "plain words " * 8333 + "pad!"
_RAW_COPY_EDGES = [
    _LONG_PLAIN,
    _LONG_PLAIN[:-1] + '"',
    "\x1f" + _LONG_PLAIN[1:],
    _LONG_PLAIN[:50_000] + "\\" + _LONG_PLAIN[50_001:],
    "line\u2028sep \u0085nel \x7fdel café 😀",
]


@pytest.mark.parametrize("text", [
    "plain", 'a "quoted" word', "back\\slash", "tab\tnew\nline\rcr\x00nul\x1fus\x7fdel",
    "line\u2028para\u2029sep\x85nel", "café 日本 😀", "", *_RAW_COPY_EDGES,
])
def test_result_lines_are_the_bytes_write_jsonl_writes(tmp_path, text):
    """run formats its lines directly; each must equal write_jsonl's line."""
    records = [{"guid": text or "g", "wrapped_text": text, "predicted_class": text,
                "class_scores": [0.5, -1.25e-300, 3.0]}]
    path = tmp_path / "expected.jsonl"
    write_jsonl(records, path)
    assert "".join(_result_lines(records)).encode("utf-8") == path.read_bytes()


def test_a_lone_surrogate_in_a_wrapped_text_fails_at_the_write(tmp_path):
    """A lone surrogate needs no escape, so the text is copied as is, and
    writing it fails as it does through write_jsonl."""
    from promptpipe.textfile import write_lines

    records = [{"guid": "g", "wrapped_text": "a \ud800 b", "predicted_class": "c",
                "class_scores": [0.5]}]
    with pytest.raises(UnicodeEncodeError):
        write_jsonl(records, tmp_path / "encoder.jsonl")
    with pytest.raises(UnicodeEncodeError):
        write_lines(_result_lines(records), tmp_path / "formatted.jsonl")


# --- ensembling ---------------------------------------------------------------


def test_ensemble_single_template_is_identity():
    single = scores(-1.0, -2.0)
    assert ensemble_scores([single]) == single


def test_ensemble_means_and_tie_breaks_low_index():
    combined = ensemble_scores([scores(-1.0, -2.0), scores(-3.0, -2.0)])
    assert combined.scores == (-2.0, -2.0)
    assert combined.predicted_class == 0


def test_ensemble_of_identical_scores_is_unchanged():
    s = scores(-0.5, -1.5)
    assert ensemble_scores([s, s, s]) == s


def test_ensemble_of_finite_scores_is_finite():
    # the plain mean sums before dividing: -1e308 + -1e308 overflows
    s = scores(-1e308, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ensemble_scores([s, s]) == s


def test_ensemble_rejects_mismatched_classes():
    other = ClassScores(classes=("a", "c"), scores=(-1.0, -2.0))
    with pytest.raises(ClassListMismatch):
        ensemble_scores([scores(-1.0, -2.0), other])


# --- accuracy -------------------------------------------------------------------


def test_accuracy_values():
    golds = [("a", "x"), ("b", "y"), ("c", "x"), ("d", "y")]
    assert evaluate_accuracy(golds, golds) == 1.0
    flipped = [(g, "y" if label == "x" else "x") for g, label in golds]
    assert evaluate_accuracy(flipped, golds) == 0.0
    mixed = golds[:3] + [("d", "x")]
    assert evaluate_accuracy(mixed, golds) == 0.75


def test_accuracy_guid_mismatch():
    with pytest.raises(GuidMismatch):
        evaluate_accuracy([("a", "x")], [("b", "x")])
    with pytest.raises(DataError, match="golds must be non-empty"):
        evaluate_accuracy([], [])


# --- full pipeline ----------------------------------------------------------------


def _config(fixtures_dir, tmp_path, **overrides) -> PipelineConfig:
    merged = {"output": str(tmp_path / "out.jsonl"), **overrides}
    return PipelineConfig.from_file(fixtures_dir / "run_sentiment.yaml", merged)


def test_toy_scorer_run_predicts_positive_everywhere(fixtures_dir, tmp_path):
    cfg = _config(fixtures_dir, tmp_path)
    report = run_pipeline(cfg)
    assert report.n_examples == 5
    assert report.accuracy == pytest.approx(0.6)
    assert all(r["predicted_class"] == "positive" for r in report.results)
    # hand-derived scores: with only "great" boosted by 3.0 nats, the
    # log-partition is log(e^3 + V - 1); negative = -c, positive = 1 - c
    vocab_size = len((fixtures_dir / "vocab.txt").read_text().splitlines())
    c = math.log(math.exp(3.0) + vocab_size - 1)
    for record in report.results:
        assert record["class_scores"][0] == pytest.approx(-c, abs=1e-12)
        assert record["class_scores"][1] == pytest.approx(1.0 - c, abs=1e-12)
    lines = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(l)["guid"] for l in lines] == ["s1", "s2", "s3", "s4", "s5"]


def test_config_takes_path_objects_for_file_fields(fixtures_dir, tmp_path):
    from pathlib import Path

    cfg = _config(fixtures_dir, tmp_path)
    as_paths = PipelineConfig(**{
        **vars(cfg),
        **{name: Path(getattr(cfg, name))
           for name in ("dataset", "vocab", "verbalizer", "frequency_file", "output")},
        "templates": [Path(p) for p in cfg.templates],
    })
    as_paths.validate()
    assert run_pipeline(as_paths).results == run_pipeline(cfg).results


def test_pipeline_composition_matches_manual_stages(fixtures_dir, tmp_path):
    from promptpipe import (
        Vocab,
        build_soft_plan,
        build_tokenizer,
        encode_wrapped,
        load_jsonl,
        load_template_file,
        load_verbalizer,
        project,
        wrap_example,
    )
    from promptpipe.runner import ToyScorer

    cfg = _config(fixtures_dir, tmp_path)
    report = run_pipeline(cfg)

    vocab = Vocab.from_file(cfg.vocab)
    tok = build_tokenizer(cfg.tokenizer_kind, vocab)
    ast = load_template_file(cfg.templates[0])[0]
    plan = build_soft_plan(ast, tok)
    verb = load_verbalizer(cfg.verbalizer, tok)
    scorer = ToyScorer.from_file(cfg.frequency_file, vocab)
    for example, record in zip(load_jsonl(cfg.dataset), report.results):
        wrapped = wrap_example(ast, example, plan)
        enc = encode_wrapped(wrapped, tok, cfg.max_len, cfg.add_special_tokens)
        manual = project(scorer(example.guid, enc), verb, aggregation=cfg.aggregation)
        assert list(manual.scores) == record["class_scores"]


def test_ensembled_duplicate_template_equals_single(fixtures_dir, tmp_path):
    single = run_pipeline(_config(fixtures_dir, tmp_path))
    doubled = run_pipeline(
        _config(
            fixtures_dir,
            tmp_path,
            templates=[
                str(fixtures_dir / "template_sentiment.txt"),
                str(fixtures_dir / "template_sentiment.txt"),
            ],
            output=str(tmp_path / "out2.jsonl"),
        )
    )
    for a, b in zip(single.results, doubled.results):
        assert a["class_scores"] == pytest.approx(b["class_scores"], abs=1e-12)


def test_two_template_ensemble_with_context_free_scorer(fixtures_dir, tmp_path):
    # the toy scorer is context independent, so both templates produce the
    # same class scores and their mean equals either one
    report = run_pipeline(
        _config(
            fixtures_dir,
            tmp_path,
            templates=[
                str(fixtures_dir / "template_sentiment.txt"),
                str(fixtures_dir / "template_sentiment_alt.txt"),
            ],
        )
    )
    single = run_pipeline(
        _config(fixtures_dir, tmp_path, output=str(tmp_path / "out3.jsonl"))
    )
    for a, b in zip(report.results, single.results):
        assert a["class_scores"] == pytest.approx(b["class_scores"], abs=1e-12)
        # wrapped_text reflects the first template
        assert a["wrapped_text"] == b["wrapped_text"]


def test_empty_dataset_runs_cleanly(fixtures_dir, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    report = run_pipeline(_config(fixtures_dir, tmp_path, dataset=str(empty)))
    assert report.n_examples == 0
    assert report.accuracy is None
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""


def test_calibrated_toy_scorer_ties_every_class(fixtures_dir, tmp_path):
    # the toy scorer is context independent, so the content-free prior equals
    # every example's scores and calibration cancels them all
    report = run_pipeline(_config(fixtures_dir, tmp_path, calibrate=True))
    for record in report.results:
        assert record["class_scores"][0] == pytest.approx(
            record["class_scores"][1], abs=1e-12
        )
        assert record["predicted_class"] == "negative"  # tie breaks to class 0


@pytest.mark.parametrize("n_masks", [1, 2, 3])
def test_calibrated_toy_scorer_scores_zero_at_any_mask_count(fixtures_dir, tmp_path, n_masks):
    # every mask position of every example gets the content-free row, and
    # each position subtracts only its own priors
    template = tmp_path / "template.txt"
    template.write_text('{"meta": "text"}' + ' It is {"mask"}' * n_masks + "\n")
    report = run_pipeline(_config(fixtures_dir, tmp_path, calibrate=True,
                                  templates=[str(template)]))
    assert report.n_examples == 5
    for record in report.results:
        assert record["class_scores"] == [0.0, 0.0]


def test_logits_file_scorer_and_missing_guid(fixtures_dir, tmp_path):
    vocab_size = len((fixtures_dir / "vocab.txt").read_text().splitlines())
    lines = (fixtures_dir / "vocab.txt").read_text().splitlines()
    bad_row = [0.0] * vocab_size
    bad_row[lines.index("bad")] = 4.0
    logits_path = tmp_path / "logits.jsonl"
    with open(logits_path, "w", encoding="utf-8") as handle:
        for guid in ("s1", "s2", "s3", "s4"):  # s5 intentionally missing
            handle.write(json.dumps({"guid": guid, "mask_logits": [bad_row]}) + "\n")
    # from_file validates, and a None override leaves a key as the file sets it
    cfg = dataclasses.replace(
        _config(fixtures_dir, tmp_path), logits_file=str(logits_path), frequency_file=None
    )
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg)
    assert "s5" in str(err.value)
    assert err.value.stage == "score"

    with open(logits_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"guid": "s5", "mask_logits": [bad_row]}) + "\n")
    report = run_pipeline(cfg)
    assert all(r["predicted_class"] == "negative" for r in report.results)
    assert report.accuracy == pytest.approx(0.4)


def test_config_validation_errors(fixtures_dir, tmp_path):
    cfg = _config(fixtures_dir, tmp_path)
    cfg.templates = []
    with pytest.raises(ConfigError):
        run_pipeline(cfg)
    with pytest.raises(ConfigError, match="^config file .*: configure exactly one"):
        _config(fixtures_dir, tmp_path, logits_file="x.jsonl")  # both model interfaces set
    unknown = tmp_path / "bad.yaml"
    unknown.write_text("no_such_key: 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^config file .*: unknown config keys: .'no_such_key'.$"):
        PipelineConfig.from_file(unknown)
    overridden = r"^config file .*run_sentiment.yaml: unknown config keys: \['bogus'\]$"
    with pytest.raises(ConfigError, match=overridden):
        PipelineConfig.from_file(fixtures_dir / "run_sentiment.yaml", {"bogus": 1})
    unknown.write_text("1: 2\nno_such_key: 1\n", encoding="utf-8")  # keys of two types
    with pytest.raises(ConfigError, match=r"unknown config keys: \[1, 'no_such_key'\]$"):
        PipelineConfig.from_file(unknown)


def test_from_file_validates_the_merged_config_and_names_the_file(fixtures_dir, tmp_path):
    config = tmp_path / "c.yaml"
    config.write_text((fixtures_dir / "run_sentiment.yaml").read_text(encoding="utf-8")
                      .replace("tokenizer_kind: wordpiece", "tokenizer_kind: sentencepiece"),
                      encoding="utf-8")
    with pytest.raises(ConfigError) as failure:
        run_pipeline(PipelineConfig.from_file(config))
    assert str(failure.value).startswith(f"config file {config}: unknown tokenizer_kind")
    # an override is validated with the document it overrides
    with pytest.raises(ConfigError, match=f"^config file {config}: max_len must be positive"):
        PipelineConfig.from_file(config, {"tokenizer_kind": "whitespace", "max_len": 0})
    assert PipelineConfig.from_file(config, {"tokenizer_kind": "whitespace"}).max_len == 32


def test_readme_config_example_has_exactly_the_config_fields(fixtures_dir):
    import yaml

    readme = (fixtures_dir.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file")[1].split("```yaml\n")[1].split("```")[0]
    keys = sorted(yaml.safe_load(example))
    assert keys == sorted(f.name for f in dataclasses.fields(PipelineConfig))


def test_calibration_priors_beyond_the_float_range_rejected(fixtures_dir, tmp_path):
    tokens = (fixtures_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    row = [0.0] * len(tokens)
    row[tokens.index("great")], row[tokens.index("bad")] = 1e308, -1e308
    logits = tmp_path / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "__content_free__", "mask_logits": [row]}) + "\n")
    cfg = dataclasses.replace(
        _config(fixtures_dir, tmp_path), logits_file=str(logits), frequency_file=None,
        calibrate=True,
    )
    with pytest.raises(NonFiniteValue, match="'__content_free__' has label-word scores beyond"):
        run_pipeline(cfg)


def test_json_config_supported(fixtures_dir, tmp_path):
    payload = {
        "templates": [str(fixtures_dir / "template_sentiment.txt")],
        "dataset": str(fixtures_dir / "sentiment.jsonl"),
        "vocab": str(fixtures_dir / "vocab.txt"),
        "verbalizer": str(fixtures_dir / "verbalizer.json"),
        "frequency_file": str(fixtures_dir / "word_scores.json"),
        "max_len": 32,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    report = run_pipeline(PipelineConfig.from_file(path))
    assert report.accuracy == pytest.approx(0.6)


def test_json_config_loads_without_importing_yaml(fixtures_dir, tmp_path):
    # a fresh interpreter: this one has imported yaml already
    import os
    import subprocess
    import sys
    from pathlib import Path

    import promptpipe

    json_path = tmp_path / "cfg.json"
    minimal = {"templates": ["t.txt"], "dataset": "d.jsonl", "vocab": "v.txt",
               "verbalizer": "b.json", "frequency_file": "f.json", "max_len": 32}
    json_path.write_text(json.dumps(minimal), encoding="utf-8")
    code = (
        "import sys; from promptpipe import PipelineConfig\n"
        f"assert PipelineConfig.from_file({str(json_path)!r}).max_len == 32\n"
        "print('yaml' in sys.modules)\n"
        f"PipelineConfig.from_file({str(fixtures_dir / 'run_sentiment.yaml')!r})\n"
        "print('yaml' in sys.modules)\n"
    )
    src = Path(promptpipe.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


# --- CLI -----------------------------------------------------------------------


def test_cli_run_with_overrides(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    code = main(
        [
            "run",
            "--config",
            str(fixtures_dir / "run_sentiment.yaml"),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"n_examples": 5, "n_labeled": 5, "accuracy": 0.6}
    assert len(out.read_text(encoding="utf-8").splitlines()) == 5


def test_cli_parse_emits_nodes(fixtures_dir, capsys):
    code = main(
        [
            "parse",
            "--template-file",
            str(fixtures_dir / "template_topic.txt"),
            "--meta-keys",
            "title,description",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["diagnostics"] == []
    assert [n["kind"] for n in record["nodes"]] == [
        "text",
        "mask",
        "text",
        "meta",
        "text",
        "meta",
    ]


def test_cli_wrap_and_tokenize(fixtures_dir, tmp_path):
    out = tmp_path / "wrapped.jsonl"
    code = main(
        [
            "wrap",
            "--template-file",
            str(fixtures_dir / "template_sentiment.txt"),
            "--dataset",
            str(fixtures_dir / "sentiment.jsonl"),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert first["wrapped_text"].endswith("It is <mask>")

    out2 = tmp_path / "tok.jsonl"
    code = main(
        [
            "tokenize",
            "--template-file",
            str(fixtures_dir / "template_sentiment.txt"),
            "--dataset",
            str(fixtures_dir / "sentiment.jsonl"),
            "--vocab",
            str(fixtures_dir / "vocab.txt"),
            "--max-len",
            "32",
            "--output",
            str(out2),
        ]
    )
    assert code == 0
    record = json.loads(out2.read_text(encoding="utf-8").splitlines()[0])
    assert len(record["input_ids"]) == 32
    assert len(record["mask_positions"]) == 1


def test_cli_plan_and_sample_and_score(fixtures_dir, tmp_path, capsys):
    code = main(
        [
            "plan",
            "--template-file",
            str(fixtures_dir / "templates_showcase.txt"),
            "--template-index",
            "3",
            "--vocab",
            str(fixtures_dir / "vocab.txt"),
        ]
    )
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert len(plan["slots"]) == 100

    out = tmp_path / "sample.jsonl"
    code = main(
        [
            "sample",
            "--dataset",
            str(fixtures_dir / "topics.jsonl"),
            "--k",
            "2",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    golden = (fixtures_dir / "golden" / "fewshot_topics_k2_seed7.jsonl").read_bytes()
    assert out.read_bytes() == golden

    logits = tmp_path / "logits.jsonl"
    vocab_lines = (fixtures_dir / "vocab.txt").read_text().splitlines()
    row = [0.0] * len(vocab_lines)
    row[vocab_lines.index("wonderful")] = 2.0
    logits.write_text(json.dumps({"guid": "q1", "mask_logits": [row]}) + "\n")
    code = main(
        [
            "score",
            "--logits-file",
            str(logits),
            "--verbalizer",
            str(fixtures_dir / "verbalizer.json"),
            "--vocab",
            str(fixtures_dir / "vocab.txt"),
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["predicted_class"] == "positive"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    strings=st.lists(st.text(), min_size=3, max_size=3),
    class_scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                          max_size=4),
)
@example(strings=['"q" \\ \x00\x1f\x7f', "\t\n\u2028\u2029 café 😀", "日本"],
         class_scores=[-0.0, 5e-324, 1e16, 1.7976931348623157e308])
@example(strings=["g", _RAW_COPY_EDGES[0], "c"], class_scores=[0.5])
@example(strings=["g", _RAW_COPY_EDGES[1], "c"], class_scores=[0.5])
@example(strings=["g", _RAW_COPY_EDGES[2], "c"], class_scores=[0.5])
@example(strings=["g", _RAW_COPY_EDGES[3], "c"], class_scores=[0.5])
@example(strings=["g", _RAW_COPY_EDGES[4], "c"], class_scores=[0.5])
def test_run_result_lines_are_the_bytes_write_jsonl_writes(tmp_path_factory, strings,
                                                           class_scores):
    """``run`` formats its fixed-schema lines itself; for any strings and any
    finite floats, they are the bytes the JSON encoder writes."""
    from promptpipe.runner import _result_lines
    from promptpipe.textfile import write_jsonl, write_lines

    guid, text, predicted = strings
    record = {"guid": guid, "wrapped_text": text, "predicted_class": predicted,
              "class_scores": class_scores}
    directory = tmp_path_factory.mktemp("lines")
    write_jsonl([record], directory / "encoder.jsonl")
    write_lines(_result_lines([record]), directory / "formatted.jsonl")
    assert (directory / "formatted.jsonl").read_bytes() == (
        directory / "encoder.jsonl").read_bytes()


def test_cli_reports_errors_with_guid_and_stage(fixtures_dir, tmp_path, capsys):
    bad_dataset = tmp_path / "bad.jsonl"
    bad_dataset.write_text('{"guid": "x1", "meta": {"wrong_key": "v"}}\n')
    code = main(
        [
            "run",
            "--config",
            str(fixtures_dir / "run_sentiment.yaml"),
            "--dataset",
            str(bad_dataset),
            "--output",
            str(tmp_path / "out.jsonl"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "x1" in err and "wrap" in err


# --- block-serial runner vs the per-example public path ---------------------------

_WORDS = ["brilliant", "boring", "movie", "greatest", "great", "bad", "the", "of",
          "a", "loved", "hated", "story", "plot", "terrible", "good", "wonderful"]
# Three templates and three masks, so a changed order of the ensemble mean
# or of the sum over mask positions changes the result's last bits.
_TOY_TEMPLATES = [
    '{"meta": "text"} It is {"mask"} .',
    '{"meta": "text"} Really {"mask"} , truly {"mask"} !',
    '{"mask"} {"mask"} {"meta": "text"} {"mask"}',
]
_REPLAY_TEMPLATES = [
    '{"meta": "text"} {"mask"} , {"mask"} , {"mask"} .',
    '{"mask"} and {"mask"} or {"mask"} : {"meta": "text"}',
    'It was {"mask"} {"mask"} {"mask"} {"meta": "text"}',
]


def _wide_vocab(fixtures_dir, path, size: int) -> int:
    """The fixture vocabulary padded with filler tokens to ``size`` lines."""
    tokens = (fixtures_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    tokens += [f"zz{i}" for i in range(size - len(tokens))]
    path.write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
    return len(tokens)


def _block_case(fixtures_dir, tmp_path, wide: bool, scorer: str) -> tuple[PipelineConfig, int]:
    """Config over generated templates, verbalizer and scorer files, and V."""
    vocab_path = fixtures_dir / "vocab.txt"
    vocab_size = 113
    if wide:
        vocab_path = tmp_path / "wide_vocab.txt"
        vocab_size = _wide_vocab(fixtures_dir, vocab_path, 33000)
    # uneven word counts and a two-piece word ("greatest" = great ##est)
    verbalizer = tmp_path / "verbalizer.json"
    verbalizer.write_text(json.dumps(
        {"negative": ["bad", "boring", "terrible"], "positive": ["greatest", "good"]}))
    sources = _TOY_TEMPLATES if scorer == "toy" else _REPLAY_TEMPLATES
    templates = []
    for i, source in enumerate(sources):
        path = tmp_path / f"template{i}.txt"
        path.write_text(source + "\n", encoding="utf-8")
        templates.append(str(path))
    settings = {
        "templates": templates,
        "vocab": str(vocab_path),
        "verbalizer": str(verbalizer),
        "max_len": 24,
        "dataset": str(tmp_path / "data.jsonl"),
        "output": str(tmp_path / "out.jsonl"),
    }
    if scorer == "toy":
        frequencies = tmp_path / "frequencies.json"
        frequencies.write_text(json.dumps(
            {"great": 3.0, "bad": 1.5, "##est": 0.5, "boring": -1.0, "zz7": 2.0}))
        settings.update(frequency_file=str(frequencies), aggregation="max")
    else:
        settings.update(logits_file=str(tmp_path / "logits.jsonl"), calibrate=True)
    return PipelineConfig(**settings), vocab_size


def _write_inputs(cfg: PipelineConfig, n: int, vocab_size: int) -> None:
    """``n`` examples of random text and, for replay, their logits rows."""
    import random

    rng = random.Random(n)
    with open(cfg.dataset, "w", encoding="utf-8") as handle:
        for i in range(n):
            text = " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(0, 30)))
            handle.write(json.dumps({"guid": f"e{i}", "meta": {"text": text}}) + "\n")
    if cfg.logits_file:
        with open(cfg.logits_file, "w", encoding="utf-8") as handle:
            for guid in [f"e{i}" for i in range(n)] + ["__content_free__"]:
                rows = [[round(rng.uniform(-6, 6), 3) for _ in range(vocab_size)]
                        for _ in range(3)]
                handle.write(json.dumps({"guid": guid, "mask_logits": rows}) + "\n")


def _per_example_bytes(cfg: PipelineConfig) -> bytes:
    """Output built one example at a time through the public functions."""
    from promptpipe import (
        Vocab,
        build_soft_plan,
        build_tokenizer,
        encode_wrapped,
        load_jsonl,
        load_template_file,
        load_verbalizer,
        project,
        wrap_example,
        wrapped_text,
    )
    from promptpipe.logits import LogitsFileScorer
    from promptpipe.runner import ToyScorer

    vocab = Vocab.from_file(cfg.vocab)
    tok = build_tokenizer(cfg.tokenizer_kind, vocab)
    verb = load_verbalizer(cfg.verbalizer, tok)
    templates = [ast for path in cfg.templates for ast in load_template_file(path)]
    plans = [build_soft_plan(ast, tok) for ast in templates]
    if cfg.frequency_file:
        scorer = ToyScorer.from_file(cfg.frequency_file, vocab)
    else:
        scorer = LogitsFileScorer(cfg.logits_file, len(vocab))
    calibrations = [None] * len(templates)
    if cfg.calibrate:
        calibrations = []
        for ast, plan in zip(templates, plans):
            blank = InputExample(guid="__content_free__", meta={k: "" for k in ast.meta_keys()})
            enc = encode_wrapped(wrap_example(ast, blank, plan), tok, cfg.max_len)
            calibrations.append(verb.word_scores(verb.check_rows(scorer("__content_free__", enc))))
    out = []
    for example in load_jsonl(cfg.dataset):
        per_template = []
        for index, (ast, plan) in enumerate(zip(templates, plans)):
            wrapped = wrap_example(ast, example, plan)
            if index == 0:
                text = wrapped_text(wrapped)
            enc = encode_wrapped(wrapped, tok, cfg.max_len)
            per_template.append(project(scorer(example.guid, enc), verb,
                                        aggregation=cfg.aggregation,
                                        calibration=calibrations[index]))
        combined = ensemble_scores(per_template)
        record = {
            "guid": example.guid,
            "wrapped_text": text,
            "predicted_class": combined.predicted_label,
            "class_scores": [float(s) for s in combined.scores],
        }
        out.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(out).encode("utf-8")


@pytest.mark.parametrize("wide,scorer", [(False, "toy"), (False, "replay"),
                                         (True, "toy"), (True, "replay")])
def test_block_runner_matches_per_example_path_byte_for_byte(
    fixtures_dir, tmp_path, wide, scorer
):
    cfg, vocab_size = _block_case(fixtures_dir, tmp_path, wide, scorer)
    # one aggregate call covers the whole run: its size must not change the bytes
    for n in (0, 1, 2) if wide else (0, 1, 2, 49):
        _write_inputs(cfg, n, vocab_size)
        report = run_pipeline(cfg)
        assert report.n_examples == n
        got = (tmp_path / "out.jsonl").read_bytes()
        assert got == _per_example_bytes(cfg), f"{n} examples"


@pytest.mark.parametrize("calibrated", [False, True])
@pytest.mark.parametrize("aggregation", ["mean_log_prob", "max", "first"])
def test_toy_run_matches_per_example_path_byte_for_byte(
    fixtures_dir, tmp_path, aggregation, calibrated
):
    cfg, vocab_size = _block_case(fixtures_dir, tmp_path, False, "toy")
    cfg.aggregation, cfg.calibrate = aggregation, calibrated
    _write_inputs(cfg, 25, vocab_size)
    run_pipeline(cfg)
    assert (tmp_path / "out.jsonl").read_bytes() == _per_example_bytes(cfg)


@pytest.mark.parametrize("scorer", ["toy", "replay"])
def test_runner_buffers_hold_word_scores_not_vocabulary_rows(
    fixtures_dir, tmp_path, scorer, monkeypatch
):
    from promptpipe.runner import _setup
    from promptpipe.verbalizer import Verbalizer

    cfg, vocab_size = _block_case(fixtures_dir, tmp_path, True, scorer)
    n = 3
    _write_inputs(cfg, n, vocab_size)
    pipeline, dataset = _setup(cfg)
    calls = []
    aggregate = Verbalizer.aggregate

    def spy(self, words, aggregation, prior=None):
        calls.append((words.shape, None if prior is None else prior.shape))
        return aggregate(self, words, aggregation, prior)

    monkeypatch.setattr(Verbalizer, "aggregate", spy)
    pipeline.process(dataset.examples)
    # one call per template for the whole run, over (N, M, C, W) word scores
    words_shape = pipeline.verbalizer.word_mask.shape
    assert calls == [
        ((n, m, *words_shape), (m, *words_shape) if cfg.calibrate else None)
        for m in pipeline.mask_counts
    ]


# --- replay: records projected as they are read -----------------------------------


def _replay_case(fixtures_dir, tmp_path, n_masks: int, guids, vocab_size: int | None = None,
                 calibrate: bool = False) -> PipelineConfig:
    """A one-template replay config with random logits rows for ``guids``."""
    vocab_path = fixtures_dir / "vocab.txt"
    if vocab_size is not None:
        vocab_path = tmp_path / "wide_vocab.txt"
        _wide_vocab(fixtures_dir, vocab_path, vocab_size)
    width = len(vocab_path.read_text(encoding="utf-8").splitlines())
    template = tmp_path / "template.txt"
    template.write_text('{"meta": "text"}' + ' It was {"mask"} .' * n_masks + "\n")
    # uneven word counts pad the shorter class; "greatest" is two pieces
    verbalizer = tmp_path / "verbalizer.json"
    verbalizer.write_text(json.dumps(
        {"negative": ["bad", "boring", "terrible"], "positive": ["greatest", "good"]}))
    dataset = tmp_path / "data.jsonl"
    logits = tmp_path / "logits.jsonl"
    rng = np.random.default_rng(len(guids))
    with open(dataset, "w", encoding="utf-8") as data, open(logits, "w") as rows:
        for guid in guids:
            if guid != "__content_free__":
                data.write(json.dumps({"guid": guid, "meta": {"text": "a good plot"}}) + "\n")
            values = np.round(rng.uniform(-6, 6, size=(n_masks, width)), 3)
            rows.write(json.dumps({"guid": guid, "mask_logits": values.tolist()}) + "\n")
    return PipelineConfig(
        templates=[str(template)], dataset=str(dataset), vocab=str(vocab_path),
        verbalizer=str(verbalizer), logits_file=str(logits), calibrate=calibrate,
        output=str(tmp_path / "out.jsonl"),
    )


def test_replay_run_memory_does_not_grow_by_a_row_per_record(fixtures_dir, tmp_path):
    """A replay run keeps label-word scores per record, not vocabulary-wide rows.

    Peak traced memory (numpy reports its buffers to tracemalloc) of a run
    over 40 records at V=33000 is compared with a run over 4: holding the
    rows would add 36 rows of 264 KB; holding word scores adds a few KB.
    """
    import tracemalloc

    width = 33000
    row_bytes = 8 * width

    def peak(n: int) -> int:
        cfg = _replay_case(fixtures_dir, tmp_path, 1, [f"e{i}" for i in range(n)], width)
        tracemalloc.start()
        try:
            report = run_pipeline(cfg)
            _, high = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_examples == n
        return high

    grown = peak(40) - peak(4)
    assert grown < 3 * row_bytes, f"peak grew by {grown} bytes over 36 records"


@pytest.mark.parametrize("n_masks", [1, 2])
def test_replay_priors_are_the_projected_content_free_record(fixtures_dir, tmp_path, n_masks):
    from promptpipe.logits import LogitsFileScorer
    from promptpipe.runner import CONTENT_FREE_GUID, _setup

    guids = ["e0", "e1", CONTENT_FREE_GUID]
    cfg = _replay_case(fixtures_dir, tmp_path, n_masks, guids, calibrate=True)
    pipeline, _ = _setup(cfg)
    template, verbalizer = pipeline.templates[0], pipeline.verbalizer
    assert not verbalizer.word_mask.all(), "the case must have padding words"
    # the reference: the word scores of the full content-free rows
    content_free = InputExample(CONTENT_FREE_GUID, {key: "" for key in template.ast.meta_keys()})
    blank = template.encode(content_free)
    rows_scorer = LogitsFileScorer(cfg.logits_file, _vocab_size(fixtures_dir))
    assert rows_scorer(CONTENT_FREE_GUID, blank).shape == (n_masks, _vocab_size(fixtures_dir))
    rows = verbalizer.check_rows(rows_scorer(CONTENT_FREE_GUID, blank))
    expected = verbalizer.word_scores(rows)
    got = pipeline.priors[0]
    assert got.shape == expected.shape == (n_masks, *verbalizer.word_mask.shape)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert (expected[:, ~verbalizer.word_mask] == 0.0).all()


def test_replay_calibration_without_content_free_record_fails_at_setup(fixtures_dir, tmp_path):
    from promptpipe.errors import MissingLogits
    from promptpipe.runner import _setup

    cfg = _replay_case(fixtures_dir, tmp_path, 2, ["e0", "e1"], calibrate=True)
    with pytest.raises(MissingLogits, match="__content_free__"):
        _setup(cfg)


# --- logits and frequency files ----------------------------------------------------


def _vocab_size(fixtures_dir) -> int:
    return len((fixtures_dir / "vocab.txt").read_text().splitlines())


def _score_cli(fixtures_dir, logits) -> list[str]:
    return ["score", "--logits-file", str(logits),
            "--verbalizer", str(fixtures_dir / "verbalizer.json"),
            "--vocab", str(fixtures_dir / "vocab.txt")]


def test_logits_record_without_mask_logits_names_file_and_line(fixtures_dir, tmp_path, capsys):
    from promptpipe.logits import LogitsFileScorer

    row = [0.0] * _vocab_size(fixtures_dir)
    logits = tmp_path / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "q1", "mask_logits": [row]}) + "\n"
                      + json.dumps({"guid": "q2"}) + "\n")
    assert main(_score_cli(fixtures_dir, logits)) == 1
    err = capsys.readouterr().err
    assert f"{logits}:2" in err and "mask_logits" in err and "q2" in err
    with pytest.raises(ConfigError, match=r"logits.jsonl:2"):
        LogitsFileScorer(logits, _vocab_size(fixtures_dir))


@pytest.mark.parametrize("exponent_line", [None, 1, 3])
def test_duplicate_guid_in_logits_file_names_both_lines(
    fixtures_dir, tmp_path, capsys, exponent_line
):
    """A record spelled with ``e0`` after every value is read by the decoder
    tier, the others by the numeric tier: one guid map spans both."""
    from promptpipe.errors import DuplicateGuid
    from promptpipe.logits import LogitsFileScorer, _numeric_record

    row = [0.0] * _vocab_size(fixtures_dir)
    lines = [json.dumps({"guid": guid, "mask_logits": [row]}) for guid in ("a", "b", "a")]
    if exponent_line is not None:
        lines[exponent_line - 1] = re.sub(r"(\d)(?=[,\]])", r"\1e0", lines[exponent_line - 1])
    for line in lines:  # the numeric tier declines exactly the line spelled with e0
        data = bytearray(line.encode())
        declined = _numeric_record(data, 0, len(data), len(row), None, bytearray()) is None
        assert declined == ("e0" in line)
    logits = tmp_path / "logits.jsonl"
    logits.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DuplicateGuid) as err:
        LogitsFileScorer(logits, len(row))
    assert "logits.jsonl:3" in str(err.value) and "line 1" in str(err.value)
    assert main(_score_cli(fixtures_dir, logits)) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("records", ["empty", "one record", "malformed"])
def test_score_rejects_unknown_aggregation_before_reading_logits(
    fixtures_dir, tmp_path, capsys, records
):
    row = [0.0] * _vocab_size(fixtures_dir)
    logits = tmp_path / "logits.jsonl"
    logits.write_text({
        "empty": "",
        "one record": json.dumps({"guid": "q1", "mask_logits": [row]}) + "\n",
        "malformed": "not json\n",
    }[records])
    assert main(_score_cli(fixtures_dir, logits) + ["--aggregation", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown aggregation 'bogus'; expected one of mean_log_prob, max, first\n"
    )


def _run_cli(fixtures_dir, logits) -> list[str]:
    return ["run", "--templates", str(fixtures_dir / "template_sentiment.txt"),
            "--dataset", str(fixtures_dir / "sentiment.jsonl"),
            "--vocab", str(fixtures_dir / "vocab.txt"),
            "--verbalizer", str(fixtures_dir / "verbalizer.json"),
            "--logits-file", str(logits)]


def _assert_cli_names(argv, capsys, *parts) -> None:
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    for part in parts:
        assert part in captured.err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_logits_rejected_at_load(fixtures_dir, tmp_path, capsys, bad):
    from promptpipe.errors import NonFiniteValue
    from promptpipe.logits import LogitsFileScorer

    row = [0.0] * _vocab_size(fixtures_dir)
    logits = tmp_path / "logits.jsonl"
    lines = [json.dumps({"guid": "ok", "mask_logits": [row]})]
    lines.append(json.dumps({"guid": "s9", "mask_logits": [row[:-1] + [bad]]}))
    logits.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonFiniteValue) as err:
        LogitsFileScorer(logits, len(row))
    assert "logits.jsonl:2" in str(err.value) and "s9" in str(err.value)
    for argv in (_score_cli(fixtures_dir, logits), _run_cli(fixtures_dir, logits)):
        _assert_cli_names(argv, capsys, f"{logits}:2", "s9")


@pytest.mark.parametrize("bad", ['"2.5"', "true", "false", "null", "{}", '"nan"'])
@pytest.mark.parametrize("row_value", ["0.5", "0"])
def test_non_numeric_logits_rejected_at_load(fixtures_dir, tmp_path, capsys, bad, row_value):
    # the other values of the row are floats or integers
    from promptpipe.logits import LogitsFileScorer

    width = _vocab_size(fixtures_dir)
    logits = tmp_path / "logits.jsonl"
    logits.write_text(
        json.dumps({"guid": "ok", "mask_logits": [[0.25] * width]}) + "\n"
        + '{"guid": "s9", "mask_logits": [[%s]]}\n' % ", ".join([row_value] * (width - 1) + [bad])
    )
    with pytest.raises(ConfigError, match=r"logits.jsonl:2: guid 's9' has a non-numeric logit") as err:
        LogitsFileScorer(logits, width)
    assert bad in str(err.value)
    for argv in (_score_cli(fixtures_dir, logits), _run_cli(fixtures_dir, logits)):
        _assert_cli_names(argv, capsys, f"{logits}:2", "s9", "non-numeric")


@pytest.mark.parametrize("bad", ["null", "{}", '"abc"', "[null]", '["2.5"]'])
def test_mask_logits_that_are_not_rows_of_numbers_name_the_guid(fixtures_dir, tmp_path, capsys, bad):
    from promptpipe.logits import LogitsFileScorer

    width = _vocab_size(fixtures_dir)
    logits = tmp_path / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "ok", "mask_logits": [[0.25] * width]}) + "\n"
                      + '{"guid": "s9", "mask_logits": %s}\n' % bad)
    with pytest.raises(ConfigError, match=r"logits.jsonl:2: bad mask_logits for guid 's9'"):
        LogitsFileScorer(logits, width)
    for argv in (_score_cli(fixtures_dir, logits), _run_cli(fixtures_dir, logits)):
        _assert_cli_names(argv, capsys, f"{logits}:2", "s9", "bad mask_logits")


def test_json_integer_logits_keep_their_float_conversion(fixtures_dir, tmp_path):
    from promptpipe.logits import LogitsFileScorer

    width = _vocab_size(fixtures_dir)
    records = {
        "int64": [[3] * (width - 2) + [-7, 2**53 + 1]],
        "beyond_int64": [[0.5] * (width - 2) + [10**20, 2**70 + 1]],
        # written with mask_logits first, so json.loads reads it, and "true" in
        # the guid makes the loader check every value of the record
        "true_int64": [[3] * (width - 1) + [2**53 + 1]],
    }
    logits = tmp_path / "logits.jsonl"
    logits.write_text("".join(
        json.dumps({"guid": guid, "mask_logits": rows}) + "\n" for guid, rows in records.items()
        if guid != "true_int64"
    ) + json.dumps({"mask_logits": records["true_int64"], "guid": "true_int64"}) + "\n")
    scorer = LogitsFileScorer(logits, width)
    for guid, rows in records.items():
        got = scorer.records[guid]
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(rows, dtype=np.float64).tobytes()


def test_out_of_range_integer_logit_names_file_and_guid(fixtures_dir, tmp_path):
    from promptpipe.logits import LogitsFileScorer

    width = _vocab_size(fixtures_dir)
    logits = tmp_path / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "big", "mask_logits": [[10**400] * width]}) + "\n")
    with pytest.raises(ConfigError, match=r"logits.jsonl:1: bad mask_logits for guid 'big'"):
        LogitsFileScorer(logits, width)


def _oracle_read_logits_records(path, vocab_size):
    """The logits reader before the numeric path: ``json.loads`` and a
    dtype-inferring ``np.asarray`` for every record, after a pass over the
    file for the lines spelling ``true`` or ``false``."""
    from line_reader import read_guid_lines
    from promptpipe.errors import DimensionMismatch, NonFiniteValue
    from promptpipe.textfile import read_lines

    literal_lines = {
        n for n, line in read_lines(path)
        if "e" in line and ("true" in line or "false" in line)
    }
    for line_no, guid, record in read_guid_lines(path):
        where = f"{path}:{line_no}"
        if "mask_logits" not in record:
            raise ConfigError(f"{where}: logits record for guid {guid!r} has no 'mask_logits'")
        values = record["mask_logits"]
        try:
            rows = np.asarray(values)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        numeric = rows.dtype.kind in "iuf"
        if not numeric and rows.ndim != 2:
            raise ConfigError(
                f"{where}: bad mask_logits for guid {guid!r}: expected rows of numbers, "
                f"got {json.dumps(values)[:40]}"
            )
        if rows.ndim != 2 or rows.shape[1] != vocab_size:
            raise DimensionMismatch(f"{where}: mask_logits must be rows of width {vocab_size}")
        if not numeric or line_no in literal_lines:
            for row in values:
                for value in row:
                    if type(value) not in (int, float):
                        raise ConfigError(
                            f"{where}: guid {guid!r} has a non-numeric logit {json.dumps(value)}"
                        )
        try:
            rows = rows.astype(np.float64, copy=False)
        except OverflowError as exc:
            raise ConfigError(f"{where}: bad mask_logits for guid {guid!r}: {exc}") from None
        if not np.isfinite(rows).all():
            raise NonFiniteValue(f"{where}: guid {guid!r} has a non-finite logit")
        yield guid, rows


def _read_outcome(reader, path, vocab_size):
    """The records a reader yields as ``(guid, dtype, bytes)``, then its error, if any."""
    records = []
    try:
        for guid, rows in reader(path, vocab_size):
            records.append((guid, rows.dtype.str, rows.tobytes()))
    except PromptPipeError as exc:
        return records, type(exc), str(exc)
    return records, None, None


# JSON numbers, the first ten as json.dumps writes them
_JSON_LOGITS = [
    "0.5", "-1.25", "3", "0", "-7", "0.0", "-0.0", "1e+16", "1e-05", "-2.5e-07",
    "1E-05", "1E+300", "2.5e3", "1e05", "0e0", "-0e5", "9007199254740993",
    "18446744073709551617", "123456789012345678901", str(2**1024 - 2**970 - 1),
    str(2**1024 - 2**970), "1" + "0" * 400, "1e999", "-1e999", "1e-400",
]
# values float() or np.loadtxt reads as floats that JSON rejects or reads
# otherwise, and values that are not numbers
_ODD_LOGITS = [
    "+1", ".5", "1.", "-.5", "01", "-01", "00", "-0", "-00", "1.e5", "+.5", "1e", "--1",
    "NaN", "Infinity", "-Infinity", "true", "false", "null", '"2"', "[]", "[1]", "{}",
    "nan", "1_0", "\x0c1", "1\x0b", "1\u2003", "\xa01",
]


@st.composite
def _logits_line(draw, width):
    """One line of a logits file: mostly a valid record, at times with one
    odd value, an odd row or an odd layout."""
    guid = draw(st.sampled_from(["a", "b", "c", "d", "[[a", 'q"x', "é", "", "\\", "a]]}", "], ["]))

    def row():
        n = draw(st.sampled_from([width] * 6 + [0, width - 1, width + 1]))
        values = [draw(st.sampled_from(_JSON_LOGITS[:10] * 3 + _JSON_LOGITS)) for _ in range(n)]
        if values and draw(st.integers(0, 3)) == 0:
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_ODD_LOGITS))
        return draw(st.sampled_from([", "] * 3 + [",", ",\t", " , "])).join(values)

    separator = draw(st.sampled_from(["], ["] * 3 + ["],[", "], \t["]))
    rows = "[[" + separator.join(row() for _ in range(draw(st.integers(1, 3)))) + "]]"
    if draw(st.integers(0, 9)) == 0:
        rows = draw(st.sampled_from(["[]", "[[]]", "[[], []]", "[[[1]]]", "null", '"x"']))
    fields = [f'"guid": {json.dumps(guid, ensure_ascii=draw(st.booleans()))}',
              f'"mask_logits": {rows}']
    shape = draw(st.sampled_from(["plain"] * 12 + [
        "logits first", "extra key", "no logits", "blank", "not json", "padded", "raw tab"]))
    if shape == "logits first":
        fields.reverse()
    elif shape == "extra key":
        fields.append('"model": "m"')
    elif shape == "no logits":
        fields.pop()
    elif shape == "blank":
        return ""
    elif shape == "not json":
        return "[[1, 2]"
    elif shape == "raw tab":
        fields[0] = '"guid": "t\tb"'
    line = "{" + ", ".join(fields) + "}"
    return f" {line}\t" if shape == "padded" else line


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_logits_reader_equals_json_oracle(data):
    import tempfile
    import warnings

    from promptpipe.logits import read_logits_records

    width = data.draw(st.integers(1, 3))
    lines = data.draw(st.lists(_logits_line(width), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "logits.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_outcome(read_logits_records, path, width)
            expected = _read_outcome(_oracle_read_logits_records, path, width)
    assert got == expected


# line layouts around a row: the plain one, a stray "]" or "[" inside a
# row, spaces and tabs at the outer brackets and after "}", a second "]]}"
# later on the line, and text after the closing "}"
_LOGITS_LAYOUTS = [
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, 2], 3]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, 2]], 3]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, [2], 3]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, [2, 3]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]] \t}',
    '{"guid": "g", "mask_logits": [ \t[%s], [1, 2, 3]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]]} \t \t',
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]], "model": "]]}"}',
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]]} ]]}',
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]]}x',
    '{"guid": "g", "mask_logits": [[%s], [1, 2, 3]]} {}',
]


def test_logits_reader_equals_json_oracle_on_each_spelling(tmp_path):
    from promptpipe.logits import read_logits_records

    path = tmp_path / "logits.jsonl"
    for layout in _LOGITS_LAYOUTS:
        for spelling in _JSON_LOGITS + _ODD_LOGITS:
            for row in (f"0.5, {spelling}, -1", f"{spelling}, 0.5, -1", f"-1, 0.5,{spelling}"):
                path.write_text(layout % row + "\n", encoding="utf-8")
                got = _read_outcome(read_logits_records, path, 3)
                assert got == _read_outcome(_oracle_read_logits_records, path, 3), layout % row


def test_json_dumps_logits_reach_the_decoder_unless_short_decimals(tmp_path, monkeypatch):
    """A file json.dumps wrote, with exponents, integers, -0.0 and 17-digit
    reprs, reads bit for bit as float64; a record reaches the JSON decoder
    whole exactly when one of its rows is not a row of short decimals."""
    from promptpipe.logits import read_logits_records
    from promptpipe.textfile import JSON_DECODER

    rng = np.random.default_rng(7)
    records = {}
    for i in range(6):
        rows = rng.normal(0.0, 3.0, size=(1 + i % 3, 40)) * 10.0 ** rng.integers(-9, 18, 40)
        records[f"g{i}"] = rows.tolist()
    records["g0"][0][:6] = [-0.0, 0.0, 7, -3, 0, 10**20]
    records["g1"][0][:3] = [1e16, 1e-05, -2.5e-300]
    # rows of short decimals: all of them, then all but the last row
    decimals = (np.round(rng.normal(0.0, 3.0, size=(3, 40)) * 1e4) / 1e4).tolist()
    records["d0"] = decimals
    records["d1"] = decimals[:2] + records["g2"][:1]
    path = tmp_path / "logits.jsonl"
    path.write_text("".join(
        json.dumps({"guid": guid, "mask_logits": rows}) + "\n" for guid, rows in records.items()))

    def short_decimals(row):
        texts = json.dumps(row)[1:-1].split(", ")
        return all(_FAST_FORM.fullmatch(t) and sum(map(str.isdigit, t)) <= 15 for t in texts)

    decoded = []
    real_decode = JSON_DECODER.decode

    def spy(text, *args, **kwargs):
        decoded.append(text)
        return real_decode(text, *args, **kwargs)

    monkeypatch.setattr(JSON_DECODER, "decode", spy)
    got = list(read_logits_records(path, 40))
    monkeypatch.undo()
    assert [guid for guid, _ in got] == list(records)
    # each guid literal, and each line with a row that is not short decimals
    whole = [json.loads(text)["guid"] for text in decoded if text.startswith("{")]
    assert whole == [guid for guid, rows in records.items() if not all(map(short_decimals, rows))]
    assert whole[-1] == "d1" and "d0" not in whole
    assert len(decoded) - len(whole) == len(records)
    for guid, rows in got:
        assert rows.tobytes() == np.asarray(records[guid], dtype=np.float64).tobytes()


# the short decimals _decimal_row takes, by definition
_FAST_FORM = re.compile(r"-?(0|[1-9][0-9]{0,7})\.[0-9]{1,8}")
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


@st.composite
def _decimal_text(draw):
    """A number spelled in the fast form or one step outside it: 9 integer
    or fraction digits, 16 digits in all, a leading zero, an integer, an
    exponent, or a dot with no digit on one side or a second dot."""
    digits = st.text("0123456789", min_size=1, max_size=9)
    integer = draw(st.sampled_from(["0", "1"])) if draw(st.booleans()) else draw(digits)
    shape = draw(st.sampled_from(
        ["decimal"] * 8 + ["integer", "exponent", "no integer", "no fraction", "two dots"]))
    text = draw(st.sampled_from(["", "-"])) + ("" if shape == "no integer" else integer)
    if shape != "integer":
        text += "." + ("" if shape == "no fraction" else draw(digits))
    if shape == "exponent":
        text += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "-", "+"])) + "7"
    elif shape == "two dots":
        text += "." + draw(digits)
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    texts=st.lists(_decimal_text(), min_size=1, max_size=5)
    | st.sampled_from([["0.0"], ["-0.0"], ["-0.0", "0.0"], ["1234567.12345678"],
                       ["12345678.1234567"], ["12345678.12345678"], ["-99999999.9999999"]]),
    separator=st.sampled_from([", ", ","]),
)
# a dot where a comma belongs, and a comma where a dot belongs
@example(texts=["1.5.2", "3"], separator=",")
@example(texts=["5", "6.7.8"], separator=",")
def test_decimal_logits_read_back_as_float(texts, separator):
    """Decimals in the fast form and just outside it read back bit for bit as
    float() reads them, and every row in the form takes the fast path."""
    import tempfile

    from promptpipe.logits import _decimal_row, read_logits_records

    row = separator.join(texts)
    fast = np.empty(len(texts))
    in_form = all(_FAST_FORM.fullmatch(t) and sum(map(str.isdigit, t)) <= 15 for t in texts)
    assert _decimal_row(row.encode(), len(texts), fast, bytearray()) == in_form
    if in_form:
        assert fast.tobytes() == np.array([float(t) for t in texts]).tobytes()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "logits.jsonl"
        path.write_text('{"guid": "g", "mask_logits": [[%s], [%s]]}\n' % (row, row))
        if all(_JSON_NUMBER.fullmatch(t) for t in texts):
            # as JSON reads them: the integer -0 is 0
            expected = np.array([[float(json.loads(t)) for t in texts]] * 2)
            [(guid, rows)] = read_logits_records(path, len(texts))
            assert rows.tobytes() == expected.tobytes()
        else:
            with pytest.raises(PromptPipeError, match="logits.jsonl:1"):
                list(read_logits_records(path, len(texts)))


def test_replay_spelled_logits_skip_the_decoder(tmp_path, monkeypatch):
    """Records of 4-decimal logits, written as the replay benchmark writes
    them, are read by the fast path alone."""
    from promptpipe.logits import read_logits_records
    from promptpipe.textfile import JSON_DECODER

    rng = np.random.default_rng(11)
    records = {f"r{i}": np.round(rng.normal(0.0, 2.0, size=(2, 5000)) * 1e4) / 1e4
               for i in range(3)}
    records["r0"][0, :4] = [-0.0, 0.0, 12345678.5, -3.25]
    path = tmp_path / "logits.jsonl"
    path.write_text("".join(json.dumps({"guid": guid, "mask_logits": rows.tolist()}) + "\n"
                            for guid, rows in records.items()))
    decoded = []
    real_decode = JSON_DECODER.decode
    monkeypatch.setattr(JSON_DECODER, "decode",
                        lambda text, *a, **k: decoded.append(text) or real_decode(text, *a, **k))
    got = dict(read_logits_records(path, 5000))
    monkeypatch.undo()
    # the guid literals only, never a whole line
    assert decoded == [json.dumps(guid) for guid in records]
    for guid, rows in records.items():
        assert got[guid].tobytes() == rows.tobytes()


def _fixture_verbalizer(fixtures_dir):
    from promptpipe import Vocab, build_tokenizer, load_verbalizer

    vocab = Vocab.from_file(fixtures_dir / "vocab.txt")
    return vocab, load_verbalizer(fixtures_dir / "verbalizer.json",
                                  build_tokenizer("wordpiece", vocab))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    masks=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    reprs=st.lists(st.booleans(), min_size=5, max_size=5),
    kept=st.none() | st.sets(st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_replay_scorer_with_a_verbalizer_keeps_the_word_scores_of_its_records(
    fixtures_dir, masks, reprs, kept, seed
):
    """A record's projected rows are the word scores of its unprojected rows,
    byte for byte, on both reader tiers (4-decimal rows and 17-digit reprs,
    the decoder's), with and without ``guids``. Each record is converted into
    an array of its own that no later record overwrites, and the reader and
    the unprojected scorer give the file's values."""
    import tempfile

    from promptpipe.logits import LogitsFileScorer, read_logits_records

    vocab, verbalizer = _fixture_verbalizer(fixtures_dir)
    rng = np.random.default_rng(seed)
    records = {}
    for k, (m, full) in enumerate(zip(masks, reprs)):
        rows = rng.normal(0.0, 3.0, size=(m, len(vocab)))
        records[f"g{k}"] = rows if full else np.round(rows, 4)
    guids = None if kept is None else [f"g{k}" for k in sorted(kept)]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "logits.jsonl"
        path.write_text("".join(json.dumps({"guid": guid, "mask_logits": rows.tolist()}) + "\n"
                                for guid, rows in records.items()))
        plain = LogitsFileScorer(path, len(vocab), None, guids)
        projected = LogitsFileScorer(path, len(vocab), verbalizer, guids)
        read = list(read_logits_records(path, len(vocab)))
    expected = [guid for guid in records if guids is None or guid in guids]
    assert list(plain.records) == list(projected.records) == expected
    for guid in expected:
        m = len(records[guid])
        assert plain.rows(guid, m).tobytes() == records[guid].tobytes(), guid
        got = projected.rows(guid, m)
        assert got.shape == (m, *verbalizer.word_mask.shape)
        assert got.tobytes() == verbalizer.word_scores(plain.rows(guid, m)).tobytes(), guid
    assert not any(np.shares_memory(a, b)
                   for a, b in itertools.combinations(plain.records.values(), 2))
    assert [guid for guid, _ in read] == list(records)
    for guid, rows in read:
        assert rows.tobytes() == records[guid].tobytes(), guid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    frequencies=st.dictionaries(
        st.sampled_from(["great", "bad", "good", "wonderful", "the", "absent"]),
        st.floats(-50.0, 50.0), max_size=6),
    masks=st.lists(st.integers(1, 3), min_size=1, max_size=4),
)
def test_a_toy_scorer_with_a_verbalizer_gives_the_word_scores_of_its_rows(
    fixtures_dir, frequencies, masks
):
    from promptpipe.runner import ToyScorer

    vocab, verbalizer = _fixture_verbalizer(fixtures_dir)
    plain = ToyScorer(frequencies, vocab)
    projected = ToyScorer(frequencies, vocab, verbalizer)
    for m in masks:
        enc = SimpleNamespace(mask_positions=list(range(m)))  # all the scorer reads
        rows = plain("g", enc)
        assert rows.shape == (m, len(vocab))
        got = projected("g", enc)
        assert got.shape == (m, *verbalizer.word_mask.shape)
        assert got.tobytes() == verbalizer.word_scores(rows).tobytes()


@pytest.mark.parametrize("vocab_size", ["113", True, 0, -1, 113.0, None])
def test_logits_vocab_size_must_be_a_positive_integer(tmp_path, vocab_size):
    from promptpipe.logits import LogitsFileScorer, read_logits_records

    logits = tmp_path / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "a", "mask_logits": [[0.5] * 113]}) + "\n")
    # at the call, before the file is read
    with pytest.raises(ConfigError, match="vocab_size"):
        read_logits_records(logits, vocab_size)
    with pytest.raises(ConfigError, match="vocab_size"):
        LogitsFileScorer(logits, vocab_size)


def test_logits_wider_than_the_line_can_hold_are_a_mismatch(tmp_path):
    from promptpipe.errors import DimensionMismatch
    from promptpipe.logits import read_logits_records

    logits = tmp_path / "logits.jsonl"
    logits.write_text('{"guid": "a", "mask_logits": [[0.5, 1.5]]}\n')
    with pytest.raises(DimensionMismatch, match="rows of width 1000000000000"):
        list(read_logits_records(logits, 10**12))


# spellings on either side of the short-decimal form: leading zeros, a
# negative zero, 8+7 and 8+8 digits, a missing digit, an exponent
_ROW_SPELLINGS = ["01.5", "00.1", "-01.5", "-0.0", "0.0", "0.5", "12345678.1234567",
                  "12345678.12345678", "1.", ".5", "1.5e0"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    texts=st.lists(_decimal_text() | st.sampled_from(_ROW_SPELLINGS), min_size=1, max_size=6),
    separator=st.sampled_from([", ", ",", ",  "]),
    lead=st.sampled_from(["", " ", "  "]),
    chunk=st.sampled_from([1 << 16, 1]),
)
@example(texts=["01.5", "0.5"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["0.5", "00.1"], separator=",", lead="", chunk=1)
@example(texts=["-0.0", "0.5"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["1.5", "-2.5"], separator=", ", lead=" ", chunk=1)
@example(texts=["12345678.1234567"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["12345678.12345678"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["1.", "0.5"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["0.5", ".5"], separator=", ", lead="", chunk=1)
@example(texts=["1.5e0"], separator=", ", lead="", chunk=1 << 16)
# 7 and 8 digits: one window per field, or two, and a step of both
@example(texts=["123456.7"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["123456.7"], separator=", ", lead="", chunk=1)
@example(texts=["1234567.0"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["1234567.0"], separator=", ", lead="", chunk=1)
@example(texts=["-0.000001"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["-0.000001"], separator=", ", lead="", chunk=1)
@example(texts=["9.999999"], separator=", ", lead="", chunk=1 << 16)
@example(texts=["9.999999"], separator=", ", lead="", chunk=1)
@example(texts=["123456.7", "1234567.0", "-0.000001", "9.999999"], separator=", ", lead=" ",
         chunk=1 << 16)
@example(texts=["123456.7", "1234567.0", "-0.000001", "9.999999"], separator=", ", lead=" ",
         chunk=1)
def test_decimal_row_check_accepts_exactly_the_rows_it_converts(texts, separator, lead, chunk):
    """Checking a row without converting it accepts or refuses it as the
    converting step does, at the row's width and one off, in one step or
    in a step per field."""
    from unittest import mock

    from promptpipe import logits

    row = (lead + separator.join(texts)).encode()
    in_form = (len(lead) < 2 and (separator != ",  " or len(texts) == 1) and all(
        _FAST_FORM.fullmatch(t) and sum(map(str.isdigit, t)) <= 15 for t in texts))
    with mock.patch.object(logits, "_CHUNK", chunk):
        for width in {len(texts) - 1, len(texts), len(texts) + 1} - {0}:
            values = np.empty(width)
            converted = logits._decimal_row(row, width, values, bytearray())
            checked = logits._decimal_row(row, width, None, bytearray())
            assert converted == (in_form and width == len(texts))
            assert checked == converted
            if converted:
                assert values.tobytes() == np.array([float(t) for t in texts]).tobytes()


@st.composite
def _seven_digit_text(draw):
    """A short decimal of at most 7 digits in all, signed or not."""
    integer = draw(st.sampled_from(["0"]) | st.from_regex(r"[1-9][0-9]{0,5}", fullmatch=True))
    room = 7 - len(integer)  # a lone 0 counts as a digit of the field
    fraction = draw(st.text("0123456789", min_size=1, max_size=room))
    return draw(st.sampled_from(["", "-"])) + integer + "." + fraction


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    texts=st.lists(_seven_digit_text() | st.sampled_from(["-0.0", "0.0", "-9.999999"]),
                   min_size=1, max_size=8),
    separator=st.sampled_from([", ", ","]),
    lead=st.sampled_from(["", " "]),
    chunk=st.sampled_from([1 << 16, 1]),
)
def test_rows_of_seven_digit_fields_convert_as_float(texts, separator, lead, chunk):
    """A row whose every field has at most 7 digits, which each step converts
    from one window per field, reads back bit for bit as float() reads it,
    in one step or in a step per field."""
    from unittest import mock

    from promptpipe import logits

    row = (lead + separator.join(texts)).encode()
    values = np.empty(len(texts))
    with mock.patch.object(logits, "_CHUNK", chunk):
        assert logits._decimal_row(row, len(texts), values, bytearray())
    assert values.tobytes() == np.array([float(t) for t in texts]).tobytes()


@st.composite
def _short_decimal(draw):
    """A field of the form -?(0|[1-9][0-9]{0,7})\\.[0-9]{1,8}, up to 16 digits."""
    f = draw(st.integers(1, 8))
    return (draw(st.sampled_from(["", "-"])) + str(draw(st.integers(0, 10**8 - 1))) + "."
            + str(draw(st.integers(0, 10**f - 1))).zfill(f))


def _in_fast_form(row: bytes, width: int) -> bool:
    """The oracle of _decimal_row's check, field by field: ``width`` fields
    in the short-decimal form, one space allowed before each."""
    fields = [f[1:] if f.startswith(" ") else f for f in row.decode().split(",")]
    return len(fields) == width and all(
        _FAST_FORM.fullmatch(f) and sum(map(str.isdigit, f)) <= 15 for f in fields)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    texts=st.lists(_short_decimal(), min_size=1, max_size=12),
    separator=st.sampled_from([",", ", "]),
    lead=st.sampled_from(["", " "]),
    mutations=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                 st.integers(0, 1 << 8), st.sampled_from(b"0123456789.,- e+x]")),
                       max_size=2),
)
# a leading zero, a second space, an exponent and a lost dot, each mid-row
@example(texts=["0.5", "0.25", "1.5"], separator=", ", lead="", mutations=[("insert", 5, 48)])
@example(texts=["0.5", "0.25", "1.5"], separator=", ", lead="", mutations=[("insert", 4, 32)])
@example(texts=["0.5", "0.255"], separator=",", lead=" ",
         mutations=[("replace", 8, ord("e")), ("insert", 9, ord("+"))])
@example(texts=["12.5", "0.25"], separator=",", lead="", mutations=[("delete", 2, 48)])
def test_decimal_row_accepts_mutated_rows_as_a_field_oracle_does(texts, separator, lead,
                                                                 mutations):
    """A row of short decimals with up to two bytes replaced, inserted or
    deleted is accepted, with and without an output, exactly when each of
    its fields is in the form, at any step size and at the row's width and
    one off; an accepted row converts as float() does."""
    from unittest import mock

    from promptpipe import logits

    row = bytearray((lead + separator.join(texts)).encode())
    for kind, at, byte in mutations:
        at %= len(row) + (kind == "insert")
        if kind == "replace":
            row[at] = byte
        elif kind == "insert":
            row.insert(at, byte)
        elif len(row) > 1:
            del row[at]
    row = bytes(row)
    n = row.count(b",") + 1
    pad = bytearray()
    for chunk in (1, 2, 3, 5, 8, 13, 64, 1 << 16):
        with mock.patch.object(logits, "_CHUNK", chunk):
            for width in {n - 1, n, n + 1} - {0}:
                expected = _in_fast_form(row, width)
                values = np.empty(width)
                assert logits._decimal_row(row, width, values, pad) == expected, chunk
                assert logits._decimal_row(row, width, None, pad) == expected, chunk
                if expected:
                    fields = row.replace(b" ", b"").split(b",")
                    assert values.tobytes() == np.array([float(f) for f in fields]).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_logits_reader_keeps_named_guids_and_checks_every_line(data):
    """Given guids, the reader yields the JSON oracle's records of those guids
    alone, and raises the oracle's error on any line, named or not."""
    import tempfile
    import warnings

    from promptpipe.logits import _logits_records

    width = data.draw(st.integers(1, 3))
    lines = data.draw(st.lists(_logits_line(width), min_size=1, max_size=4))
    named = data.draw(st.frozensets(st.sampled_from(["a", "b", "c", "[[a", "é"])))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "logits.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _read_outcome(partial(_logits_records, guids=named), path, width)
            records, error, message = _read_outcome(_oracle_read_logits_records, path, width)
    assert got == ([record for record in records if record[0] in named], error, message)


def _subset_case(fixtures_dir, tmp_path, calibrate: bool) -> PipelineConfig:
    """A replay run of the fixture dataset whose logits file also holds
    records no example names, on lines of either tier: short decimals (read
    by numpy arithmetic) and 17-digit reprs (read by the JSON decoder)."""
    from promptpipe.runner import CONTENT_FREE_GUID

    width = _vocab_size(fixtures_dir)
    rng = np.random.default_rng(24)
    tiers = [("s1", 4), ("x1", 4), ("s2", None), ("s3", 4), ("x2", None), ("s4", None),
             (CONTENT_FREE_GUID, 4), ("s5", 4), ("x3", None)]
    logits = tmp_path / "logits.jsonl"
    with open(logits, "w", encoding="utf-8") as handle:
        for guid, decimals in tiers:
            values = rng.normal(0.0, 3.0, size=(1, width))
            if decimals is not None:
                values = np.round(values, decimals)
            handle.write(json.dumps({"guid": guid, "mask_logits": values.tolist()}) + "\n")
    return PipelineConfig(
        templates=[str(fixtures_dir / "template_sentiment.txt")],
        dataset=str(fixtures_dir / "sentiment.jsonl"), vocab=str(fixtures_dir / "vocab.txt"),
        verbalizer=str(fixtures_dir / "verbalizer.json"), logits_file=str(logits),
        calibrate=calibrate, output=str(tmp_path / "out.jsonl"),
    )


@pytest.mark.parametrize("calibrate", [False, True])
def test_run_on_each_one_example_subset_matches_the_full_run(fixtures_dir, tmp_path, calibrate):
    """A run converts only the records it scores, and each one-example run
    writes the full run's line for its example, byte for byte."""
    from promptpipe.runner import CONTENT_FREE_GUID, _setup

    cfg = _subset_case(fixtures_dir, tmp_path, calibrate)
    run_pipeline(cfg)
    full = Path(cfg.output).read_bytes().splitlines(keepends=True)
    examples = (fixtures_dir / "sentiment.jsonl").read_bytes().splitlines(keepends=True)
    assert len(full) == len(examples) == 5
    for example_line, expected in zip(examples, full):
        guid = json.loads(example_line)["guid"]
        subset = tmp_path / "one.jsonl"
        subset.write_bytes(example_line)
        one = dataclasses.replace(cfg, dataset=str(subset), output=str(tmp_path / "one_out.jsonl"))
        pipeline, _ = _setup(one)
        assert set(pipeline.scorer.records) == {guid} | ({CONTENT_FREE_GUID} if calibrate else set())
        run_pipeline(one)
        assert (tmp_path / "one_out.jsonl").read_bytes() == expected, guid


# an unnamed record that the reader must still refuse: the line written after
# s1's, and the text its message must hold
_BAD_UNNAMED = {
    "string value": ('{"guid": "x9", "mask_logits": [[%s, "2.5"]]}', "guid 'x9'"),
    "1e999": ('{"guid": "x9", "mask_logits": [[%s, 1e999]]}', "guid 'x9'"),
    "leading zero": ('{"guid": "x9", "mask_logits": [[%s, 01.5]]}', "invalid JSON"),
    "wrong width": ('{"guid": "x9", "mask_logits": [[%s]]}', "rows of width"),
    "repeated guid": ('{"guid": "x1", "mask_logits": [[%s, 0.5]]}',
                      "guid 'x1' already appears on line 2"),
}


@pytest.mark.parametrize("bad", _BAD_UNNAMED)
def test_bad_unnamed_logits_record_still_fails_the_run(fixtures_dir, tmp_path, bad):
    from promptpipe.logits import read_logits_records

    cfg = _subset_case(fixtures_dir, tmp_path, calibrate=False)
    lines = Path(cfg.logits_file).read_text(encoding="utf-8").splitlines(keepends=True)
    layout, fragment = _BAD_UNNAMED[bad]
    lines.insert(2, layout % ", ".join(["0.25"] * (_vocab_size(fixtures_dir) - 1)) + "\n")
    Path(cfg.logits_file).write_text("".join(lines), encoding="utf-8")
    subset = tmp_path / "one.jsonl"
    subset.write_text(json.dumps({"guid": "s1", "meta": {"text": "a good plot"}}) + "\n")
    with pytest.raises(PromptPipeError) as failure:
        run_pipeline(dataclasses.replace(cfg, dataset=str(subset)))
    # what the reader that converts every record raises
    with pytest.raises(PromptPipeError) as expected:
        list(read_logits_records(cfg.logits_file, _vocab_size(fixtures_dir)))
    assert type(failure.value) is type(expected.value)
    assert str(failure.value) == str(expected.value)
    assert f"{cfg.logits_file}:3: " in str(failure.value) and fragment in str(failure.value)


@pytest.mark.parametrize("guids, message", [
    (5, "guids must be None or a collection of strings, got 5"),
    ("a", "guids must be None or a collection of strings, got 'a'"),
    (b"a", "guids must be None or a collection of strings, got b'a'"),
    (iter(["a"]), "guids must be None or a collection of strings, got <list_iterator"),
    (["a", 5], "guids must hold strings, got 5"),
    (("a", None), "guids must hold strings, got None"),
])
def test_scorer_guids_must_be_a_collection_of_strings(tmp_path, guids, message):
    from promptpipe.logits import LogitsFileScorer

    # checked at the call: the file need not exist
    with pytest.raises(ConfigError) as failure:
        LogitsFileScorer(tmp_path / "absent.jsonl", 3, None, guids)
    assert str(failure.value).startswith(message)


def test_scorer_keeps_only_the_named_guids(tmp_path):
    from promptpipe.logits import LogitsFileScorer

    logits = tmp_path / "logits.jsonl"
    logits.write_text("".join(json.dumps({"guid": g, "mask_logits": [[0.5, -1.0]]}) + "\n"
                              for g in ("a", "b", "c")))
    for guids, kept in [(None, ["a", "b", "c"]), (["c", "a", "z"], ["a", "c"]), (set(), [])]:
        assert list(LogitsFileScorer(logits, 2, None, guids).records) == kept


@pytest.mark.parametrize("scorer_kind", ["toy", "logits"])
@pytest.mark.parametrize("mask_count, error, message", [
    (0, DimensionMismatch, "mask_count must be >= 1, got 0"),
    (-1, DimensionMismatch, "mask_count must be >= 1, got -1"),
    ("1", ConfigError, "'mask_count' must be an integer, got '1'"),
    (1.0, ConfigError, "'mask_count' must be an integer, got 1.0"),
    (True, ConfigError, "'mask_count' must be an integer, got True"),
    (None, ConfigError, "'mask_count' must be an integer, got None"),
])
def test_scorer_rows_reject_a_bad_mask_count(fixtures_dir, tmp_path, scorer_kind, mask_count,
                                             error, message):
    from promptpipe import Vocab
    from promptpipe.logits import LogitsFileScorer
    from promptpipe.runner import ToyScorer

    if scorer_kind == "toy":
        scorer = ToyScorer({}, Vocab.from_file(fixtures_dir / "vocab.txt"))
    else:
        logits = tmp_path / "logits.jsonl"
        logits.write_text(json.dumps({"guid": "a", "mask_logits": [[0.5] * 113]}) + "\n")
        scorer = LogitsFileScorer(logits, 113)
    with pytest.raises(error) as failure:
        scorer.rows("a", mask_count)
    assert str(failure.value) == message
    # a good count still gives its rows
    assert scorer.rows("a", 1).shape == (1, 113)


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", '"high"', pytest.param("1" + "0" * 400, id="1e400")]
)
def test_bad_toy_frequency_rejected_at_load(fixtures_dir, tmp_path, value):
    from promptpipe import Vocab
    from promptpipe.runner import ToyScorer

    frequencies = tmp_path / "frequencies.json"
    frequencies.write_text('{"great": 3.0, "bad": %s}' % value)
    vocab = Vocab.from_file(fixtures_dir / "vocab.txt")
    with pytest.raises(ConfigError, match="frequencies.json.*'bad'"):
        ToyScorer.from_file(frequencies, vocab)
    with pytest.raises(PromptPipeError):
        run_pipeline(_config(fixtures_dir, tmp_path, frequency_file=str(frequencies)))
