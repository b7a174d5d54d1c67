"""The CLI is total over bad input: exit code 1 and one ``error:`` line."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptpipe import (
    Aggregation,
    Vocab,
    build_tokenizer,
    load_verbalizer,
    project,
)
from promptpipe import cli, runner
from promptpipe.__main__ import entry
from promptpipe.cli import main
from promptpipe.config import PipelineConfig
from promptpipe.errors import ConfigError
from promptpipe.runner import RunReport, run_pipeline
from promptpipe.textfile import write_jsonl


def _bad_aggregation(fixtures, tmp):
    logits = tmp / "logits.jsonl"
    logits.write_text("")
    argv = ["score", "--logits-file", str(logits), "--aggregation", "bogus",
            "--verbalizer", str(fixtures / "verbalizer.json"),
            "--vocab", str(fixtures / "vocab.txt")]
    return argv, ["'bogus'", "mean_log_prob, max, first"]


def _malformed_dataset_line(fixtures, tmp):
    dataset = tmp / "data.jsonl"
    dataset.write_text('{"guid": "a", "meta": {"text": "x"}}\n{"guid": "b", "meta": \n')
    argv = ["wrap", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(dataset)]
    return argv, [f"{dataset}:2: invalid JSON"]


def _duplicate_dataset_guid(fixtures, tmp):
    dataset = tmp / "data.jsonl"
    dataset.write_text("".join(
        json.dumps({"guid": guid, "meta": {"text": "x"}}) + "\n" for guid in "aba"))
    argv = ["tokenize", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(dataset), "--vocab", str(fixtures / "vocab.txt")]
    return argv, [f"{dataset}:3:", "line 1"]


def _blank_vocab_line(fixtures, tmp):
    vocab = tmp / "vocab.txt"
    tokens = (fixtures / "vocab.txt").read_text(encoding="utf-8").split("\n")
    vocab.write_text("\n".join(tokens[:5] + [""] + tokens[5:]), encoding="utf-8")
    logits = tmp / "logits.jsonl"
    logits.write_text("")
    argv = ["score", "--logits-file", str(logits),
            "--verbalizer", str(fixtures / "verbalizer.json"), "--vocab", str(vocab)]
    return argv, [f"{vocab}:6: blank line"]


def _invalid_utf8_dataset_line(fixtures, tmp):
    dataset = tmp / "data.jsonl"
    dataset.write_bytes(b'{"guid": "a", "meta": {"text": "x"}}\n'
                        b'{"guid": "b", "meta": {"text": "\xff"}}\n')
    argv = ["wrap", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(dataset)]
    return argv, [f"{dataset}:2: not valid UTF-8", "0xff"]


def _bad_template_node(fixtures, tmp):
    templates = tmp / "templates.txt"
    templates.write_text('{"mask"}\nIt is {"mask", "shortenable": true}\n')
    return ["parse", "--template-file", str(templates)], [f"{templates}:2:", "offset 6"]


def _text_initialized_soft_wrap(fixtures, tmp):
    # template 2 initializes a soft node from text, whose slots need a tokenizer
    template_file = fixtures / "templates_showcase.txt"
    argv = ["wrap", "--template-file", str(template_file), "--template-index", "2",
            "--dataset", str(fixtures / "sentiment.jsonl")]
    return argv, [f"{template_file} template 2", "text-initialized soft nodes"]


def _sample_k_zero(fixtures, tmp):
    argv = ["sample", "--dataset", str(fixtures / "topics.jsonl"), "--k", "0"]
    return argv, ["k_per_class must be >= 1, got 0"]


def _frequency_run(fixtures, tmp, frequencies: str) -> list[str]:
    path = tmp / "frequencies.json"
    path.write_text(frequencies, encoding="utf-8")
    return ["run", "--config", str(fixtures / "run_sentiment.yaml"), "--frequency-file", str(path),
            "--output", str(tmp / "out.jsonl")]


def _integer_frequency_beyond_float(fixtures, tmp):
    argv = _frequency_run(fixtures, tmp, '{"great": 1' + "0" * 400 + "}")
    return argv, [f"frequency file {tmp / 'frequencies.json'}", "'great'", "too large for a float"]


def _class_score_beyond_float(fixtures, tmp):
    # every label-word score is finite; positive's mean_log_prob sum is not
    argv = _frequency_run(fixtures, tmp, '{"great": 1e308}')
    return argv, ["guid 's1'", "beyond the float64 range"]


def _score_records(fixtures, tmp, records: dict[str, float]) -> list[str]:
    """``score`` on one single-row record per guid, whose "great" logit is given
    and every other logit 0."""
    tokens = (fixtures / "vocab.txt").read_text(encoding="utf-8").splitlines()
    lines = []
    for guid, great in records.items():
        row = [0.0] * len(tokens)
        row[tokens.index("great")] = great
        lines.append(json.dumps({"guid": guid, "mask_logits": [row]}) + "\n")
    logits = tmp / "logits.jsonl"
    logits.write_text("".join(lines))
    return ["score", "--logits-file", str(logits),
            "--verbalizer", str(fixtures / "verbalizer.json"),
            "--vocab", str(fixtures / "vocab.txt")]


def _score_beyond_float(fixtures, tmp):
    # run's message: the one file on the command line needs no naming
    argv = _score_records(fixtures, tmp, {"x": 1e308})
    return argv, ["error: guid 'x' has class scores beyond the float64 range"]


def _score_first_of_two_beyond_float(fixtures, tmp):
    argv = _score_records(fixtures, tmp, {"ok": 2.0, "y": 1e308, "z": 1e308})
    return argv, ["error: guid 'y' has class scores beyond the float64 range"]


def _wrap_missing_meta_key(fixtures, tmp):
    template = tmp / "title.txt"
    template.write_text('{"meta": "title"} {"mask"}\n')
    argv = ["wrap", "--template-file", str(template),
            "--dataset", str(fixtures / "sentiment.jsonl")]
    return argv, ["stage 'wrap' failed for guid 's1'", "no meta value for key 'title'"]


def _tokenize_template_too_long(fixtures, tmp):
    template = tmp / "fixed.txt"
    template.write_text('{"meta": "text", "shortenable": false} {"mask"}\n')
    argv = ["tokenize", "--template-file", str(template), "--max-len", "8",
            "--dataset", str(fixtures / "sentiment.jsonl"), "--vocab", str(fixtures / "vocab.txt")]
    return argv, ["stage 'encode' failed for guid 's1'", "exceeds max_len 8"]


def _tokenize_max_len_zero(fixtures, tmp):
    template = tmp / "text.txt"
    template.write_text('{"meta": "text"}\n')
    argv = ["tokenize", "--template-file", str(template), "--max-len", "0", "--no-special-tokens",
            "--dataset", str(fixtures / "sentiment.jsonl"), "--vocab", str(fixtures / "vocab.txt")]
    return argv, ["max_len must be positive"]


def _run_template_without_mask(fixtures, tmp):
    # class scores sum over mask positions, so set-up rejects the template
    source = 'It was {"meta": "text"}'
    template = tmp / "nomask.txt"
    template.write_text(source + "\n", encoding="utf-8")
    argv = _frequency_run(fixtures, tmp, "{}") + ["--templates", str(template)]
    return argv, [f"{template}: template {source!r}: template has no mask node"]


def _unknown_tokenizer_kind_flag(command: str):
    # the name is checked before any file is read, so the named files need not exist
    argv = {
        "plan": ["plan", "--template-file", "t.txt", "--vocab", "v.txt"],
        "tokenize": ["tokenize", "--template-file", "t.txt", "--dataset", "d.jsonl",
                     "--vocab", "v.txt"],
        "score": ["score", "--logits-file", "l.jsonl", "--verbalizer", "b.json",
                  "--vocab", "v.txt"],
        "run": ["run", "--templates", "t.txt", "--dataset", "d.jsonl"],
    }[command]

    def case(fixtures, tmp):
        return argv + ["--tokenizer-kind", "sentencepiece"], [
            "error: unknown tokenizer_kind 'sentencepiece'; expected one of whitespace, wordpiece"]

    case.__name__ = f"_{command}_unknown_tokenizer_kind_flag"
    return case


def _empty_label(command: str):
    def case(fixtures, tmp):
        dataset = tmp / "data.jsonl"
        dataset.write_text('{"guid": "a", "label": "positive", "meta": {"text": "x"}}\n'
                           '{"guid": "b", "label": "", "meta": {"text": "y"}}\n')
        argv = (["sample", "--k", "1", "--dataset", str(dataset)] if command == "sample"
                else _frequency_run(fixtures, tmp, "{}") + ["--dataset", str(dataset)])
        return argv, [f"{dataset}:2: 'label' must be a non-empty string when present, got ''"]

    case.__name__ = f"_{command}_empty_label"
    return case


def _empty_path_flag(command: str, flag: str):
    def case(fixtures, tmp):
        argv = {
            "run": ["run", "--config", str(fixtures / "run_sentiment.yaml")],
            "wrap": ["wrap", "--template-file", str(fixtures / "template_sentiment.txt"),
                     "--dataset", str(fixtures / "sentiment.jsonl")],
        }[command]
        # "" names no file: it is neither standard output nor "no results file"
        return argv + [flag, ""], [f"'{flag[2:]}' must be a file path, got ''"]

    case.__name__ = f"_{command}_empty_{flag[2:]}_flag"
    return case


def _config_case(name: str, text: str, *expected: str):
    def case(fixtures, tmp):
        config = tmp / name
        config.write_text(text, encoding="utf-8")
        return ["run", "--config", str(config)], [f"config file {config}", *expected]

    case.__name__ = f"_config_{name}"
    return case


_unclosed_yaml_list = _config_case("unclosed.yaml", "templates: [a.txt, b.txt\n", "not valid YAML")
_truncated_json = _config_case("truncated.json", '{"templates": ["a.txt"], "max_len": 3',
                               "not valid JSON")
_max_len_not_integer = _config_case("max_len.yaml", 'max_len: "abc"\n',
                                    "'max_len' must be an integer", "'abc'")
_boolean_not_boolean = _config_case("calibrate.yaml", "calibrate: 1\n",
                                    "'calibrate' must be true or false")
_templates_not_paths = _config_case("templates.yaml", "templates: {a: 1}\n",
                                    "'templates' must be a list of file paths")
# set-up checks these before it opens a file, so the named files need not exist
_empty_output = _config_case("empty_output.yaml", 'output: ""\n',
                             "'output' must be a file path, got ''")
_missing_dataset = _config_case(
    "no_dataset.yaml", "templates: [t.txt]\nvocab: v.txt\nverbalizer: b.json\n"
    "frequency_file: f.json\n", "config is missing 'dataset'")
_both_scorers = _config_case(
    "two_scorers.json", json.dumps({"templates": ["t.txt"], "dataset": "d.jsonl",
                                    "vocab": "v.txt", "verbalizer": "b.json",
                                    "logits_file": "l.jsonl", "frequency_file": "f.json"}),
    "exactly one model interface")


# the files fixtures/run_sentiment.yaml names
_RUN_FILES = ("template_sentiment.txt", "sentiment.jsonl", "vocab.txt", "verbalizer.json",
              "word_scores.json")


def _unknown_tokenizer_kind(fixtures, tmp):
    config = tmp / "kind.yaml"
    config.write_text((fixtures / "run_sentiment.yaml").read_text(encoding="utf-8")
                      .replace("tokenizer_kind: wordpiece", "tokenizer_kind: sentencepiece"))
    for name in _RUN_FILES:
        (tmp / name).write_bytes((fixtures / name).read_bytes())
    return ["run", "--config", str(config)], [f"config file {config}: unknown tokenizer_kind",
                                              "'sentencepiece'", "whitespace, wordpiece"]


@pytest.mark.parametrize(
    "case",
    [
        _unclosed_yaml_list,
        _truncated_json,
        _max_len_not_integer,
        _boolean_not_boolean,
        _templates_not_paths,
        _unknown_tokenizer_kind,
        _missing_dataset,
        _both_scorers,
        _bad_aggregation,
        _malformed_dataset_line,
        _duplicate_dataset_guid,
        _blank_vocab_line,
        _invalid_utf8_dataset_line,
        _bad_template_node,
        _text_initialized_soft_wrap,
        _sample_k_zero,
        _integer_frequency_beyond_float,
        _class_score_beyond_float,
        _score_beyond_float,
        _score_first_of_two_beyond_float,
        _wrap_missing_meta_key,
        _tokenize_template_too_long,
        _tokenize_max_len_zero,
        _run_template_without_mask,
        *map(_unknown_tokenizer_kind_flag, ["plan", "tokenize", "score", "run"]),
        *map(_empty_label, ["sample", "run"]),
        _empty_output,
        _empty_path_flag("run", "--output"),
        _empty_path_flag("wrap", "--output"),
        _empty_path_flag("wrap", "--dataset"),
    ],
)
def test_bad_input_gives_one_error_line(fixtures_dir, tmp_path, capsys, case):
    argv, expected = case(fixtures_dir, tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for part in expected:
        assert part in lines[0]
    assert "Traceback" not in captured.err


def test_main_leaves_the_collector_unfrozen(fixtures_dir, tmp_path, capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    argv = ["run", "--config", str(fixtures_dir / "run_sentiment.yaml"),
            "--output", str(tmp_path / "out.jsonl")]
    assert main(argv) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


class _Exited(Exception):
    """Raised by the test's ``os._exit``, which must not return."""


class _Stream:
    def __init__(self, name: str, calls: list):
        self.name, self.calls = name, calls

    def flush(self):
        self.calls.append(f"flush {self.name}")


@pytest.mark.parametrize("tool", [None, "gettrace", "getprofile"])
def test_the_process_entry_runs_main_with_the_collector_off_and_exits(monkeypatch, tool):
    # the process ends by os._exit with main's status once both streams are
    # flushed; under a tracer or a profiler, entry flushes them and returns the
    # status instead
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", calls))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", calls))

    def exit_(status):
        calls.append(f"exit {status}")
        raise _Exited

    monkeypatch.setattr(os, "_exit", exit_)
    for name in ("gettrace", "getprofile"):
        monkeypatch.setattr(sys, name, lambda name=name: print if name == tool else None)
    flushed = ["freeze", "disable", "main", "flush stdout", "flush stderr"]
    if tool is None:
        with pytest.raises(_Exited):
            entry()
        assert calls == [*flushed, "exit 7"]
    else:
        assert entry() == 7
        assert calls == flushed


def test_the_process_entry_lets_an_exit_from_main_through(monkeypatch):
    # argparse's --help and usage errors end the process the normal way
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr(gc, "disable", lambda: None)
    monkeypatch.setattr(os, "_exit", lambda status: pytest.fail("os._exit was called"))
    monkeypatch.setattr(cli, "main", lambda: sys.exit(2))
    with pytest.raises(SystemExit) as exit_:
        entry()
    assert exit_.value.code == 2


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("command", ["sample", "run"])
def test_a_closed_stdout_pipe_is_one_error_line_and_exit_1(fixtures_dir, tmp_path, command,
                                                           profiled):
    # stdout buffered, as it is without PYTHONUNBUFFERED, on a pipe whose reader
    # closed before the process started, so the flush of its one line fails;
    # under a profiler the process tears down, and its own flush must not fail
    # again (sys.setprofile, as cProfile's runner would swallow the exit status)
    argv = {"sample": ["sample", "--dataset", str(fixtures_dir / "topics.jsonl"), "--k", "2"],
            "run": ["run", "--config", str(fixtures_dir / "run_sentiment.yaml"),
                    "--output", str(tmp_path / "out.jsonl")]}[command]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    launch = ["-m", "promptpipe"]
    if profiled:
        launch = ["-c", "import sys; sys.setprofile(lambda *a: None); "
                        "sys.argv[0] = 'promptpipe'; "
                        "from promptpipe.__main__ import entry; sys.exit(entry())"]
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, *launch, *argv], stdout=write,
                             stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def _repeated_inputs(fixtures, tmp, times: int) -> tuple[Path, Path]:
    """The sentiment dataset ``times`` over, each copy's guids its own, and a
    logits file of one 4-decimal row per guid."""
    width = len((fixtures / "vocab.txt").read_text(encoding="utf-8").splitlines())
    examples = [json.loads(line)
                for line in (fixtures / "sentiment.jsonl").read_text(encoding="utf-8").splitlines()]
    records = [{**example, "guid": f"{example['guid']}-{k}"}
               for k in range(times) for example in examples]
    dataset, logits = tmp / f"data_{times}.jsonl", tmp / f"logits_{times}.jsonl"
    write_jsonl(records, dataset)
    write_jsonl(({"guid": record["guid"],
                  "mask_logits": [[round(math.sin(i + width * n), 4) for i in range(width)]]}
                 for n, record in enumerate(records)), logits)
    return dataset, logits


def _unreachable_after(argv: list[str]) -> int:
    """The objects ``gc.collect()`` finds unreachable after ``main(argv)`` runs
    with the collector off, as the process entry runs it."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", ["run_toy", "run_replay", "tokenize", "wrap", "score"])
def test_a_command_makes_no_reference_cycle_per_example(fixtures_dir, tmp_path, capsys, command):
    # the process entry turns the collector off, which is safe only while the
    # cycles a command leaves are the same in number at 1 and at 8 times the input
    def argv(times):
        dataset, logits = _repeated_inputs(fixtures_dir, tmp_path, times)
        files = {name: str(fixtures_dir / name)
                 for name in ("run_sentiment.yaml", "template_sentiment.txt", "vocab.txt",
                              "verbalizer.json")}
        data = ["--dataset", str(dataset)]
        return {
            "run_toy": ["run", "--config", files["run_sentiment.yaml"], *data],
            "run_replay": ["run", "--templates", files["template_sentiment.txt"],
                           "--vocab", files["vocab.txt"], "--verbalizer", files["verbalizer.json"],
                           "--logits-file", str(logits), *data],
            "tokenize": ["tokenize", "--template-file", files["template_sentiment.txt"],
                         "--vocab", files["vocab.txt"], *data],
            "wrap": ["wrap", "--template-file", files["template_sentiment.txt"], *data],
            "score": ["score", "--logits-file", str(logits), "--verbalizer",
                      files["verbalizer.json"], "--vocab", files["vocab.txt"]],
        }[command] + ["--output", str(tmp_path / "out.jsonl")]

    once, eight = argv(1), argv(8)
    _unreachable_after(once)  # a first run also leaves what its imports and caches make
    assert _unreachable_after(once) == _unreachable_after(eight)


def test_ensemble_of_finite_scores_near_the_float_limit_is_finite(fixtures_dir, tmp_path):
    # each template scores negative at about -1e308: finite, while the sum of
    # two such scores is not
    template = str(fixtures_dir / "template_sentiment.txt")
    argv = _frequency_run(fixtures_dir, tmp_path, '{"great": 1e308}') + ["--aggregation", "max"]
    assert main(argv + ["--templates", template]) == 0
    single = (tmp_path / "out.jsonl").read_bytes()
    assert main(argv + ["--templates", template] * 2) == 0
    assert (tmp_path / "out.jsonl").read_bytes() == single


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    records=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d", "e", "f", "__content_free__"]),
                  st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1)),
        max_size=6, unique_by=lambda record: record[0]),
    aggregation=st.sampled_from(Aggregation),
)
def test_score_writes_each_records_projection_in_file_order(
    fixtures_dir, records, aggregation
):
    # records of 1-3 rows, mixed in file order; small integer logits tie label
    # words and classes
    vocab = Vocab.from_file(fixtures_dir / "vocab.txt")
    tokenizer = build_tokenizer("wordpiece", vocab)
    verbalizer = load_verbalizer(fixtures_dir / "verbalizer.json", tokenizer)
    logits, expected = [], []
    for guid, n_rows, ties, seed in records:
        rng = np.random.default_rng(seed)
        shape = (n_rows, len(vocab))
        rows = (rng.integers(-2, 3, shape) if ties else rng.uniform(-30, 30, shape)).tolist()
        logits.append(json.dumps({"guid": guid, "mask_logits": rows}) + "\n")
        scores = project(rows, verbalizer, aggregation=aggregation)
        expected.append({"guid": guid, "predicted_class": scores.predicted_label,
                         "class_scores": list(scores.scores)})
    with tempfile.TemporaryDirectory() as directory:
        tmp = Path(directory)
        (tmp / "logits.jsonl").write_text("".join(logits), encoding="utf-8")
        write_jsonl(expected, tmp / "expected.jsonl")
        argv = ["score", "--logits-file", str(tmp / "logits.jsonl"),
                "--verbalizer", str(fixtures_dir / "verbalizer.json"),
                "--vocab", str(fixtures_dir / "vocab.txt"), "--aggregation", aggregation.value,
                "--output", str(tmp / "score.jsonl")]
        assert main(argv) == 0
        assert (tmp / "score.jsonl").read_bytes() == (tmp / "expected.jsonl").read_bytes()


# (flags, the config fields they set): every spelling `run` accepts, with both
# orders of each boolean pair (the last flag wins)
_FLAG_SPELLINGS = [
    ([], {}),
    (["--templates", "a.txt"], {"templates": ["a.txt"]}),
    (["--templates", "a.txt", "--templates", "b.txt"], {"templates": ["a.txt", "b.txt"]}),
    (["--add-special-tokens"], {"add_special_tokens": True}),
    (["--no-special-tokens"], {"add_special_tokens": False}),
    (["--no-special-tokens", "--add-special-tokens"], {"add_special_tokens": True}),
    (["--add-special-tokens", "--no-special-tokens"], {"add_special_tokens": False}),
    (["--calibrate"], {"calibrate": True}),
    (["--no-calibrate"], {"calibrate": False}),
    (["--no-calibrate", "--calibrate"], {"calibrate": True}),
    (["--calibrate", "--no-calibrate"], {"calibrate": False}),
    (["--max-len", "7"], {"max_len": 7}),
    (["--seed", "-3"], {"seed": -3}),
    (["--tokenizer-kind", "whitespace"], {"tokenizer_kind": "whitespace"}),
    (["--tokenizer-kind", "wordpiece"], {"tokenizer_kind": "wordpiece"}),
    (["--dataset", "d.jsonl", "--vocab", "v.txt", "--verbalizer", "b.json",
      "--aggregation", "max", "--output", "o.jsonl"],
     {"dataset": "d.jsonl", "vocab": "v.txt", "verbalizer": "b.json", "aggregation": "max",
      "output": "o.jsonl"}),
    (["--frequency-file", "f.json"], {"frequency_file": "f.json"}),
]


def _run_config(monkeypatch, argv: list[str]) -> PipelineConfig:
    """The config ``run`` builds from ``argv``, without running it."""
    built = []

    def run_pipeline(cfg):
        built.append(cfg)
        return RunReport(results=[], accuracy=None, n_examples=0, n_labeled=0)

    monkeypatch.setattr(runner, "run_pipeline", run_pipeline)
    assert main(["run", *argv]) == 0
    return built[0]


@pytest.mark.parametrize("flags, fields", _FLAG_SPELLINGS)
def test_run_flags_parse_to_the_same_config(fixtures_dir, monkeypatch, capsys, flags, fields):
    assert _run_config(monkeypatch, flags) == PipelineConfig(**fields)
    config = fixtures_dir / "run_sentiment.yaml"
    # an absent flag leaves the file's value; a given one overrides it
    expected = dataclasses.replace(PipelineConfig.from_file(config), **fields)
    assert _run_config(monkeypatch, ["--config", str(config), *flags]) == expected


def test_logits_file_flag_parses(monkeypatch, capsys):
    assert _run_config(monkeypatch, ["--logits-file", "l.jsonl"]) == PipelineConfig(
        logits_file="l.jsonl"
    )


@pytest.mark.parametrize("flags", [["--max-len", "x"], ["--seed", "1.5"]])
def test_run_flag_types_are_checked_by_argparse(monkeypatch, capsys, flags):
    with pytest.raises(SystemExit) as exit_:
        _run_config(monkeypatch, flags)
    assert exit_.value.code == 2


def test_run_help_offers_one_flag_per_config_field(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    options = capsys.readouterr().out.split("options:")[1]
    offered = re.findall(r"^  (--[a-z-]+)", options, flags=re.MULTILINE)
    fields = ["--" + f.name.replace("_", "-") for f in dataclasses.fields(PipelineConfig)]
    negations = ["--no-special-tokens", "--no-calibrate"]
    assert sorted(offered) == sorted(["--config", *fields, *negations])


# (command line with every flag spelled, the values it parses to) for each
# subcommand but `run`, whose spellings are checked above
_COMMAND_LINES = [
    (["parse", "--template-file", "t.txt", "--meta-keys", "a,b", "--output", "o.jsonl"],
     {"template_file": "t.txt", "meta_keys": "a,b", "output": "o.jsonl"}),
    (["wrap", "--template-file", "t.txt", "--template-index", "2", "--dataset", "d.jsonl",
      "--output", "o.jsonl"],
     {"template_file": "t.txt", "template_index": 2, "dataset": "d.jsonl", "output": "o.jsonl"}),
    (["tokenize", "--template-file", "t.txt", "--template-index", "1", "--dataset", "d.jsonl",
      "--vocab", "v.txt", "--tokenizer-kind", "whitespace", "--max-len", "7",
      "--no-special-tokens", "--output", "o.jsonl"],
     {"template_file": "t.txt", "template_index": 1, "dataset": "d.jsonl", "vocab": "v.txt",
      "tokenizer_kind": "whitespace", "max_len": 7, "add_special_tokens": False,
      "output": "o.jsonl"}),
    (["plan", "--template-file", "t.txt", "--template-index", "3", "--vocab", "v.txt",
      "--tokenizer-kind", "whitespace", "--output", "o.json"],
     {"template_file": "t.txt", "template_index": 3, "vocab": "v.txt",
      "tokenizer_kind": "whitespace", "output": "o.json"}),
    (["sample", "--dataset", "d.jsonl", "--k", "2", "--seed", "-5", "--lenient",
      "--output", "o.jsonl"],
     {"dataset": "d.jsonl", "k": 2, "seed": -5, "lenient": True, "output": "o.jsonl"}),
    (["score", "--logits-file", "l.jsonl", "--verbalizer", "b.json", "--vocab", "v.txt",
      "--tokenizer-kind", "whitespace", "--aggregation", "max", "--output", "o.jsonl"],
     {"logits_file": "l.jsonl", "verbalizer": "b.json", "vocab": "v.txt",
      "tokenizer_kind": "whitespace", "aggregation": "max", "output": "o.jsonl"}),
]

# each subcommand's required flags, and the config fields its optional flags set
_MINIMAL_COMMAND_LINES = [
    (["parse", "--template-file", "t.txt"], ["output"]),
    (["wrap", "--template-file", "t.txt", "--dataset", "d.jsonl"], ["output"]),
    (["tokenize", "--template-file", "t.txt", "--dataset", "d.jsonl", "--vocab", "v.txt"],
     ["tokenizer_kind", "max_len", "add_special_tokens", "output"]),
    (["plan", "--template-file", "t.txt", "--vocab", "v.txt"], ["tokenizer_kind", "output"]),
    (["sample", "--dataset", "d.jsonl", "--k", "2"], ["seed", "output"]),
    (["score", "--logits-file", "l.jsonl", "--verbalizer", "b.json", "--vocab", "v.txt"],
     ["tokenizer_kind", "aggregation", "output"]),
]


def _parsed(argv: list[str], names) -> dict:
    args = cli.build_parser().parse_args(argv)
    return {name: getattr(args, name) for name in names}


@pytest.mark.parametrize("argv, values", _COMMAND_LINES, ids=[a[0] for a, _ in _COMMAND_LINES])
def test_every_flag_of_a_command_parses(argv, values):
    assert _parsed(argv, values) == values


@pytest.mark.parametrize("argv, omitted", _MINIMAL_COMMAND_LINES,
                         ids=[a[0] for a, _ in _MINIMAL_COMMAND_LINES])
def test_an_omitted_config_flag_takes_the_field_default(argv, omitted):
    defaults = PipelineConfig()
    assert _parsed(argv, omitted) == {name: getattr(defaults, name) for name in omitted}


def test_every_flag_of_a_command_is_in_the_table(capsys):
    # no subcommand offers a flag the table above does not spell
    for argv, values in _COMMAND_LINES:
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        options = capsys.readouterr().out.split("options:")[1]
        offered = set(re.findall(r"^  (--[a-z-]+)", options, flags=re.MULTILINE))
        assert offered == {arg for arg in argv if arg.startswith("--")}


@pytest.mark.parametrize("argv", [
    ["tokenize", "--template-file", "t.txt", "--dataset", "d.jsonl", "--vocab", "v.txt",
     "--max-len", "x"],
])
def test_command_flag_types_are_checked_by_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2


# (golden file, the command line that made it); `sample`'s golden is checked in test_runner
_CLI_GOLDENS = [
    ("parse_showcase.jsonl", ["parse", "--template-file", "templates_showcase.txt",
                              "--meta-keys", "title,description"]),
    ("wrap_sentiment.jsonl", ["wrap", "--template-file", "template_sentiment.txt",
                              "--dataset", "sentiment.jsonl"]),
    ("tokenize_sentiment.jsonl", ["tokenize", "--template-file", "template_sentiment.txt",
                                  "--dataset", "sentiment.jsonl", "--vocab", "vocab.txt",
                                  "--max-len", "32"]),
]


@pytest.mark.parametrize("golden, argv", _CLI_GOLDENS, ids=[g for g, _ in _CLI_GOLDENS])
def test_command_reproduces_its_golden(fixtures_dir, tmp_path, golden, argv):
    out = tmp_path / golden
    argv = [str(fixtures_dir / arg) if (fixtures_dir / arg).is_file() else arg for arg in argv]
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / "golden" / golden).read_bytes()


# the commands that build no array, on the fixtures
_ARRAY_FREE_COMMANDS = [
    ["parse", "--template-file", "templates_showcase.txt", "--meta-keys", "title,description"],
    ["wrap", "--template-file", "template_sentiment.txt", "--dataset", "sentiment.jsonl"],
    ["sample", "--dataset", "topics.jsonl", "--k", "2", "--seed", "7"],
    ["plan", "--template-file", "templates_showcase.txt", "--vocab", "vocab.txt"],
    ["tokenize", "--template-file", "template_sentiment.txt", "--dataset", "sentiment.jsonl",
     "--vocab", "vocab.txt", "--max-len", "32"],
]


@pytest.mark.parametrize("argv", _ARRAY_FREE_COMMANDS, ids=lambda argv: argv[0])
def test_a_command_that_builds_no_array_leaves_numpy_unimported(fixtures_dir, tmp_path, argv):
    # python -m promptpipe in a fresh interpreter, whose modules are listed as it
    # ends: by os._exit, which skips atexit handlers
    argv = [str(fixtures_dir / arg) if (fixtures_dir / arg).is_file() else arg for arg in argv]
    code = ("import os, runpy, sys\n"
            "hard_exit = os._exit\n"
            "def report(status):\n"
            "    print('numpy' in sys.modules, flush=True)\n"
            "    hard_exit(status)\n"
            "os._exit = report\n"
            "runpy.run_module('promptpipe', run_name='__main__', alter_sys=True)\n")
    src = Path(cli.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code, *argv, "--output", str(tmp_path / "out")],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "False\n")


# --- one rule for a named choice ----------------------------------------------
# Each surface returns its output bytes, or None when it rejects the value.

def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _logits_rows(width: int) -> list[list[float]]:
    # two rows whose label words score unevenly, so aggregations differ
    return [[(i * 7 % 13) / 4 for i in range(width)], [(i * 5 % 11) / 3 for i in range(width)]]


def _output(argv: list[str], out) -> bytes | None:
    return out.read_bytes() if main([*argv, "--output", str(out)]) == 0 else None


def _via_config_file(fixtures, tmp, field, value):
    for name in _RUN_FILES:
        (tmp / name).write_bytes((fixtures / name).read_bytes())
    default = getattr(PipelineConfig(), field)
    config = tmp / "run.yaml"
    config.write_text((fixtures / "run_sentiment.yaml").read_text(encoding="utf-8")
                      .replace(f"{field}: {default}\n", f"{field}: {json.dumps(value)}\n"))
    return _output(["run", "--config", str(config)], tmp / "run.jsonl")


def _via_run_flag(fixtures, tmp, field, value):
    argv = ["run", "--config", str(fixtures / "run_sentiment.yaml"), _flag(field), value]
    return _output(argv, tmp / "run.jsonl")


def _via_tokenize_flag(fixtures, tmp, field, value):
    argv = ["tokenize", "--template-file", str(fixtures / "template_sentiment.txt"),
            "--dataset", str(fixtures / "sentiment.jsonl"), "--vocab", str(fixtures / "vocab.txt"),
            "--max-len", "32", _flag(field), value]
    return _output(argv, tmp / "tokenize.jsonl")


def _via_plan_flag(fixtures, tmp, field, value):
    # template 2 initializes a soft node from text, so its plan depends on the tokenizer
    argv = ["plan", "--template-file", str(fixtures / "templates_showcase.txt"),
            "--template-index", "2", "--vocab", str(fixtures / "vocab.txt"), _flag(field), value]
    return _output(argv, tmp / "plan.json")


def _via_score_flag(fixtures, tmp, field, value):
    width = len(Vocab.from_file(fixtures / "vocab.txt"))
    logits = tmp / "logits.jsonl"
    logits.write_text(json.dumps({"guid": "q", "mask_logits": _logits_rows(width)}) + "\n")
    argv = ["score", "--logits-file", str(logits), "--verbalizer", str(fixtures / "verbalizer.json"),
            "--vocab", str(fixtures / "vocab.txt"), _flag(field), value]
    return _output(argv, tmp / "score.jsonl")


def _via_api(fixtures, tmp, field, value):
    cfg = dataclasses.replace(
        PipelineConfig.from_file(fixtures / "run_sentiment.yaml"), output=None, **{field: value})
    vocab = Vocab.from_file(fixtures / "vocab.txt")
    rows = _logits_rows(len(vocab))
    try:
        tokenizer = build_tokenizer(cfg.tokenizer_kind, vocab)
        verbalizer = load_verbalizer(fixtures / "verbalizer.json", tokenizer)
        return json.dumps([
            run_pipeline(cfg).results,
            tokenizer.encode("the greatest"),
            project(rows, verbalizer, aggregation=cfg.aggregation).scores,
        ]).encode()
    except ConfigError:
        return None


# (surface, the fields it takes)
_SURFACES = [
    (_via_config_file, ["tokenizer_kind", "aggregation"]),
    (_via_run_flag, ["tokenizer_kind", "aggregation"]),
    (_via_tokenize_flag, ["tokenizer_kind"]),
    (_via_plan_flag, ["tokenizer_kind"]),
    (_via_score_flag, ["tokenizer_kind", "aggregation"]),
    (_via_api, ["tokenizer_kind", "aggregation"]),
]
# (field, spelling, the member value it names)
_SPELLINGS = [
    ("tokenizer_kind", "WordPiece", "wordpiece"),
    ("tokenizer_kind", " wordpiece ", "wordpiece"),
    ("aggregation", "MAX", "max"),
    ("aggregation", "Mean-Log-Prob", "mean_log_prob"),
]
_SPELLED = [
    pytest.param(surface, field, spelling, name,
                 id=f"{surface.__name__[5:]}-{spelling.replace(' ', '_')}")
    for surface, fields in _SURFACES
    for field, spelling, name in _SPELLINGS
    if field in fields
]


@pytest.mark.parametrize("surface, field, spelling, name", _SPELLED)
def test_a_spelled_name_gives_the_canonical_names_bytes_everywhere(
    fixtures_dir, tmp_path, capsys, surface, field, spelling, name
):
    outputs = []
    for i, value in enumerate((spelling, name, "bogus")):
        (tmp_path / str(i)).mkdir()
        outputs.append(surface(fixtures_dir, tmp_path / str(i), field, value))
    spelled, canonical, bogus = outputs
    assert canonical is not None and spelled == canonical
    # the surface reads the field: it rejects an unknown name
    assert bogus is None
