"""Tests of the benchmark itself: input generator, oracle, checker, trace."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import probe  # noqa: E402
import run  # noqa: E402
import traced_run  # noqa: E402
import workloads  # noqa: E402
from promptpipe.runner import PipelineConfig, run_pipeline  # noqa: E402

FIXTURES = HERE.parent / "fixtures"
SMALL = 6


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_same_bytes_and_other_seed_differs(tmp_path, name):
    workloads.generate(name, 5, tmp_path / "a", SMALL)
    workloads.generate(name, 5, tmp_path / "b", SMALL)
    workloads.generate(name, 6, tmp_path / "c", SMALL)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a["data.jsonl"] != c["data.jsonl"]


def test_oracle_reproduces_golden_run():
    tokens = (FIXTURES / "vocab.txt").read_text(encoding="utf-8").splitlines()
    wp = workloads.WordPiece(tokens)
    frequencies = json.loads((FIXTURES / "word_scores.json").read_text(encoding="utf-8"))
    verbalizer = json.loads((FIXTURES / "verbalizer.json").read_text(encoding="utf-8"))
    row = workloads._toy_row(tokens, frequencies)
    word_ids = [[wp.encode(w) for w in words] for words in verbalizer.values()]
    expected = workloads.class_scores(workloads.log_softmax(row)[None, :], word_ids, "mean_log_prob")
    examples = [json.loads(line) for line in (FIXTURES / "sentiment.jsonl").open()]
    golden = [json.loads(line) for line in (FIXTURES / "golden" / "run_sentiment.jsonl").open()]
    assert len(golden) == len(examples)
    for example, record in zip(examples, golden):
        assert np.max(np.abs(np.asarray(record["class_scores"]) - expected)) <= 1e-12
        assert record["wrapped_text"] == workloads.wrapped_text(
            workloads.SENTIMENT, example["meta"], wp)
    template_lines = (FIXTURES / "template_sentiment.txt").read_text().splitlines()
    assert workloads.template_source(workloads.SENTIMENT) in template_lines


def _program_output(w, path: Path) -> Path:
    run_pipeline(PipelineConfig.from_file(w.config, {"output": str(path)}))
    return path


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_program_output_passes_oracle_and_traced_run_matches(tmp_path, name):
    w = workloads.generate(name, 3, tmp_path / "in", SMALL)
    out = _program_output(w, tmp_path / "out.jsonl")
    assert workloads.count_failed(w, out) == 0

    tracer = traced_run.Tracer()
    cfg = PipelineConfig.from_file(w.config)
    facts, context = traced_run.run(cfg, str(tmp_path / "t.jsonl"), tracer)
    facts["tokens"] = traced_run.count_tokens(cfg, *context)
    assert (tmp_path / "t.jsonl").read_bytes() == out.read_bytes()
    dump = {"spans": tracer.dump(), "failed": tracer.failed, "count_s": 0.0, **facts}
    metrics = run.layer_metrics(w, [json.loads(json.dumps(dump))], [1.0], [1.0])
    assert metrics["runner.examples"]["value"] == SMALL
    assert metrics["tokenization.tokens_in_per_call"]["value"] == pytest.approx(
        w.summary["pieces_before_per_call"])
    assert metrics["tokenization.tokens_out_per_call"]["value"] == pytest.approx(
        w.summary["pieces_after_per_call"])
    assert all(metrics[f"{layer}.failed"]["value"] == 0 for layer in run.LAYERS)


def test_checker_counts_altered_records(tmp_path):
    w = workloads.generate("short_ensemble", 4, tmp_path / "in", SMALL)
    out = _program_output(w, tmp_path / "out.jsonl")
    lines = out.read_text(encoding="utf-8").splitlines()

    def failed_with(new_lines) -> int:
        altered = tmp_path / "altered.jsonl"
        altered.write_text("".join(line + "\n" for line in new_lines), encoding="utf-8")
        return workloads.count_failed(w, altered)

    record = json.loads(lines[2])
    record["class_scores"][0] += 1e-6
    assert failed_with(lines[:2] + [json.dumps(record)] + lines[3:]) == 1
    record = json.loads(lines[1])
    record["wrapped_text"] += " "
    assert failed_with(lines[:1] + [json.dumps(record)] + lines[2:]) == 1
    assert failed_with(lines[:-1]) == 1
    assert failed_with(lines + lines[:1]) == 1
    assert failed_with(lines) == 0


@pytest.mark.parametrize("kind", sorted(set(run.PROBE_KIND.values())))
def test_host_probe_runs_each_kind(tmp_path, kind):
    probe = run.HostProbe(kind, tmp_path, tmp_path / "probe.log")
    assert probe.speed() > 0


def test_probe_refuses_unknown_arguments():
    assert probe.main(["python"]) == 0
    assert probe.main(["json"]) == 2
    assert probe.main(["other"]) == 2
