"""Traced, outside-in reconstruction of ``promptpipe run``.

Usage: python traced_run.py CONFIG OUTPUT SPANS [--count]

It makes the calls ``runner._setup`` and ``runner._Pipeline.process``
make, in the same order, through promptpipe's public functions, and
records a span around each call: layer-qualified name, guid, parent
span, start and end (``perf_counter_ns``). Spans stay in memory and are
written to SPANS as JSON when the run ends. Records are written to
OUTPUT exactly as ``run_pipeline`` writes them, so the harness can
require the two outputs to be byte-identical.

A ``PromptPipeError`` is counted against the layer whose call raised
it. A failing example is dropped from OUTPUT, which the harness then
reports as a mismatch.

With ``--count``, after the traced pass and outside every span, each
example is wrapped and encoded once more to count tokenizer work:
pieces before and after truncation, truncated calls and UNK pieces.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

from promptpipe.data import load_jsonl
from promptpipe.errors import ConfigError, DimensionMismatch, PromptPipeError
from promptpipe.runner import LogitsFileScorer, PipelineConfig, ToyScorer, ensemble_scores
from promptpipe.soft_plan import build_soft_plan
from promptpipe.template import load_template_file
from promptpipe.tokenization import Vocab, build_tokenizer, encode_wrapped
from promptpipe.verbalizer import load_verbalizer, project
from promptpipe.wrapping import wrap_example, wrapped_text


class Tracer:
    """Spans kept column-wise: names, guids, parents, starts and ends.

    Flat lists of strings and integers hold no per-span container, so
    the garbage collector's work does not grow with the span count.
    """

    def __init__(self):
        self.names: list[str] = []
        self.guids: list[str | None] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.failed: dict[str, int] = {}
        self._open = -1

    def call(self, name: str, guid: str | None, fn, *args, **kwargs):
        parent = self._open
        index = self._open = len(self.names)
        self.names.append(name)
        self.guids.append(guid)
        self.parents.append(parent)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        except PromptPipeError as exc:
            # count an error once, against the innermost call that raised it
            if not hasattr(exc, "traced_layer"):
                exc.traced_layer = name.split(".", 1)[0]
                self.failed[exc.traced_layer] = self.failed.get(exc.traced_layer, 0) + 1
            raise
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._open = parent

    def dump(self) -> dict:
        return {
            "name": self.names,
            "guid": self.guids,
            "parent": self.parents,
            "start_ns": self.starts,
            "end_ns": self.ends,
        }


def run(cfg: PipelineConfig, output: str, t: Tracer) -> tuple[dict, tuple]:
    """Set up, process every example and write OUTPUT.

    Returns the run's facts and what ``count_tokens`` needs.
    """
    cfg.validate()
    if cfg.calibrate:
        raise ConfigError("the traced run reconstructs uncalibrated runs only")
    templates = []
    for path in cfg.templates:
        templates.extend(t.call("template.load", None, load_template_file, path))
    vocab = t.call("tokenization.vocab_load", None, Vocab.from_file, cfg.vocab)
    tokenizer = t.call("tokenization.build", None, build_tokenizer, cfg.tokenizer_kind, vocab)
    verbalizer = t.call("verbalizer.load", None, load_verbalizer, cfg.verbalizer, tokenizer)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if cfg.frequency_file is not None:
        scorer = t.call("runner.scorer_load", None, ToyScorer.from_file, cfg.frequency_file, vocab)
    else:
        scorer = t.call("runner.scorer_load", None, LogitsFileScorer, cfg.logits_file, len(vocab))
    scorer_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
    plans = [t.call("soft_plan.build", None, build_soft_plan, ast, tokenizer) for ast in templates]
    dataset = t.call("data.load", None, load_jsonl, cfg.dataset)

    def score(guid, tokenized):
        rows = scorer(guid, tokenized)
        if np.asarray(rows).shape[0] != len(tokenized.mask_positions):
            raise DimensionMismatch(
                f"scorer returned {np.asarray(rows).shape[0]} rows for "
                f"{len(tokenized.mask_positions)} mask positions"
            )
        return rows

    def process(example):
        guid = example.guid
        per_template = []
        text = ""
        for index, (ast, plan) in enumerate(zip(templates, plans)):
            wrapped = t.call("wrapping.wrap", guid, wrap_example, ast, example, plan)
            if index == 0:
                text = t.call("wrapping.text", guid, wrapped_text, wrapped)
            tokenized = t.call(
                "tokenization.encode", guid, encode_wrapped, wrapped, tokenizer,
                cfg.max_len, add_special_tokens=cfg.add_special_tokens,
            )
            rows = t.call("runner.score", guid, score, guid, tokenized)
            per_template.append(
                t.call("verbalizer.project", guid, project, rows, verbalizer,
                       aggregation=cfg.aggregation, calibration=None)
            )
        combined = t.call("runner.ensemble", guid, ensemble_scores, per_template)
        return {
            "guid": guid,
            "wrapped_text": text,
            "predicted_class": combined.predicted_label,
            "class_scores": [float(s) for s in combined.scores],
        }

    results = []
    rows_projected = 0
    for example in dataset.examples:
        try:
            results.append(t.call("runner.example", example.guid, process, example))
        except PromptPipeError:
            continue
        rows_projected += sum(ast.mask_count for ast in templates)

    def write():
        with open(output, "w", encoding="utf-8") as handle:
            for record in results:
                handle.write(json.dumps(record, ensure_ascii=False))
                handle.write("\n")

    t.call("runner.write", None, write)
    facts = {"n": len(dataset), "rows_projected": rows_projected, "scorer_rss_kb": scorer_rss_kb}
    return facts, (templates, plans, tokenizer, dataset)


def count_tokens(cfg: PipelineConfig, templates, plans, tokenizer, dataset) -> dict:
    """Tokenizer work per encode call, measured on the program's output."""
    n_special = 2 if cfg.add_special_tokens else 0
    unk_id = tokenizer.vocab.unk_id
    calls = pieces_in = pieces_out = truncated = unk = 0
    for example in dataset.examples:
        for ast, plan in zip(templates, plans):
            wrapped = wrap_example(ast, example, plan)
            before = 0
            for seg in wrapped.segments:
                if seg.is_mask or seg.soft_slot is not None:
                    before += 1
                elif seg.text:
                    ids = tokenizer.encode(seg.text)
                    before += len(ids)
                    unk += ids.count(unk_id)
            tokenized = encode_wrapped(
                wrapped, tokenizer, cfg.max_len, add_special_tokens=cfg.add_special_tokens
            )
            after = sum(tokenized.attention_mask) - n_special
            calls += 1
            pieces_in += before
            pieces_out += after
            truncated += after < before
    return {
        "calls": calls,
        "pieces_in": pieces_in,
        "pieces_out": pieces_out,
        "truncated": truncated,
        "unk": unk,
    }


def main(argv: list[str]) -> int:
    config, output, spans_path = argv[:3]
    cfg = PipelineConfig.from_file(config)
    tracer = Tracer()
    facts: dict = {"count_s": 0.0}
    status = 0
    try:
        run_facts, context = run(cfg, output, tracer)
        facts.update(run_facts)
        if "--count" in argv:
            started = time.perf_counter()
            facts["tokens"] = count_tokens(cfg, *context)
            facts["count_s"] = time.perf_counter() - started
    except PromptPipeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        status = 1
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.dump(), "failed": tracer.failed, **facts}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
