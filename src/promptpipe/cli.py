"""Command-line interface.

One subcommand per pipeline stage for debuggability (`parse`, `wrap`,
`tokenize`, `plan`, `sample`, `score`) plus `run` for the full
configuration-driven pipeline. A flag that sets a config field is the
field's name in kebab case, and every command builds it, its default and
its check from the field's ``CONFIG_SCHEMA`` entry (:func:`_add_config_args`).
A ``run`` flag overrides the config file's value.
"""

from __future__ import annotations

import argparse
import sys

from .config import CONFIG_SCHEMA, PipelineConfig
from .data import example_to_dict, fewshot_sample, load_jsonl
from .errors import ConfigError, PipelineStageError, PromptPipeError
from .soft_plan import assign_soft_slots, build_soft_plan
from .template import load_template_file, serialize_template, validate_template
from .textfile import write_jsonl, write_lines
from .tokenization import CompiledTemplate, Vocab, build_tokenizer
from .wrapping import TemplateLayout


def _node_to_dict(node) -> dict:
    out: dict = {"kind": node.kind.value}
    if node.text is not None:
        out["text"] = node.text
    if node.meta_key is not None:
        out["meta_key"] = node.meta_key
    if node.soft_id is not None:
        out["soft_id"] = node.soft_id
    if node.duplicate != 1:
        out["duplicate"] = node.duplicate
    out["shortenable"] = node.shortenable
    if node.post_processing is not None:
        out["post_processing"] = node.post_processing.value
    return out


def cmd_parse(args) -> int:
    templates = load_template_file(args.template_file)
    known = set(args.meta_keys.split(",")) if args.meta_keys else None
    records = []
    for ast in templates:
        record = {
            "source": ast.source,
            "canonical": serialize_template(ast),
            "nodes": [_node_to_dict(n) for n in ast.nodes],
        }
        if known is not None:
            record["diagnostics"] = [
                {"code": d.code, "message": d.message, "node_index": d.node_index}
                for d in validate_template(ast, known)
            ]
        records.append(record)
    write_jsonl(records, args.output)
    return 0


def _single_template(args):
    templates = load_template_file(args.template_file)
    if not templates:
        raise PromptPipeError(f"no templates in {args.template_file}")
    index = args.template_index
    if not 0 <= index < len(templates):
        raise PromptPipeError(
            f"template index {index} out of range (file has {len(templates)})"
        )
    return templates[index]


def _staged(stage: str, guid: str, step, value):
    """``step(value)``; an error names the example's guid and the stage, as ``run``'s do."""
    try:
        return step(value)
    except PromptPipeError as exc:
        raise PipelineStageError(guid, stage, exc) from exc


def cmd_wrap(args) -> int:
    ast = _single_template(args)
    try:
        layout = TemplateLayout(ast, assign_soft_slots(ast))
    except ConfigError as exc:
        raise ConfigError(f"{args.template_file} template {args.template_index}: {exc}") from None
    dataset = load_jsonl(args.dataset)
    records = []
    for example in dataset:
        values = _staged("wrap", example.guid, layout.resolve, example)
        records.append({"guid": example.guid, "wrapped_text": layout.render(values)})
    write_jsonl(records, args.output)
    return 0


def cmd_tokenize(args) -> int:
    ast = _single_template(args)
    vocab = Vocab.from_file(args.vocab)
    tokenizer = build_tokenizer(args.tokenizer_kind, vocab)
    template = CompiledTemplate(ast, tokenizer, args.max_len, args.add_special_tokens)
    dataset = load_jsonl(args.dataset)
    records = []
    for example in dataset:
        values = _staged("wrap", example.guid, template.resolve, example)
        encoded = _staged("encode", example.guid, template.encode, values)
        records.append({"guid": example.guid, **encoded.to_dict()})
    write_jsonl(records, args.output)
    return 0


def cmd_plan(args) -> int:
    ast = _single_template(args)
    vocab = Vocab.from_file(args.vocab)
    tokenizer = build_tokenizer(args.tokenizer_kind, vocab)
    write_lines([build_soft_plan(ast, tokenizer).to_json() + "\n"], args.output)
    return 0


def cmd_sample(args) -> int:
    dataset = load_jsonl(args.dataset)
    sampled = fewshot_sample(dataset, args.k, args.seed, strict=not args.lenient)
    write_jsonl(map(example_to_dict, sampled), args.output)
    return 0


def cmd_score(args) -> int:
    from .runner import _score_logits_file  # only score and run load numpy
    records = _score_logits_file(args.logits_file, args.vocab, args.verbalizer,
                                 args.tokenizer_kind, args.aggregation)
    write_jsonl(records, args.output)
    return 0


def cmd_run(args) -> int:
    from .runner import run_pipeline
    overrides = {name: getattr(args, name) for name in CONFIG_SCHEMA}
    if args.config:
        cfg = PipelineConfig.from_file(args.config, overrides)
    else:
        cfg = PipelineConfig(**{k: v for k, v in overrides.items() if v is not None})
    report = run_pipeline(cfg)
    summary = {
        "n_examples": report.n_examples,
        "n_labeled": report.n_labeled,
        "accuracy": report.accuracy,
    }
    write_jsonl([summary])
    return 0


def _add_template_args(parser, with_index: bool = True) -> None:
    parser.add_argument("--template-file", required=True, help="template text file")
    if with_index:
        parser.add_argument(
            "--template-index", type=int, default=0, help="which template line to use"
        )


def _add_config_args(parser, required, optional, run: bool = False) -> None:
    """One flag per named config field, its keywords from the field's schema entry.

    A ``run`` flag defaults to ``None`` and a boolean has both spellings.
    Elsewhere a flag takes the field's default, a boolean only the spelling
    that changes it, and :func:`main` checks the values.
    """
    defaults = PipelineConfig()
    for name in (*required, *optional):
        setting = CONFIG_SCHEMA[name]
        default = None if run else getattr(defaults, name)
        if run or not (setting.negation and default):
            parser.add_argument("--" + name.replace("_", "-"), dest=name, default=default,
                                required=name in required, **setting.flag)
        if setting.negation and (run or default):
            said = setting.flag.get("help")
            parser.add_argument(setting.negation, dest=name, action="store_false",
                                help=said and "do not " + said)
    parser.set_defaults(checked=() if run else (*required, *optional))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptpipe",
        description="Prompt template compiler and classification scoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse templates and print their structure")
    _add_template_args(p, with_index=False)
    p.add_argument("--meta-keys", help="comma-separated keys to validate against")
    _add_config_args(p, [], ["output"])
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("wrap", help="wrap a dataset with one template")
    _add_template_args(p)
    _add_config_args(p, ["dataset"], ["output"])
    p.set_defaults(func=cmd_wrap)

    p = sub.add_parser("tokenize", help="wrap and encode a dataset")
    _add_template_args(p)
    _add_config_args(p, ["dataset", "vocab"],
                     ["tokenizer_kind", "max_len", "add_special_tokens", "output"])
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("plan", help="export a template's soft-token slot plan")
    _add_template_args(p)
    _add_config_args(p, ["vocab"], ["tokenizer_kind", "output"])
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sample", help="draw a deterministic few-shot sample")
    p.add_argument("--k", type=int, required=True, help="examples per class")
    p.add_argument("--lenient", action="store_true", help="take whole class when short of k")
    _add_config_args(p, ["dataset"], ["seed", "output"])
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("score", help="project a logits file onto classes")
    _add_config_args(p, ["logits_file", "verbalizer", "vocab"],
                     ["tokenizer_kind", "aggregation", "output"])
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("run", help="run the full pipeline from a config")
    p.add_argument("--config", help="YAML or JSON config file")
    _add_config_args(p, [], CONFIG_SCHEMA, run=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in args.checked:
            CONFIG_SCHEMA[name].check(name, getattr(args, name))
        return args.func(args)
    except PromptPipeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
