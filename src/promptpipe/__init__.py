"""promptpipe: everything between raw text and a language model's logits
for prompt-based classification, plus the scoring path back from logits
to class predictions.

Stages: template parsing -> example wrapping -> tokenization with
template-preserving truncation -> soft-token slot planning -> verbalizer
projection and calibration -> reporting. See the README for the file
formats and CLI.
"""

from importlib import import_module

from .config import Aggregation, PipelineConfig
from .data import Dataset, fewshot_sample, load_jsonl
from .errors import PromptPipeError
from .soft_plan import SlotSpec, SoftEmbeddingPlan, build_soft_plan
from .template import (
    Diagnostic,
    NodeKind,
    PostProcessing,
    TemplateAST,
    TemplateNode,
    load_template_file,
    parse_template,
    serialize_template,
    validate_template,
)
from .tokenization import (
    CompiledTemplate,
    TokenizedInput,
    TokenizerKind,
    Vocab,
    WhitespaceTokenizer,
    WordPieceTokenizer,
    build_tokenizer,
    encode_wrapped,
)
from .wrapping import (
    InputExample,
    Segment,
    TemplateLayout,
    WrappedSequence,
    apply_post_processing,
    wrap_example,
    wrapped_text,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregation",
    "ClassScores",
    "CompiledTemplate",
    "Dataset",
    "Diagnostic",
    "InputExample",
    "LogitsFileScorer",
    "NodeKind",
    "PipelineConfig",
    "PostProcessing",
    "PromptPipeError",
    "RunReport",
    "Segment",
    "SlotSpec",
    "SoftEmbeddingPlan",
    "TemplateAST",
    "TemplateLayout",
    "TemplateNode",
    "TokenizedInput",
    "TokenizerKind",
    "ToyScorer",
    "Verbalizer",
    "Vocab",
    "WhitespaceTokenizer",
    "WordPieceTokenizer",
    "WrappedSequence",
    "apply_post_processing",
    "build_soft_plan",
    "build_tokenizer",
    "build_verbalizer",
    "encode_wrapped",
    "ensemble_scores",
    "evaluate_accuracy",
    "fewshot_sample",
    "load_jsonl",
    "load_template_file",
    "load_verbalizer",
    "parse_template",
    "project",
    "run_pipeline",
    "serialize_template",
    "validate_template",
    "wrap_example",
    "wrapped_text",
]


# the names whose modules build arrays, each imported with numpy on first use
_ARRAY_MODULES = {
    "verbalizer": ("ClassScores", "Verbalizer", "build_verbalizer",
                   "load_verbalizer", "project"),
    "logits": ("LogitsFileScorer",),
    "runner": ("RunReport", "ToyScorer", "ensemble_scores", "evaluate_accuracy", "run_pipeline"),
}
_ARRAY_NAMES = {name: module for module, names in _ARRAY_MODULES.items() for name in names}


def __getattr__(name: str):
    """A name of ``_ARRAY_NAMES``, from its module (PEP 562), kept once found."""
    module = _ARRAY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{module}", __name__), name)
    return value
