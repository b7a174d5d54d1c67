"""promptpipe: everything between raw text and a language model's logits
for prompt-based classification, plus the scoring path back from logits
to class predictions.

Stages: template parsing -> example wrapping -> tokenization with
template-preserving truncation -> soft-token slot planning -> verbalizer
projection and calibration -> reporting. See the README for the file
formats and CLI.
"""

from .data import Dataset, fewshot_sample, load_jsonl, save_jsonl
from .errors import PromptPipeError
from .runner import (
    LogitsFileScorer,
    PipelineConfig,
    RunReport,
    ToyScorer,
    ensemble_scores,
    evaluate_accuracy,
    run_pipeline,
)
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
from .verbalizer import (
    Aggregation,
    ClassScores,
    Verbalizer,
    build_verbalizer,
    calibrate,
    load_verbalizer,
    project,
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
    "calibrate",
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
    "save_jsonl",
    "serialize_template",
    "validate_template",
    "wrap_example",
    "wrapped_text",
]
