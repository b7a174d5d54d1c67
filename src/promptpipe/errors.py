"""Exception hierarchy shared by all promptpipe modules.

Every error raised by the library derives from :class:`PromptPipeError`,
so callers (and the CLI) can catch one base class. Parsing and loading
functions are total: bad input raises one of these, never a bare
``IndexError``/``KeyError`` from the internals.
"""

from __future__ import annotations


class PromptPipeError(Exception):
    """Base class for all promptpipe errors."""


class InvalidEncoding(PromptPipeError):
    """An input file that does not decode as UTF-8."""


# --- template language ---


class TemplateError(PromptPipeError):
    """Base class for template parsing and validation errors."""


class UnbalancedBrace(TemplateError):
    pass


class UnknownAttributeKey(TemplateError):
    pass


class ConflictingAttributes(TemplateError):
    pass


class InvalidValueType(TemplateError):
    pass


class ConflictingSoftIdInitialization(TemplateError):
    pass


class EmptyTemplate(TemplateError):
    pass


# --- wrapping ---


class MissingMetaKey(PromptPipeError):
    def __init__(self, key: str):
        super().__init__(f"example has no meta value for key {key!r}")
        self.key = key


# --- vocabulary / tokenization ---


class VocabError(PromptPipeError):
    pass


class MissingSpecialToken(VocabError):
    pass


class DuplicateToken(VocabError):
    pass


class TemplateTooLong(PromptPipeError):
    pass


# --- verbalizer ---


class VerbalizerError(PromptPipeError):
    pass


class EmptyClass(VerbalizerError):
    pass


class DuplicateClass(VerbalizerError):
    pass


class UnreadableFile(VerbalizerError):
    pass


class DimensionMismatch(PromptPipeError):
    pass


# --- data ---


class DataError(PromptPipeError):
    pass


class MalformedLine(DataError):
    """A JSONL record that is not valid JSON or breaks the file's format."""

    def __init__(self, path: object, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


class DuplicateGuid(DataError):
    pass


class InsufficientExamples(DataError):
    def __init__(self, label: str, have: int, need: int):
        super().__init__(
            f"class {label!r} has {have} labeled example(s), need {need}"
        )
        self.label = label
        self.have = have
        self.need = need


# --- pipeline runner ---


class ConfigError(PromptPipeError):
    pass


def check_integer(name: str, value: object) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an ``int`` and not a
    ``bool``, in the words of the config schema's integer rule."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name!r} must be an integer, got {value!r}")


def check_instance(name: str, value: object, cls: type | tuple[type, ...],
                   error: type = ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an instance of ``cls``, a type or a
    tuple of types."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        article = "an" if names[0] in "AEIOU" else "a"
        raise error(f"{name} must be {article} {names}, got {value!r}")


class NonFiniteValue(ConfigError):
    """A logits row or token frequency holds NaN or an infinity."""


class ClassListMismatch(PromptPipeError):
    pass


class GuidMismatch(PromptPipeError):
    pass


class MissingLogits(PromptPipeError):
    def __init__(self, guid: str):
        super().__init__(f"logits file has no entry for guid {guid!r}")
        self.guid = guid


class PipelineStageError(PromptPipeError):
    """Wraps a failure inside the pipeline with the guid and stage name."""

    def __init__(self, guid: str, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed for guid {guid!r}: {cause}")
        self.guid = guid
        self.stage = stage
        self.cause = cause
