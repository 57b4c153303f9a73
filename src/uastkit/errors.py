"""Exception types shared across the toolkit.

The CLI maps exceptions to exit codes through the ``exit_code`` attribute:
usage problems exit 1, data problems exit 2, runtime problems exit 3.
"""


class UastError(Exception):
    """Base class for all toolkit errors (runtime category)."""

    exit_code = 3


class UsageError(UastError):
    """Bad invocation: unknown flag values, empty value lists, and similar."""

    exit_code = 1


class DataError(UastError):
    """Problems with inputs: corpora, source files, tables, checkpoints."""

    exit_code = 2


# --- frontend ---------------------------------------------------------------

class UnsupportedLanguage(DataError):
    """No grammar backend is registered for the requested language."""


class ParseFailure(DataError):
    """The grammar backend could not produce a tree at all."""


class MalformedSExpr(DataError):
    """Unbalanced or otherwise malformed parenthesized tree text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class TableFormatError(DataError):
    """Unification table file does not follow the documented format."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateMapping(DataError):
    """One source kind maps to two different targets within a language."""


class EmptyCorpus(DataError):
    """An operation that needs at least one sample received none."""


# --- corpus / evaluation ----------------------------------------------------

class UnknownExtension(DataError):
    """File extension does not identify a registered language."""


class EmptyClass(DataError):
    """A class label ended up with zero usable files."""


class EmptySplit(DataError):
    """Evaluation was asked to run on an empty split."""


class CheckpointError(DataError):
    """Checkpoint file is malformed or inconsistent with the request."""


class VocabularyMismatch(DataError):
    """Featurized data was produced with a different vocabulary."""


# --- numeric core -----------------------------------------------------------

class ShapeMismatch(UastError):
    """Operands have incompatible shapes; message names the op and shapes."""


class NonScalarLoss(UastError):
    """backward() requires a scalar (1x1) loss tensor."""


class LabelOutOfRange(UastError):
    """Class label index is outside [0, k)."""


class MissingGradient(UastError):
    """Optimizer step found a parameter with no gradient."""


class IndexOutOfVocab(UastError):
    """Embedding lookup index exceeds the vocabulary size."""


class ConfigError(UsageError):
    """Model or run configuration violates its invariants."""


class DivergenceDetected(UastError):
    """Training loss became NaN/Inf; the run was aborted."""
