"""Exception hierarchy for freepd.

Everything raised on purpose derives from FreePDError so callers (and the CLI)
can distinguish domain failures from genuine bugs.
"""


class FreePDError(Exception):
    """Base class for all library errors."""


class WordError(FreePDError):
    """Malformed word text or an operation applied to an illegal word."""


class DomainError(FreePDError):
    """A function was asked for entries outside its specified domain."""


class EntryError(DomainError):
    """A function entry does not fit its domain or the other entries.

    Attributes
    ----------
    word : str
        Text form of the first offending group element, spelled as the
        caller keyed it.
    """

    def __init__(self, word, message=None):
        self.word = word
        super().__init__(message or f"entry for {word!r} is not specified")


class MissingEntryError(EntryError):
    """A function or a Gram assembly needs an entry that is not specified."""


class NotPositiveError(FreePDError):
    """A matrix required to be positive (semi)definite is not."""


class NotStrictError(NotPositiveError):
    """Strict positivity was required and an eigenvalue/norm fell below tolerance."""


class DegenerateStageError(FreePDError):
    """A residual norm collapsed below the degeneracy threshold (loss of strictness)."""


class DegenerateAchieverError(FreePDError):
    """The top two generalized eigenvalues of an energy pencil are too close,
    so the norm-achieving vector (and hence the energy gradient) is ill defined."""


class ParameterError(FreePDError):
    """An argument is out of range: bad stage coordinates, an illegal margin,
    or an extension parameter off its allowed disk."""


class SingularizationError(FreePDError):
    """No admissible perturbation was found within the sampling budget."""


class SolveError(FreePDError):
    """An optimizer exceeded its iteration cap.

    Attributes
    ----------
    best : object
        Best iterate found before giving up (parameter value or tuple).
    value : float
        Objective value at ``best``.
    """

    def __init__(self, message, best=None, value=None):
        self.best = best
        self.value = value
        super().__init__(message)


class BudgetError(FreePDError):
    """The sigma schedule was exhausted before the recursion finished."""


class SurgeryError(FreePDError):
    """A surgery precondition failed or a rewiring conflict was detected."""


class OutputError(OSError):
    """An output file or directory could not be written.

    An OSError rather than a FreePDError: the file system failed, not the
    mathematics.  ``filename`` is the path the caller asked for, never a
    temp file the write went through.
    """


class FormatError(FreePDError):
    """A JSON artifact is malformed.

    Attributes
    ----------
    key : str
        The first offending key or field.
    """

    def __init__(self, key, message=None):
        self.key = key
        super().__init__(message or f"malformed field {key!r}")
