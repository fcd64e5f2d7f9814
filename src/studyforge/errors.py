"""Exception hierarchy shared across the package."""


class StudyForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(StudyForgeError, ValueError):
    """Invalid value, bound, or domain violation. ``key`` may name the field
    at fault within the object whose rule raised it, so that a config parse
    reports the error under that field's dot path."""

    def __init__(self, message: str = "", key: str = ""):
        super().__init__(message)
        self.key = key


class StateError(StudyForgeError):
    """Illegal trial state transition (double-tell, unknown id, ...)."""


class OrderingError(StateError):
    """Intermediate step not strictly increasing."""


class ExhaustedSearchError(StudyForgeError):
    """Sampler has no further candidates (e.g. grid fully consumed)."""


class ManifestParseError(ValidationError):
    """Malformed manifest row; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DivergenceError(StudyForgeError):
    """Objective produced non-finite loss or gradients."""


class TrialPruned(StudyForgeError):
    """Control-flow signal: the pruner decided to stop the running trial."""


class JournalError(StudyForgeError):
    """Journal sequencing or persistence failure."""


class JournalCorruptError(JournalError):
    """Unreadable non-final journal record; carries the expected sequence number."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"record seq={seq}: {message}")
        self.seq = seq


class ConfigError(ValidationError):
    """Config validation failure; carries the offending key path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
