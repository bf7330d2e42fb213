"""Exception types shared across the pipeline."""

from __future__ import annotations


class AdmacError(Exception):
    """Base class for all errors raised by this package."""


# --- domain / indicators ---------------------------------------------------

class ZeroSchedule(AdmacError):
    """MAC requested for a schedule whose rates sum to zero."""


# --- ingest ------------------------------------------------------------------

class ExcludedCountry(AdmacError):
    """Country is on the platform exclusion list."""


class AuthError(AdmacError):
    """Live API rejected the access token."""


class RateLimited(AdmacError):
    """Live API throttled the request (terminal after retries)."""


class FixtureMiss(AdmacError):
    """Fixture mode: no fixture row (or file) matches the query."""


class MalformedResponse(AdmacError):
    """Live API returned something the client cannot interpret."""


class UpstreamUnavailable(AdmacError):
    """Live API could not be reached (a transport failure); ends the collect."""


# --- groundtruth -------------------------------------------------------------

class ParseError(AdmacError):
    """Input file is structurally unreadable (bad header, encoding, ...)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


# --- stats -------------------------------------------------------------------

class NonFiniteInput(AdmacError):
    """Statistical kernel fed a NaN or infinity."""


class LengthMismatch(AdmacError):
    """Paired vectors differ in length."""


class DegenerateInput(AdmacError):
    """Correlation undefined (a constant vector); reported, never coerced to 0."""


class DegenerateDesign(AdmacError):
    """Regression undefined (all x equal)."""


class TooFewPoints(AdmacError):
    """Not enough observations for the requested procedure."""


class ZeroTruth(AdmacError):
    """MAPE undefined when a truth value is zero."""


class DomainError(AdmacError):
    """Special-function argument outside its domain."""


# --- predict / report --------------------------------------------------------

class EmptyInput(AdmacError):
    """Emitter refused to write an empty artifact."""


# --- cli / pipeline ----------------------------------------------------------

class MissingStageInput(AdmacError):
    """A stage was run before the stage that produces its input."""


class ConfigError(AdmacError):
    """Run configuration is invalid."""
