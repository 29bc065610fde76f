"""Shared exception types."""


class ParseError(ValueError):
    """A serialized map file or buffer could not be decoded."""


class BadMagicError(ParseError):
    """The buffer does not start with the expected magic string."""


class TruncatedError(ParseError):
    """The buffer ended before the declared payload was complete."""


class PayloadError(ParseError):
    """The payload is structurally inconsistent (bad counts, surplus bytes, bad values)."""


class ConfigError(ValueError):
    """Invalid or infeasible configuration (world specs, parameter files, CLI args)."""
