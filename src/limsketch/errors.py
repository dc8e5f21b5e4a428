"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""

    exit_code = 1
    label = "engine error"


class InputError(EngineError):
    """Malformed or inconsistent input data (files, identifiers, schemas)."""

    exit_code = 2
    label = "input error"


class BudgetExceeded(EngineError):
    """A size or iteration budget was exceeded; the message names the site."""

    exit_code = 3
    label = "budget error"


class PreconditionError(EngineError):
    """An operation was called outside its contract (e.g. non-model codomain)."""

    exit_code = 4
    label = "precondition error"
