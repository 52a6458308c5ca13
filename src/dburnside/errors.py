"""Shared exceptions and the wall-clock budget of a run.

:data:`budget` is the one deadline every search of the run checks, or
:data:`NO_BUDGET`; ``cli.main`` sets it for the length of each call and
then restores the value it found.  A library caller sets it the same way.
Searches read it where they check it, never at import time.
"""

from __future__ import annotations

import time


class GroupSpecError(ValueError):
    """Malformed group description text or constructor arguments."""


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""


class BudgetExceeded(RuntimeError):
    """A search ran past the deadline of the run."""


class Budget:
    """Deadline checked inside enumeration loops.

    A ``Budget(None)`` never expires.  Budgets are advisory: loops call
    :meth:`check` at natural checkpoints, so overshoot is bounded by the
    cost of one inner step.
    """

    def __init__(self, seconds: float | None = None):
        self._deadline = None if seconds is None else time.monotonic() + seconds

    def check(self, what: str) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(f"budget exhausted during {what}")


NO_BUDGET = Budget(None)

# the deadline of the current run
budget: Budget = NO_BUDGET
