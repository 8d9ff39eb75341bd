"""Exception types shared across the package, under two roots that decide
the command line's exit code: `SpecError` is bad input (exit 2), and
`RunFailure` is a run that failed (exit 1)."""

from __future__ import annotations


class SpecError(ValueError):
    """A configuration document failed validation."""


class RunFailure(RuntimeError):
    """A run, or the check of a claim, failed on valid input."""


class PrecisionCapExceeded(RunFailure):
    """An interval comparison stayed undecided after exhausting the refinement budget."""


class NoPointFound(RunFailure):
    """The gap search came back empty.

    When raised from an avoidance move this signals that the contraction
    factor alpha was too large for the support's decay parameters.
    """


class IllegalMove(RunFailure):
    """A move broke the rules; `transcript` holds the game up to it."""

    def __init__(self, player: str, reason: str, ball=None, transcript=None):
        super().__init__(f"illegal move by {player}: {reason}")
        self.player = player
        self.reason = reason
        self.ball = ball
        self.transcript = transcript


class StrategyFailure(RunFailure):
    """A strategy raised instead of producing a move; the raiser loses.
    `transcript` holds the game up to the failed move."""

    def __init__(self, player: str, cause: BaseException, transcript=None):
        super().__init__(f"strategy failure for {player}: {cause}")
        self.player = player
        self.transcript = transcript


class HorizonMismatch(RunFailure):
    """A certificate claims more blocks than the recorded play supports."""


class InvariantViolation(RunFailure):
    """An internal strategy invariant failed; indicates a bug or misuse."""
