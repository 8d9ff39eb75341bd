"""Exception types shared across the package."""

from __future__ import annotations


class PrecisionCapExceeded(ArithmeticError):
    """An interval comparison stayed undecided after exhausting the refinement budget."""


class NoPointFound(RuntimeError):
    """The gap search came back empty.

    When raised from an avoidance move this signals that the contraction
    factor alpha was too large for the support's decay parameters.
    """


class IllegalMove(RuntimeError):
    """A move broke the rules; `transcript` holds the game up to it."""

    def __init__(self, player: str, reason: str, ball=None, transcript=None):
        super().__init__(f"illegal move by {player}: {reason}")
        self.player = player
        self.reason = reason
        self.ball = ball
        self.transcript = transcript


class StrategyFailure(RuntimeError):
    """A strategy raised instead of producing a move; the raiser loses.
    `transcript` holds the game up to the failed move."""

    def __init__(self, player: str, cause: BaseException, transcript=None):
        super().__init__(f"strategy failure for {player}: {cause}")
        self.player = player
        self.transcript = transcript


class InvalidAlpha(ValueError):
    """alpha fails the admissibility bound for the declared decay parameters."""


class ScheduleOverlap(ValueError):
    """Interleaving schedule assigns one turn to two strategies, or to none."""


class HorizonMismatch(ValueError):
    """A certificate claims more blocks than the recorded play supports."""


class InvariantViolation(RuntimeError):
    """An internal strategy invariant failed; indicates a bug or misuse."""


class SpecError(ValueError):
    """A configuration document failed validation."""
