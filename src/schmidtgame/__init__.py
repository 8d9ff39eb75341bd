"""Schmidt games on fractal supports, played in exact rational arithmetic.

The package builds winning strategies for orbit-avoidance and
badly-approximable targets on IFS attractors, referees the game, and
emits finite-horizon certificates that an independent verifier re-checks
from scratch.
"""

from .alice import (BAStrategy, BiLipschitzMap, ConstTargets, ExcludeCountable,
                    GeometricTerms, InterleaveStrategy, LacunarySpec,
                    LacunaryStrategy, ListTargets, ListTerms, PeriodicTargets,
                    affine_to_sequence, avoidance_step)
from .bob import (GreedyBob, KeepCenterBob, RandomBob, greedy_move,
                  random_move)
from .certify import (Certificate, DimensionReport, VerificationResult,
                      ba_certificate, dimension_report, orbit_certificate,
                      verify)
from .errors import (HorizonMismatch, IllegalMove, InvalidAlpha,
                     InvariantViolation, NoPointFound, PrecisionCapExceeded,
                     ScheduleOverlap, SpecError, StrategyFailure)
from .fractal import (IFS, AuditGrid, DecayParams, FractalMeasure,
                      FractalSupport, SimilarityMap, audit_measure,
                      binary_support, cantor_support, check_alpha,
                      decay_from_federer_efd, find_point_in_gap,
                      lower_pointwise_dimension, max_alpha)
from .game import (Ball, GameParams, HoldCenter, Transcript, is_legal,
                   outcome_interval, run_game, transcript_from_jsonl,
                   validate_transcript)

__version__ = "0.1.0"

__all__ = [
    "AuditGrid", "BAStrategy", "Ball", "BiLipschitzMap",
    "Certificate", "ConstTargets", "DecayParams", "DimensionReport",
    "ExcludeCountable", "FractalMeasure", "FractalSupport", "GameParams",
    "GeometricTerms", "GreedyBob", "HoldCenter", "HorizonMismatch", "IFS",
    "IllegalMove", "InterleaveStrategy", "InvalidAlpha", "InvariantViolation",
    "KeepCenterBob", "LacunarySpec", "LacunaryStrategy", "ListTargets",
    "ListTerms", "NoPointFound", "PeriodicTargets", "PrecisionCapExceeded",
    "RandomBob", "ScheduleOverlap", "SimilarityMap",
    "SpecError", "StrategyFailure", "Transcript", "VerificationResult",
    "affine_to_sequence", "audit_measure",
    "avoidance_step", "ba_certificate", "binary_support",
    "cantor_support", "check_alpha",
    "decay_from_federer_efd", "dimension_report", "find_point_in_gap",
    "greedy_move",
    "is_legal",
    "lower_pointwise_dimension", "max_alpha",
    "orbit_certificate", "outcome_interval",
    "random_move", "run_game", "transcript_from_jsonl", "validate_transcript",
    "verify",
]
