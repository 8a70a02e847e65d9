"""Exception hierarchy shared by every module.

Error class names are part of the CLI contract: a failing subcommand
reports the class name verbatim. ``OutcomeError`` subclasses mark
outcomes that are reported rather than treated as usage mistakes
(exit status 3 on the command line); everything else is a validation
failure (exit status 2).
"""


class RankMetricError(Exception):
    """Base class for all errors raised by this package."""


class OutcomeError(RankMetricError):
    """A legitimate negative outcome (too large, not repairable, ...)."""


# -- field construction / arithmetic ---------------------------------------

class NonPrime(RankMetricError):
    pass


class ReducibleModulus(RankMetricError):
    pass


class NoBuiltinModulus(RankMetricError):
    pass


class ZeroInverse(RankMetricError):
    pass


class SpecMismatch(RankMetricError):
    pass


# -- linear algebra ---------------------------------------------------------

class DimensionMismatch(RankMetricError):
    pass


class Singular(RankMetricError):
    pass


class RelationsNotSatisfied(RankMetricError):
    pass


class FormatError(RankMetricError):
    """Malformed text input (matrix blocks, headers, rationals)."""


class InvalidParameter(RankMetricError, ValueError):
    """An argument outside its allowed values.

    Also a ``ValueError``, so callers that catch the built-in still do.
    """


# -- embeddings -------------------------------------------------------------

class NotDivisor(RankMetricError):
    pass


class NotUnital(RankMetricError):
    pass


class MultiplicityMismatch(RankMetricError):
    pass


# -- towers -----------------------------------------------------------------

class NotFactorSequence(RankMetricError):
    pass


class StageOrder(RankMetricError):
    pass


class InconsistentTarget(RankMetricError):
    pass


class EmptyRoundTrip(RankMetricError):
    """A back-and-forth round trip had no probe at or below its home stage."""


class TowerPrefixTooShort(OutcomeError):
    pass


class BoundsNotMet(OutcomeError):
    """A back-and-forth run produced a certificate that fails its own bounds."""


class NotRepairable(OutcomeError):
    pass


# -- enumeration guards -----------------------------------------------------

class TooLarge(OutcomeError):
    pass


class NotLipschitz(RankMetricError):
    """A coloring violated its 1-Lipschitz contract on evaluated pairs."""


class InvariantViolated(RankMetricError):
    """An exact identity that the mathematics guarantees failed to hold."""
