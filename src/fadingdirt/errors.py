"""Exception types shared across the toolkit."""

import contextlib


class ToolkitError(ValueError):
    """Base class for all domain errors raised by this package."""


# -- distribution catalog ----------------------------------------------------

class ZeroVariance(ToolkitError):
    pass


class NotUnitVariance(ToolkitError):
    pass


class NonFinite(ToolkitError):
    pass


class QuadratureFailure(ToolkitError):
    pass


class QuadratureWarning(UserWarning):
    """QUADPACK returned a nonzero code: the integral is computed, but its
    error estimate may miss the requested tolerance."""


class DiscreteUnsupported(ToolkitError):
    pass


class InvalidP(ToolkitError):
    pass


class InvalidN(ToolkitError):
    pass


class InvalidM(ToolkitError):
    pass


class InvalidC(ToolkitError):
    pass


# -- bound evaluators --------------------------------------------------------

class InvalidAlpha(ToolkitError):
    pass


class ZeroGain(ToolkitError):
    pass


class DegenerateDenominator(ToolkitError):
    pass


class DeltaOutOfRange(ToolkitError):
    pass


class NoDominantAtom(ToolkitError):
    pass


class ZeroAtomCollision(ToolkitError):
    pass


class NotUniform(ToolkitError):
    pass


class ConditionNotVerified(ToolkitError):
    pass


class IntervalMassTooSmall(ToolkitError):
    pass


class RootNotFound(ToolkitError):
    pass


# -- mutual-information oracle ----------------------------------------------

class SingularCovariance(ToolkitError):
    pass


class InsufficientSamples(ToolkitError):
    pass


# -- finite-alphabet solver --------------------------------------------------

class MalformedAssignment(ToolkitError):
    pass


class InstanceTooLarge(ToolkitError):
    pass


class DegenerateAtoms(ToolkitError):
    pass


class AscentNotMonotone(ToolkitError):
    pass


# -- harness / IO ------------------------------------------------------------

class SpecInvalid(ToolkitError):
    pass


class UnsupportedFormat(ToolkitError):
    pass


class FileInaccessible(ToolkitError):
    """An input file cannot be read or an output file cannot be written."""


@contextlib.contextmanager
def malformed(what):
    """Report a missing key, a wrong type or bad JSON inside the block as
    SpecInvalid; a ToolkitError raised there passes through unchanged."""
    try:
        yield
    except ToolkitError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
