"""Exception types shared across the toolkit."""


class ToolkitError(ValueError):
    """Base class for all domain errors raised by this package."""


# -- distribution catalog ----------------------------------------------------

class ZeroVariance(ToolkitError):
    pass


class NonFinite(ToolkitError):
    pass


class QuadratureFailure(ToolkitError):
    pass


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
