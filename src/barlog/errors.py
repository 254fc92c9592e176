"""Exception types shared across the package."""


class BarlogError(Exception):
    """Base class for all package-specific errors."""


class AlphabetError(BarlogError, ValueError):
    """A word uses a letter outside its declared alphabet, or two
    operands live over different alphabets."""


class DomainError(BarlogError, ValueError):
    """A numeric evaluation was requested outside the supported domain."""


class DivergentTermError(BarlogError, ValueError):
    """A word or index corresponds to a divergent series/integral."""


class ContourError(BarlogError, ValueError):
    """An integration contour touches the singular locus."""


class ResourceLimitError(BarlogError, ValueError):
    """A computation exceeds the configured degree cap."""
