"""Exception hierarchy shared by the whole package."""


class TripleCoverError(Exception):
    """Base class for all domain errors raised by this package."""


class VariableMismatchError(TripleCoverError):
    """Two polynomials from different variable sets were combined."""


class DegenerateCover(TripleCoverError):
    """Cover data degenerates (all-zero tuple, zero branch polynomial, ...)."""


class MultiplicityTooHigh(TripleCoverError):
    """A branch factor appears with multiplicity 3 or more."""


class DegenerateCubic(TripleCoverError):
    """The ternary cubic is identically zero."""


class DegenerateTorus(TripleCoverError):
    """The pair (G2, G3) satisfies G2^3 + G3^2 = 0."""


class LemmaViolation(TripleCoverError):
    """The discriminant proportionality failed; indicates an internal bug."""


class NotSmooth(TripleCoverError):
    """An operation requiring a smooth cubic received a singular one."""


class IndeterminateCount(TripleCoverError):
    """No projection center gave a usable eliminant; no count is certified."""


class CommonComponent(TripleCoverError):
    """Two curves share a component where a finite intersection is required."""
