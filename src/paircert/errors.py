"""Exception types shared across the package."""


class PaircertError(Exception):
    """Base class for all package errors."""


class InvalidParameter(PaircertError, ValueError):
    """An argument is outside its documented domain."""


class UndefinedValuation(PaircertError, ValueError):
    """p-adic valuation requested at zero."""


class DomainError(PaircertError, ValueError):
    """Nonpositive base of a fractional power, division by an interval
    containing zero, or a similar analytic domain violation."""


class IncompleteDefinition(PaircertError, KeyError):
    """A multiplicative function was consulted at a prime power it does
    not define."""


class DegenerateMeasure(PaircertError, ValueError):
    """An operation requiring positive total measure met measure zero."""


class NotStructured(PaircertError, ValueError):
    """A vertex or edge fails the |nu_p(v/N)| + |nu_p(w/N)| <= 1 shape."""


class ResourceLimit(PaircertError, RuntimeError):
    """Input exceeds a configured enumeration/factorization/precision cap."""


class InvariantBroken(PaircertError, RuntimeError):
    """An internal invariant failed, such as peel running past its
    vertex-count step bound: a fault in the package, not in the input."""
