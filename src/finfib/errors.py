"""Exception types shared across the engine."""


class FinfibError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateName(FinfibError):
    """An element name occurs twice in a poset declaration."""


class UnknownElement(FinfibError):
    """A name does not belong to the poset it is used with."""


class CycleDetected(FinfibError):
    """The declared relation has a cycle, so the space would not be T0."""


class EmptyDomain(FinfibError):
    """Fibration analysis is only defined for nonempty total spaces."""


class NotMonotone(FinfibError):
    """A map declaration does not preserve the order."""


class CodomainMismatch(FinfibError):
    """Maps that should share a domain or codomain do not."""


class SearchBudgetExhausted(FinfibError):
    """An isomorphism search stopped short of its end.

    No search stops short any more, so nothing raises it; the
    benchmark's tracer still binds it.
    """


class NotDescending(FinfibError):
    """Expected an endomap f with f <= Id."""


class NotAComponent(FinfibError):
    """The given subset is not a connected component of the base."""


class PreconditionViolated(FinfibError):
    """A documented precondition of the operation does not hold."""


class NotGrothendieckOpfibration(FinfibError):
    """Cocartesian transport was requested from a map that lacks it."""

    def __init__(self, msg, witness):
        super().__init__(msg)
        self.witness = witness


class FunctorialityViolated(FinfibError):
    """Fiber transition maps break an identity or composition law."""


class ReconstructionMismatch(FinfibError):
    """Rebuilding a map from its transport functor disagreed with the map.

    This is an internal consistency check; it firing means an engine bug.
    """


class InvariantViolated(FinfibError):
    """A result failed a check the engine guarantees; it means an engine bug."""


class UnknownGalleryId(FinfibError):
    """No gallery entry has the requested id."""


class ParseError(FinfibError):
    """A document (JSON or DSL text) or the command line could not be parsed."""
