"""Exception types shared across the package."""


class PopdynError(Exception):
    """Base class for all domain errors."""


class DegeneratePayoff(PopdynError):
    """R + P equals T + S, so the two utility lines never cross."""


class IntegerTemper(PopdynError):
    """A temper landed on an integer; tie states would become reachable."""


class DuplicateTemper(PopdynError):
    """Two agent types of the same kind share a temper."""


class EmptyPopulation(PopdynError):
    """No agents at all."""


class ImitatorWithoutMatchingType(PopdynError):
    """Imitators were assigned to a type that has no best-responders."""


class NoSuchAgent(PopdynError):
    """The referenced (role, type, strategy) cell is empty in this state."""


class StateSpaceTooLarge(PopdynError):
    """The enumeration guard was exceeded; raise the guard to proceed."""


class NotAnEquilibrium(PopdynError):
    """A stability check was requested for a state that is not fixed."""


class AssumptionViolated(PopdynError):
    """Population counts fall below what the stability conditions assume."""


class EmptySet(PopdynError):
    """The candidate invariant set contains no states."""


class NotMixed(PopdynError):
    """The state is not a mixed equilibrium (needs 1 <= cooperating imitators <= m-1)."""


class SingularSystem(PopdynError):
    """The stationary-distribution solve hit a singular system (internal error)."""


class CertificateFailed(PopdynError):
    """An exact result failed its exact certificate (internal error)."""
