"""popdyn: exact simulation and analysis of asynchronous population dynamics.

A population mixes three kinds of decision-makers over the binary choice
cooperate/defect: best-responding conformists (cooperate when enough others
do), best-responding nonconformists (cooperate when few others do), and
imitators (copy the current highest earner). The package simulates the
asynchronous dynamics exactly, enumerates equilibria and classifies their
stability in closed form, characterizes positively invariant sets, and
computes stochastically stable states of the trembling-hand perturbation,
all backed by a brute-force reachability oracle.
"""

from .errors import (
    AssumptionViolated,
    DegeneratePayoff,
    DuplicateTemper,
    EmptyPopulation,
    EmptySet,
    ImitatorWithoutMatchingType,
    IntegerTemper,
    NoSuchAgent,
    NotAnEquilibrium,
    NotMixed,
    PopdynError,
    SingularSystem,
    StateSpaceTooLarge,
)
from .model import (
    AgentTypeSpec,
    PayoffMatrix,
    PopulationSpec,
    State,
    UtilityLine,
    parse_rational,
    validate_population,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
