"""Exception taxonomy shared by all gepkit modules."""


class GepkitError(Exception):
    """Base class for all gepkit errors."""


# -- channel / model construction -------------------------------------------

class NonStochastic(GepkitError):
    """A conditional pmf row does not sum to 1 (beyond tolerance) or has
    negative entries."""


class ShapeMismatch(GepkitError):
    """A probability table does not match the declared alphabet sizes."""


class EmptyCrossoverList(GepkitError):
    """Compound-BSC construction called with no crossover values."""


class SubsetOutOfRange(GepkitError):
    """A user subset refers to users outside the regular range."""


class DomainError(GepkitError):
    """Scalar argument outside its mathematical domain."""


# -- ensemble ----------------------------------------------------------------

class MessageOutOfRange(GepkitError):
    """Message index outside 1..message_count for the addressed code."""


class CodeOutOfRange(GepkitError):
    """Code index outside the user's library."""


# -- exponents / bounds ------------------------------------------------------

class EmptyDifferenceSet(GepkitError):
    """Exponent functional requested with D \\ S empty where the public
    contract requires it nonempty."""


class UserOneMissing(GepkitError):
    """Decoded subset D does not contain transmitter 1."""


class OverlappingMargin(GepkitError):
    """Operation region and operation margin intersect."""


class NotAPartition(GepkitError):
    """Detection regions do not partition the code-index space."""


# -- decoder / simulation ----------------------------------------------------

class MismatchedParameters(GepkitError):
    """Bound and estimate were produced under different (N, alpha)."""


class MemoryBudgetExceeded(GepkitError):
    """One trial's codebook tables would exceed the simulation's memory
    budget."""


# -- scenario / CLI ----------------------------------------------------------

class ParseError(GepkitError):
    """Scenario file is not valid JSON / not readable."""


class SchemaError(GepkitError):
    """Scenario JSON violates the documented schema (names the key path)."""


class IntegrityError(GepkitError):
    """Scenario is schema-valid but internally inconsistent (names the key
    path)."""
