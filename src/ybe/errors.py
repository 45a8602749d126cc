"""Exception types shared across the package."""


class YBEError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(YBEError):
    """Input tables or documents that fail validation."""


class DegenerateRow(InvalidInput):
    """A sigma- or tau-row of a would-be solution is not a bijection."""

    def __init__(self, which: str, index: int):
        self.which = which
        self.index = index
        super().__init__(f"{which}-row {index} is not a permutation")


class NotInvertible(InvalidInput):
    """The pair map (x,y) -> (sigma_x(y), tau_y(x)) is not a bijection."""


class YBEFailure(InvalidInput):
    """The Yang-Baxter equation fails; carries a witness triple."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        super().__init__(f"Yang-Baxter equation fails on triple {self.triple}")


class NonBijectiveTranslation(InvalidInput):
    """A right translation of a would-be rack is not a bijection."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"right translation by {index} is not a permutation")


class SelfDistributivityFailure(InvalidInput):
    """Right self-distributivity fails; carries a witness triple."""

    def __init__(self, triple):
        self.triple = tuple(triple)
        super().__init__(f"self-distributivity fails on triple {self.triple}")


class SizeTooLarge(YBEError):
    """A size bound for an exhaustive computation was exceeded."""


class SignedWordOnNonBiquandle(YBEError):
    """Signed words act through the t-map, which needs a biquandle."""


class BoundExceeded(YBEError):
    """A provably terminating search ran past its theoretical bound (a bug)."""


class CosetLimitExceeded(YBEError):
    """Coset enumeration hit the coset cap."""

    def __init__(self, cap: int, defined: int, live: int):
        self.cap, self.defined, self.live = cap, defined, live
        super().__init__(
            f"coset enumeration exceeded the cap of {cap} cosets "
            f"({defined} defined, {live} live)"
        )


class InvariantViolation(YBEError):
    """A result broke an invariant that its algorithm guarantees (a bug).
    The CLI exits with code 4."""


class NotInvolutive(YBEError):
    """An involutive-only operation was applied to a non-involutive solution."""


class UnknownName(YBEError, KeyError):
    """Unknown fixture name."""
