"""Exception types shared across the package."""


class SubposetLabError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(SubposetLabError):
    """A relation closure would force x < x."""


class InvalidSpec(SubposetLabError):
    """A standard-poset constructor was given degenerate parameters."""


class NotUniqueExtremum(SubposetLabError):
    """Poset product requires a unique maximum on the left and a unique minimum on the right."""


class OutOfRange(SubposetLabError):
    """A counting function was queried outside its validity window."""


class PFreenessViolated(SubposetLabError):
    """A family that must avoid the pattern contains a copy of it."""


class PreconditionViolated(SubposetLabError):
    """Caller-supplied inputs do not meet an operation's documented preconditions."""


class InternalExhaustion(SubposetLabError):
    """The greedy embedding ran out of sets despite valid preconditions; indicates a bug."""


class InvariantViolated(SubposetLabError):
    """A computed result broke an identity that holds by proof; indicates a bug."""


class InvalidParams(SubposetLabError):
    """A bound formula was evaluated outside its parameter domain."""


class InvalidEmbedding(SubposetLabError):
    """An embedding failed validation against its pattern."""


class ParseError(SubposetLabError):
    """A poset spec string or input file could not be parsed."""


class GuardRefused(SubposetLabError):
    """An exact computation was refused because n exceeds the safety guard."""
