"""Exception types raised by structural validation and search budgets."""


class StructureError(Exception):
    """Base class for every validation failure in this package."""


class ParseError(StructureError):
    """An input document does not match its schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NotAssociative(StructureError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        i, j, k = triple
        super().__init__(f"associativity fails at ({i},{j},{k})")


class NoInverse(StructureError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no generalized inverse")


class NonUniqueInverse(StructureError):
    def __init__(self, element: int, witnesses: tuple[int, ...]):
        self.element = element
        self.witnesses = witnesses
        super().__init__(
            f"element {element} has several generalized inverses {sorted(witnesses)}"
        )


class ZeroRequired(StructureError):
    """Operation needs a zero element that the structure lacks."""


class ZeroPresent(StructureError):
    """Operation is only defined for zero-free semigroups."""


class NotACongruence(StructureError):
    def __init__(self, witness: tuple[int, int, int, int] | None = None):
        self.witness = witness
        msg = "relation is not a congruence"
        if witness is not None:
            a, b, c, d = witness
            msg += f": ({a},{b}) and ({c},{d}) related but products split"
        super().__init__(msg)


class SearchBudgetExceeded(StructureError):
    pass


class SizeBudgetExceeded(StructureError):
    pass


class NotHomomorphism(StructureError):
    def __init__(self, s: int, t: int):
        self.pair = (s, t)
        super().__init__(f"map is not multiplicative at pair ({s},{t})")


class DomainMismatch(StructureError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"domain of element {element} differs from its idempotent's")


class NotCovering(StructureError):
    def __init__(self):
        super().__init__("idempotent domains do not cover the space")


class NotSubsemigroup(StructureError):
    pass


class CyclicGraph(StructureError):
    pass


class NotATransversal(StructureError):
    pass


class HypothesisFailed(StructureError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"hypothesis not satisfied: {name}")


class GroupoidMismatch(StructureError):
    pass


class UnknownName(StructureError):
    pass
