"""Exception types shared across the package."""


class ThinlabError(Exception):
    """Base class for all thinlab errors."""


# ---- geometry / group input ----

class ZeroLowerLeftEntry(ThinlabError):
    def __init__(self, index):
        super().__init__(f"generator {index}: lower-left entry is 0, no isometric disk")


class NonHyperbolicGenerator(ThinlabError):
    def __init__(self, index, trace):
        super().__init__(f"generator {index}: |trace| = {abs(trace)} <= 2, not hyperbolic")


class OverlappingDisks(ThinlabError):
    def __init__(self, i, j):
        super().__init__(f"isometric disk intervals {i} and {j} overlap or touch")


class PoleHit(ThinlabError):
    def __init__(self, x):
        super().__init__(f"Moebius map evaluated at pole, x = {x}")


# ---- symbolic dynamics ----

class InadmissibleWord(ThinlabError):
    pass


# ---- thermodynamic core ----

class NoConvergence(ThinlabError):
    pass


class RootNotBracketed(ThinlabError):
    pass


# ---- congruence layer ----

class NotSquareFree(ThinlabError):
    def __init__(self, q):
        super().__init__(f"modulus {q} is not square-free")


class TooLarge(ThinlabError):
    pass


class ModulusMismatch(ThinlabError):
    pass


class NotInNewSpace(ThinlabError):
    pass


class DepthExhausted(ThinlabError):
    pass


# ---- expander walk / experiments ----

class EnumerationTooLarge(ThinlabError):
    pass


class NotGenerating(ThinlabError):
    pass


class GroupTooSmall(ThinlabError):
    pass


class BudgetExceeded(ThinlabError):
    pass


# ---- cli ----

class ConfigParse(ThinlabError):
    pass
