"""The attribute closure of a seed under FDs, on a fresh index per call:
the tests' stand-in for the library's shared `FDIndex`."""

from catnorm import SchemaError
from catnorm.core import FDIndex


def attribute_closure(seed, fds) -> frozenset[str]:
    """Least fixpoint of `add rhs whenever lhs is contained`."""
    seed = frozenset(seed)
    if not seed:
        raise SchemaError("attribute_closure: empty seed")
    return frozenset(FDIndex(fds).closure(seed))
