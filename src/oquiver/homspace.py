"""
Graded Hom spaces between the intersection cohomology modules.

Hom^d(V_y, V_w) is the space of degree-d linear maps commuting with the
ring action, solved through a presentation of V_y
(`soergel.graded_hom_basis`).
The canonical basis (RREF over the degree-band matrix entries, row-major)
is the declared arrow basis of the quiver: any other basis differs from it
by an invertible linear substitution, so nothing downstream depends on the
choice beyond determinism.
"""

from __future__ import annotations

from .linalg import QMatrix
from .rootsystem import WeylElement
from .soergel import ModuleFamily, graded_hom_basis

__all__ = ["HomBasis", "hom_basis"]


class HomBasis:
    """The canonical basis of a graded Hom space."""

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[QMatrix, ...]):
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_basis(family: ModuleFamily, y: WeylElement, w: WeylElement, degree: int) -> HomBasis:
    """Canonical basis of Hom^degree(V_y, V_w)."""
    return HomBasis(tuple(graded_hom_basis(family.ring, family[y], family[w], degree)))
