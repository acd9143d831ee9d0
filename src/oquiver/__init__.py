"""Exact computation of the quiver with relations behind the regular block
of BGG category O, with an intersection-cohomology module toolkit."""

from .cache import Pipeline, load_pipeline
from .homspace import HomBasis, hom_basis
from .icmod import ICModule, total_cohomology, validate, verdier_dual
from .kl import ih_poincare, kl_polynomial, mu
from .linalg import QMatrix, in_span
from .quiver import Quiver, build_quiver
from .rootsystem import RootSystem, WeylElement, WeylGroup, build, generate_weyl
from .schubert import CohRing, build_ring
from .soergel import GradedModule, ModuleFamily, build_all, extend, trivial_module, word_module

__version__ = "0.1.0"
