"""Exact Bernstein-Sato polynomials, multiplier ideals, log-canonical
thresholds and jumping coefficients for monomial ideals in normal toric
semigroup rings.

Everything is exact: integers, ``fractions.Fraction`` and lattice
arithmetic end to end.  The monomial data of the toric variety enters
through the facet map ``F`` of its cone; b-functions come from grevlex
Groebner bases of an explicit generator family and the powers of the sum
of the variables, multiplier ideals and
jumping coefficients from Newton-polyhedron membership, and the two sides
are tied together by ``verify_correspondence``.
"""

from .bsato import (
    BFunctionResult,
    bfunction,
    build_generator,
    c_vectors,
    eliminate_minimal_univariate,
    monomial_generator,
    rational_roots,
)
from .exactnum import (
    IntMatrix,
    hermite_normal_form,
    kernel_lattice_basis,
    lattice_is_saturated,
    primitive_vector,
    solve_linear,
)
from .multipoly import MultiPoly, UniPoly, binom_poly
from .multiplier import (
    CorrespondenceReport,
    JumpingReport,
    MultiplierIdealResult,
    ambient_pair,
    identity_semigroup,
    jumping_coefficients,
    lct,
    multiplier_ideal,
    multiplier_ideal_with_boundary,
    transport,
    transport_polynomial,
    transported_polyhedron,
    verify_correspondence,
)
from .polyhedra import (
    NewtonPolyhedron,
    cone_facet_normals,
    membership,
    newton_polyhedron,
    point_threshold,
)
from .toric import (
    MonomialIdeal,
    SemigroupData,
    StructuralError,
    build_semigroup,
    f_map,
    f_section,
    is_normal,
    minimalize_exponents,
    monomial_ideal,
)

__version__ = "0.1.0"
