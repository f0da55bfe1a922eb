"""Exact Mukai-lattice arithmetic for K3 surfaces.

Integer-exact tools for the lattice side of moduli of sheaves on a K3:
Mukai vectors and their pairing, the Beauville-Bogomolov form on the
Hilbert scheme of points, isotropic-class search (the numerical fibration
criterion), the Mukai-dual surface's numeric data, and an equivalence
decision for integral binary quadratic forms by reduction.
"""

from .bb import (
    BBClass,
    BBLattice,
    IsotropicSearch,
    find_isotropic,
    fujiki_degree,
    isotropic_exists,
    perp_basis,
    vperp_gram,
)
from .checks import (
    brill_noether_data,
    double_dual_square,
    extension_square,
    kernel_square,
    kernel_square_bound,
    tensor_degree_check,
    torsion_degree,
)
from .dual_surface import (
    ConstraintSolution,
    CriterionReport,
    DualSurfaceReport,
    FibrationHit,
    QuotientClass,
    TransformConstraintFamily,
    build_dual,
    general_fibration_criterion,
    member_gram,
    quotient_lattice,
    solve_transform_constraints,
    verify_solution,
)
from .mukai import (
    MukaiVector,
    NSGram,
    Polarization,
    dual,
    euler_characteristic,
    fineness_gcd,
    is_primitive,
    pairing,
    square,
)
from .quadforms import (
    EquivalenceResult,
    PicardSchemeForm,
    QuadForm2,
    canonical,
    equivalent,
    gen_picard_determinant,
    isotropic_lines,
    picard_scheme_form,
)

__version__ = "0.1.0"
