"""Exact convergence-radius invariants of nonarchimedean differential modules
on discs, annuli and polyannuli.

Everything is exact rational arithmetic: Gauss valuations on a Laurent
coefficient ring, Newton polygons of twisted polynomials (fixed and
parametric), subsidiary radii of differential modules, Frobenius transforms
on radius multisets, piecewise-affine radius profiles with the
variation-theorem verifier suite, decomposition-locus detection, Swan breaks,
and the supporting transrational polyhedral machinery.
"""

from .valued import (
    INF,
    FracElement,
    LaurentElement,
    ValuationConfig,
    gauss_valuation,
    valuation_function,
    is_unit_on_annulus,
)
from .pwaffine import PiecewiseAffine, pa_combine
from .twisted import (
    NewtonPolygon,
    TwistedPoly,
    newton_polygon,
    robba_factor,
    slope_functions,
    twisted_mul,
    verify_newton_properties,
)
from .modules import (
    DiffModule,
    RadiiMultiset,
    apply_connection,
    cyclic_vector,
    decompose_fiber,
    direct_sum,
    dual,
    from_companion,
    intrinsic_radius_multi,
    iterate_Dn,
    rank_one,
    spectral_valuation_estimate,
    tame_pullback,
    tensor,
    visible_radii,
)
from .frobenius import (
    check_push_pull_laws,
    frob_antecedent,
    frob_pull,
    frob_push,
    rotation_radius,
    wn_radius,
)
from .profiles import (
    RadiusProfile,
    build_radius_profile,
    decomposition_loci,
    swan_breaks,
    verify_variation,
)
from .polyhedral import (
    AffineFunctional,
    PolyFunc,
    TRPSet,
    UnimodularMatrix,
    angle_cone,
    multidim_loci,
    multidim_profile,
    reconstruct_polyhedral,
    small_cone,
    synthetic_oracle,
    toroidal_pullback,
    unimodular_completion,
)

__version__ = "0.1.0"
