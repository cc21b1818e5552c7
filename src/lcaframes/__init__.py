"""Multiresolution tight frames on elementary LCA groups, with certificates.

Construct nested lattice chains on Z, Z_N, T and R^s, attach spline or
bandlimited generator families through periodic filters, and verify the
defining identities numerically: the coset-matrix Gram condition, refinement
transfer between levels, the fiber-sum identity, level telescoping, and the
Parseval bound 1 (exactly, on finite groups).
"""

from .bspline import (
    bspline_hat,
    bspline_time,
    check_refinement_splitting,
    refinement_filter,
    refinement_residual,
    wavelet_filters,
    wavelet_time,
)
from .chains import (
    LatticeChain,
    chain_from_params,
    cyclic_chain,
    euclidean_chain,
    integer_chain,
    refined_dual_domain,
    torus_chain,
)
from .charfun import (
    OmegaChain,
    band_chain,
    band_chain_balls,
    band_chain_boxes,
    band_chain_cyclic,
    band_chain_torus,
    bandlimited_wavelet_filters,
    full_band_chain,
    indicator_generator,
    indicator_refinement_filter,
    indicator_refinement_residual,
    orthonormal_wavelet_filters,
)
from .domains import Ball, CosetUnion, HalfOpenBox, IntegerInterval
from .exceptions import LcaError
from .filters import (
    CosetPiecewise,
    SamplingPlan,
    TrigPolynomial,
    UepMatrix,
    assemble_uep,
    dual_sampling_plan,
    verify_uep,
)
from .frame import (
    FrameSystem,
    analysis,
    build_bspline_system,
    build_charfun_system,
    build_from_descriptor,
    fiber_identity_sides,
    frame_operator,
    parseval_residual,
    system_from_json,
    system_to_json,
    telescoping_residual,
)
from .functions import DiscreteFunction, delta, random_test_function
from .groups import (
    GroupSpec,
    cyclic_group,
    dual_group,
    euclidean_group,
    integer_group,
    pairing,
    torus_group,
)
from .tiles import TileSpec, measure_estimate, selfsimilarity_holds, tile_points

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
