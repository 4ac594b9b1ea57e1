"""Symbolic coding of linear trajectories on regular 2n-gon translation surfaces.

The package traces linear trajectories on a regular polygon with opposite
sides identified, manipulates the resulting cutting sequences (derivation,
admissibility, normal forms), expands directions through the piecewise
renormalization map over exact Q(sqrt 2) arithmetic, inverts derivation with
generation operators, checks coherence, recognizes directions from symbol
windows, and enumerates the factors of all cutting sequences in a direction.
"""

from .exact_arith import (
    ApproxDirection,
    Direction,
    ExactDirection,
    Mat2,
    Q2Scalar,
    SingularMatrixError,
    approx_from_exact,
    moebius_apply,
)
from .polygon import (
    InvalidN,
    LabeledPolygon,
    build_polygon,
    induced_permutation,
    isometry_nu,
    sector_of,
    veech_elements,
)
from .symbolic import (
    AmbiguousDiagramError,
    CutseqError,
    InadmissibleWordError,
    LetterPermutation,
    PeriodicWord,
    TransitionDiagram,
    WordWindow,
    admissible_diagrams,
    boundary_diagram,
    build_diagram,
    derive,
    factor_count,
    factor_set,
    normal_form,
    permute,
    sandwich_profile,
    sector_permutation,
    square_derive,
)
from .farey import (
    Expansion,
    SectorInterval,
    TerminationResult,
    direction_from_expansion,
    farey_apply,
    is_terminating,
    itinerary,
    sector_interval,
    square_farey,
)
from .tracer import (
    Crossing,
    TraceConfig,
    TraceLog,
    VertexHit,
    detect_period,
    plot_svg,
    trace,
    trace_word,
)
from .generation import (
    InterpolationTable,
    SynthesisFailure,
    build_family,
    enumerate_factors,
    generate,
    periodic_seeds,
    sandwich_group,
    synthesize_table,
)
from .coherence import (
    CoherenceVerdict,
    InsufficientWindowError,
    NotCoherentError,
    RenormalizationTrace,
    check_coherent,
    decompose_generation,
    recognize_direction,
    renormalize,
)

__version__ = "0.1.0"
