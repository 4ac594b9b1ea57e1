"""Symbolic coding of linear trajectories on regular 2n-gon translation surfaces.

The package traces linear trajectories on a regular polygon with opposite
sides identified, manipulates the resulting cutting sequences (derivation,
admissibility, normal forms), expands directions through the piecewise
renormalization map over exact Q(sqrt 2) arithmetic, inverts derivation with
generation operators, checks coherence, recognizes directions from symbol
windows, and enumerates the factors of all cutting sequences in a direction.

The package is lazy (PEP 562): `import cutseq` loads none of its modules, and
each name below loads the module that defines it on first use, so a caller
pays to compile only the layers it reaches.  `_EXPORTS` is the one table of
which module each name comes from.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exact_arith": (
        "ApproxDirection", "Direction", "ExactDirection", "Mat2", "Q2Scalar",
        "SingularMatrixError", "approx_from_exact", "direction_theta", "moebius_apply",
    ),
    "polygon": (
        "InvalidN", "LabeledPolygon", "build_polygon", "induced_permutation", "isometry_nu",
        "sector_of", "veech_elements",
    ),
    "symbolic": (
        "AmbiguousDiagramError", "CutseqError", "InadmissibleWordError", "LetterPermutation",
        "PeriodicWord", "TransitionDiagram", "admissible_diagrams", "boundary_diagram",
        "build_diagram", "derive", "factor_count", "factor_set", "normal_form", "permute",
        "sandwich_profile", "sector_permutation", "square_derive",
    ),
    "farey": (
        "Expansion", "SectorInterval", "TerminationResult", "direction_from_expansion",
        "farey_apply", "is_terminating", "itinerary", "sector_interval", "square_farey",
    ),
    "tracer": (
        "Crossing", "TraceConfig", "TraceLog", "VertexHit", "detect_period", "plot_svg",
        "random_exact_interior_point", "random_interior_point", "trace", "trace_word",
    ),
    "generation": (
        "InterpolationTable", "SynthesisFailure", "build_family", "enumerate_factors",
        "generate", "periodic_seeds", "sandwich_group", "synthesize_table",
    ),
    "coherence": (
        "CoherenceVerdict", "InsufficientWindowError", "NotCoherentError",
        "RenormalizationTrace", "check_coherent", "decompose_generation",
        "recognize_direction", "renormalize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module behind an exported name (or a module itself) on first use."""
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")  # which binds the module's own name
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
