"""Deligne bigradings, delta-splittings and heights of framed mixed Hodge structures.

The package computes, for a mixed Hodge structure given by explicit
weight and Hodge filtrations in Betti coordinates:

* the Deligne bigrading I^{p,q}, grading operator Y and Hodge components,
* the canonical real splitting delta (conj(Y) = e^{-2i delta} Y e^{2i delta}),
* the two height functionals of an (a, b)-framed structure,

and ships the polylogarithm family H(z) -- matrices, single-valued
polylogarithms, closed-form splitting and heights -- as an end-to-end
oracle.  See the README for the CLI (`mhs ...`) and file formats.
"""

from .linalg import (DimensionMismatch, NotNilpotent, NotUnipotent, Subspace,
                     nilpotent_exp, nilpotent_log)
from .mhs import (InvalidMHS, MixedHodgeStructure, ValidationReport, conjugate,
                  dual, random_hodge_tate, random_hodge_tate_pair, tate, twist,
                  validate)
from .deligne import (Bigrading, NumericalDegeneracy, ResidualTooLarge,
                      SplittingData, bigrading, delta_splitting,
                      grading_operator, hodge_components)
from .framed import (FramedMHS, FrameElements, FramingTypeError,
                     MorphismReport, RealityViolation, biextension_defect,
                     conjugate_framed, delta_pairing, dual_framed,
                     frame_elements, framed_morphism_check, height1,
                     height1_via_delta, height2, twist_framed)
from .polylog import (NonConvergent, PathThroughSingularity, PolylogContext,
                      PolylogMatrices, TruncationOutOfRange, bernoulli,
                      build_matrices, delta_closed_form, heights_closed_form,
                      li, log_z, polylog_framed, polylog_mhs, sv_bd, sv_brown)

__version__ = "0.1.0"

__all__ = [
    "Subspace", "nilpotent_exp", "nilpotent_log",
    "DimensionMismatch", "NotUnipotent", "NotNilpotent",
    "MixedHodgeStructure", "ValidationReport", "InvalidMHS",
    "validate", "dual", "twist", "conjugate", "tate",
    "random_hodge_tate", "random_hodge_tate_pair",
    "Bigrading", "SplittingData",
    "bigrading", "grading_operator", "hodge_components",
    "delta_splitting", "NumericalDegeneracy", "ResidualTooLarge",
    "FramedMHS", "FrameElements", "FramingTypeError", "RealityViolation",
    "MorphismReport", "frame_elements", "height1", "height1_via_delta",
    "height2", "delta_pairing", "dual_framed", "twist_framed",
    "conjugate_framed", "biextension_defect", "framed_morphism_check",
    "PolylogContext", "PolylogMatrices", "PathThroughSingularity",
    "NonConvergent", "TruncationOutOfRange", "li", "log_z", "sv_brown",
    "sv_bd", "bernoulli",
    "build_matrices", "polylog_mhs", "polylog_framed", "delta_closed_form",
    "heights_closed_form",
]
