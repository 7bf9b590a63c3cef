"""Torsion geometry of G2-structures on the solvable Lie algebras g_{A,B,C}.

Everything is computed along two independent routes (generic exterior
calculus vs tabulated coefficient formulas) and cross-validated; see
``g2abc.gabc.cross_validate`` and the ``g2abc`` command-line tool.
"""

from .errors import (
    DegreeError,
    G2ABCError,
    MetricError,
    PositivityError,
    TorsionSolveError,
    ValidationError,
)
from .exterior import Form, Metric7, contract, form_inner, hodge, wedge
from .g2core import (
    G2Structure,
    STANDARD_PHI,
    STANDARD_PSI,
    TorsionData,
    classify,
    full_torsion_from_forms,
    full_torsion_from_nabla,
    induced_metric,
    tau27_tensor,
    torsion_data,
    torsion_forms,
)
from .gabc import (
    FamilyKind,
    TripleABC,
    build,
    classify_triple,
    closed_form_connection,
    closed_form_derivatives,
    closed_form_divergence,
    closed_form_ricci,
    closed_form_torsion,
    cross_validate,
    cross_validate_many,
    generate,
    theta,
)
from .liealg import LieAlgebra7, bracket, ce_diff, is_unimodular, jacobi_residual
from .riemann import Connection7, div_torsion, flow_velocity, levi_civita, ricci, u_map

__version__ = "0.1.0"

#: The one kernel path: dense numpy operators (see ``_tables``).
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "Connection7",
    "DegreeError",
    "FamilyKind",
    "Form",
    "G2ABCError",
    "G2Structure",
    "LieAlgebra7",
    "Metric7",
    "MetricError",
    "PositivityError",
    "STANDARD_PHI",
    "STANDARD_PSI",
    "TorsionData",
    "TorsionSolveError",
    "TripleABC",
    "ValidationError",
    "bracket",
    "build",
    "ce_diff",
    "classify",
    "classify_triple",
    "closed_form_connection",
    "closed_form_derivatives",
    "closed_form_divergence",
    "closed_form_ricci",
    "closed_form_torsion",
    "contract",
    "cross_validate",
    "cross_validate_many",
    "div_torsion",
    "flow_velocity",
    "form_inner",
    "full_torsion_from_forms",
    "full_torsion_from_nabla",
    "generate",
    "hodge",
    "induced_metric",
    "is_unimodular",
    "jacobi_residual",
    "levi_civita",
    "ricci",
    "tau27_tensor",
    "theta",
    "torsion_data",
    "torsion_forms",
    "u_map",
    "wedge",
]
