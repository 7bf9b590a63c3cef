"""Torsion geometry of G2-structures on the solvable Lie algebras g_{A,B,C}.

Everything is computed along two independent routes (generic exterior
calculus vs tabulated coefficient formulas) and cross-validated; see
``g2abc.gabc.cross_validate`` and the ``g2abc`` command-line tool.
"""

from .errors import (
    DegreeError,
    G2ABCError,
    TorsionSolveError,
    ValidationError,
)
from .exterior import Form, contract, hodge, wedge
from .g2core import (
    G2Structure,
    STANDARD_PHI,
    STANDARD_PSI,
    TorsionData,
    classify,
    full_torsion_from_forms,
    full_torsion_from_nabla,
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
    cross_validate_stack,
    generate,
    generate_many,
    theta,
)
from .liealg import LieAlgebra7, ce_diff
from .riemann import div_torsion, flow_velocity, levi_civita, ricci

__version__ = "0.1.0"

#: The one kernel path: dense numpy operators (see ``_tables``).
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "DegreeError",
    "FamilyKind",
    "Form",
    "G2ABCError",
    "G2Structure",
    "LieAlgebra7",
    "STANDARD_PHI",
    "STANDARD_PSI",
    "TorsionData",
    "TorsionSolveError",
    "TripleABC",
    "ValidationError",
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
    "cross_validate_stack",
    "div_torsion",
    "flow_velocity",
    "full_torsion_from_forms",
    "full_torsion_from_nabla",
    "generate",
    "generate_many",
    "hodge",
    "levi_civita",
    "ricci",
    "tau27_tensor",
    "theta",
    "torsion_data",
    "torsion_forms",
    "wedge",
]
