"""Classification of the isolated singular points of the moduli space of
principally polarized abelian varieties that carry an automorphism of
maximal prime order p = 2g+1, with explicit polarized-lattice realizations
and character spectra of the cyclic covers that produce them."""

__version__ = "0.1.0"

from .cmtypes import DEFAULT_ENUMERATION_CAP, CmType, enumerate_cm_types, is_cm_type
from .covers import (
    CyclicCoverSpec,
    cover_genus,
    cw_spectrum,
    spectrum_class,
    spectrum_support,
)
from .errors import (
    EnumerationCapExceeded,
    InternalCheckFailed,
    PolarizationNotFound,
    RiemannRelationsViolated,
)
from .fp import PrimeContext, element_order, is_prime, subgroup_generated
from .lattice import (
    AutomorphismReport,
    PeriodData,
    PolarizationForm,
    automorphism_check,
    build_polarization,
    find_polarization,
    gram_matrix,
    multiplication_matrix,
    period_matrix,
    period_report,
    pfaffian,
    reduce_to_fundamental_domain,
    riemann_form_value,
    standard_symplectic,
    symplectic_basis,
)
from .orbits import (
    OrbitClass,
    Stabilizer,
    act,
    burnside_count,
    canonical_form,
    orbit_class,
    orbit_classes,
    stabilizer,
)
from .strata import (
    SpectrumProfile,
    StratumReport,
    SumVerdict,
    classification_row,
    containing_strata,
    extremal_profile,
    is_isolated,
    is_simple,
    stabilizer_element_profile,
    stratum_dimension,
    sum_criterion,
)

__all__ = [
    "__version__",
    "DEFAULT_ENUMERATION_CAP",
    "PrimeContext", "is_prime", "element_order", "subgroup_generated",
    "CmType", "is_cm_type", "enumerate_cm_types",
    "act", "canonical_form", "stabilizer", "Stabilizer",
    "OrbitClass", "orbit_class", "orbit_classes", "burnside_count",
    "SpectrumProfile", "StratumReport", "SumVerdict",
    "stratum_dimension", "extremal_profile", "is_isolated", "is_simple",
    "sum_criterion", "stabilizer_element_profile", "containing_strata",
    "classification_row",
    "PolarizationForm", "PeriodData", "AutomorphismReport",
    "riemann_form_value", "gram_matrix", "build_polarization",
    "find_polarization", "pfaffian", "symplectic_basis", "standard_symplectic",
    "multiplication_matrix", "period_matrix", "automorphism_check",
    "period_report", "reduce_to_fundamental_domain",
    "CyclicCoverSpec", "cover_genus", "cw_spectrum", "spectrum_support",
    "spectrum_class",
    "EnumerationCapExceeded", "PolarizationNotFound",
    "RiemannRelationsViolated", "InternalCheckFailed",
]
