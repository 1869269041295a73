"""ldlab: a desk-scale laboratory for left-definite Hilbert scales, self-adjoint
extensions via linear relations, and finite-rank singular perturbations."""

from .spectral import (
    HermitianMatrix,
    LinearRelation,
    SpectralDecomposition,
    Subspace,
    eigh,
    mat_power,
    orthocomplement,
    rel_compose,
    rel_is_selfadjoint,
    subspace_intersect,
    subspaces_equal,
)
from .leftdef import (
    ClosedFormR,
    LeftDefiniteOperator,
    LeftDefiniteSpace,
    SpectralOperator,
    ld_inner,
    ld_operator,
    ld_space,
    verify_ld_properties,
)
from .hscale import (
    GrowthModel,
    critical_index,
    duality_pair,
    equivalence_check,
    hs_norm,
    isometry_check,
    membership,
)
from .classical import (
    DirichletFormSpec,
    LaguerreBasis,
    bj_coeff,
    dirichlet_inner,
    laguerre_apply_A,
    laguerre_identity_check,
    spectral_inner,
)
from .extensions import (
    DeficiencyReport,
    PerturbationSpec,
    deficiency_indices,
    friedrichs_power_experiment,
    friedrichs_relation,
    interlacing_check,
    limit_crosscheck,
    minimal_relation,
    perturb,
    perturbed_spectrum,
    theta_sweep,
    von_neumann_check,
)
from .sldiscrete import (
    BoundaryFunctional,
    DiscreteOperator,
    SLCoefficients,
    boundary_functional,
    discretize,
    greens_dirichlet_check,
    principal_solution,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .report import Report, emit
from .scenarios import run_scenario

__version__ = "0.1.0"
