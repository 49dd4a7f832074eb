"""Ornstein-Uhlenbeck and 3-d radial OU processes: exact transition sampling,
killed-path simulation, the measure change connecting the two laws, closed-form
killed semigroups, and a Monte Carlo verification suite."""

__version__ = "0.1.0"

from .density import (
    density_identity_residual,
    gaussian_pdf,
    killed_density_mass,
    killed_ou_density,
    radial_density,
    radial_density_mass,
    survival_probability,
)
from .harness import MCEstimate, aggregate, ks_statistic, ks_two_sample_critical
from .measure import (
    TestFunctional,
    conditional_identity_gap,
    default_functional_suite,
    estimate_killed_expectation_direct,
    estimate_killed_expectation_via_Q,
    estimate_Q_expectation_via_P,
    inverse_weight,
    local_martingale_curve,
)
from .process import (
    GaussianLaw,
    ProcessParams,
    RadialLaw,
    martingale_value,
    ou_transition,
    radial_transition,
    sample_ou_exact,
    sample_radial_exact,
    time_change,
)
from .simulate import (
    Paths,
    SchemeConfig,
    TimeGrid,
    euler_ou,
    euler_radial,
    simulate_killed_ou_exact,
)
from .suite import SuiteConfig, run_suite
