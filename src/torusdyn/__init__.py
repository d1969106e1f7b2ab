"""Exact workbench for fixed points of lattice-torus endomorphisms.

Models a complex torus as the lattice Z^{2g} with an optional rational
complex structure (integer numerators over one denominator) and integral
Riemann form; endomorphisms, and the affine automorphisms of a group
action, are integer matrices with rational translations.  Everything downstream (degrees,
fixed-point counts, growth tables, quotient bounds, intersection
identities) is computed in exact arithmetic.
"""

from .fixpoint import (
    BudgetExceededError,
    ComparisonReport,
    ComparisonRow,
    DegenerateFixedLocusError,
    EigenvalueCheck,
    GrowthRow,
    RootFindingError,
    brute_force_count,
    compare_exact,
    count_fixed,
    eigenvalue_magnitude_check,
    enumerate_fixed,
    factor_product_formula,
    growth_table,
    iterate_determinants,
    periodic_subvariety_count,
    periodic_subvariety_map,
)
from .intersection import (
    ExpansionComparison,
    PullbackCheck,
    compare_expansion_readings,
    expand_sum_power,
    pullback_degree_check,
    standard_symplectic_form,
)
from .lattice import (
    ComplexTorus,
    LatticeEndomorphism,
    SimpleFactorSpec,
    TorsionPoint,
    complementary_isogeny,
    compose,
    degree,
    is_analytic,
    polarization_multiplier,
    power,
    restrict_to_sublattice,
    solve_mod_lattice,
)
from .linalg import (
    IntegerMatrix,
    IntegerPolynomial,
    SmithDecomposition,
    charpoly,
    det,
    pfaffian,
    smith_normal_form,
)
from .quotient import (
    ActionReport,
    GroupAction,
    LiftReport,
    QuotientBound,
    lift_compatibility,
    orbit_partition,
    quotient_fixed_lower_bound,
    quotient_table,
    validate_action,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    SubvarietySpec,
    builtin_scenarios,
    load_scenario_file,
    resolve_scenario,
    save_scenario_file,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"
