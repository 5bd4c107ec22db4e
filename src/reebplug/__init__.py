"""Tools for building and checking the ingredients of small-volume Reeb flows:

- C1 radial Hermite functions, a piecewise-polynomial kernel that decides
  their signs and extremes, and deterministic quadrature/ODE kernels,
- area-preserving disk maps with their action and Calabi calculus,
- rotationally symmetric contact forms on solid tori (return systems,
  closed-form orbit enumeration, volume),
- boundary-model radial profiles with the decided B-condition verifier,
- plug construction, axiom verifiers, and the rotational realization,
- exact-arithmetic certificates for the systolic-ratio lower bound.
"""

import types as _types

from .certify import (
    AssemblyInput,
    Certificate,
    CertificationError,
    LedgerEntry,
    TminLedger,
    TraceStep,
    VolumeBudget,
    assemble,
    bound_formula,
    plan_radii,
    systolic_bound,
    tmin_ledger,
    volume_budget,
)
from .diskmap import (
    LAM0,
    ActionField,
    BumpHarmonic,
    DiskMap,
    HamiltonianStep,
    PeriodicOrbit,
    PrimitiveOneForm,
    RadialTwist,
    action,
    calabi,
    compose,
    periodic_points,
    rescale,
)
from .numerics import (
    NonConvergenceError,
    PiecewisePoly,
    QuadratureSpec,
    RadialFunction,
    find_root_1d,
    integrate_1d,
    integrate_disk,
    ode_flow,
)
from .plug import (
    AxiomCheck,
    PlugError,
    PlugReport,
    PlugSystem,
    make_plug,
    orbit_periods,
    realize_rotational,
    rescale_plug,
    verify_a,
    verify_b,
)
from .profile import (
    ConditionReport,
    ProfileCurve,
    ProfileError,
    ProfileParams,
    ProfileReport,
    TauProfile,
    TauReport,
    design_profile,
    tau_profile,
    to_rotform,
    verify_profile,
)
from .rotorus import (
    DISK_PERIOD,
    ContactError,
    OrbitRecord,
    OrbitSearch,
    ReturnSystem,
    RotForm,
    SectionError,
    TminEstimate,
    Volume,
    alpha_pairing,
    angular_rates,
    contact_check,
    dalpha_contraction,
    exact_flow,
    ode_check,
    orbit_enumerate,
    reeb_field,
    return_system,
    tmin,
    volume,
)

__version__ = "0.1.0"

# the public API: every name imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
__all__.append("__version__")
