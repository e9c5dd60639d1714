"""swingcert: stability certification and simulation of a grid-connected
synchronous generator / synchronverter.

The package models a constant-field-current machine on an infinite bus,
finds and classifies its equilibria, evaluates a computable sufficient
condition for almost global asymptotic stability, and cross-validates the
certificate by direct simulation of the full fourth-order model, its
exact swing-equation reduction, and the underlying forced pendulum.

The package root re-exports the names the command line, tests, demos and
benchmark use; everything else is imported from its module.
"""

from .core import (
    DerivedConstants,
    ParameterError,
    SgParameters,
    SgState,
    derive_constants,
    emf,
    full_rhs,
    storage_energy,
    wrap_angle,
)
from .design import (
    NominalSpec,
    apply_virtual_inductor,
    field_flux,
    inverter_voltage_command,
    size_parameters,
)
from .equilibria import (
    Stability,
    a0_closed_form,
    char_poly,
    linearize,
    solve_equilibria,
)
from .certificate import (
    certificate_csv,
    check_certificate,
    exp_sin_moment,
    nscr,
    p_bounds,
    velocity_band,
)
from .simulator import (
    ConvergedToEquilibrium,
    IntegratorConfig,
    PeriodicOrbit,
    basin_sample,
    cross_validate,
    detect_convergence,
    integrate,
    simulate_ese,
    simulate_full,
)
from .swing import (
    PendulumParams,
    ese_from_full,
    ese_rhs_fn,
    from_pendulum_coords,
    pendulum_energy,
    to_pendulum_coords,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
