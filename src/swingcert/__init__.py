"""swingcert: stability certification and simulation of a grid-connected
synchronous generator / synchronverter.

The package models a constant-field-current machine on an infinite bus,
finds and classifies its equilibria, evaluates a computable sufficient
condition for almost global asymptotic stability, and cross-validates the
certificate by direct simulation of the full fourth-order model and its
exact swing-equation reduction, whose normal form is the forced pendulum
the certificate rests on.

The package root re-exports exactly the names the demos and the
benchmark read as ``swingcert.<name>``; the command line, the tests and
everything else import from the defining module.
"""

from .core import (
    SgState,
    derive_constants,
    emf,
    full_rhs,
    wrap_angle,
)
from .design import (
    NominalSpec,
    apply_virtual_inductor,
    inverter_voltage_command,
    size_parameters,
)
from .equilibria import (
    Stability,
    solve_equilibria,
)
from .certificate import (
    certificate_csv,
    check_certificate,
    nscr,
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
    ese_from_full,
    ese_rhs_fn,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
