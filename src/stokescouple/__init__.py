"""Finite-element solver for two incompressible Stokes layers coupled across
a flat interface by a velocity-jump friction law, with the continuity-coupled
limit and an alternating (Schwarz-type) subdomain iteration."""

__version__ = "0.1.0"

from .coupling import (
    CoupledField,
    ConvergenceReport,
    SchwarzConfig,
    StagnationReport,
    dirichlet_exchange_demo,
    discretize,
    schwarz_solve,
    solve_monolithic_continuity,
    solve_monolithic_friction,
)
from .fem import BodyForce
from .mesh import Geometry, Mesh, Subdomain, build_layered_mesh, mesh_size, validate_mesh
from .verification import (
    ChannelOracle,
    channel_exact,
    energy_residual,
    jump_norm,
    l2_norm,
    run_alpha_sweep,
    w_norm,
)

__all__ = [
    "BodyForce",
    "ChannelOracle",
    "ConvergenceReport",
    "CoupledField",
    "Geometry",
    "Mesh",
    "SchwarzConfig",
    "StagnationReport",
    "Subdomain",
    "build_layered_mesh",
    "channel_exact",
    "dirichlet_exchange_demo",
    "discretize",
    "energy_residual",
    "jump_norm",
    "l2_norm",
    "mesh_size",
    "run_alpha_sweep",
    "schwarz_solve",
    "solve_monolithic_continuity",
    "solve_monolithic_friction",
    "validate_mesh",
    "w_norm",
    "__version__",
]
