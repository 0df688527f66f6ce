"""2D bond-based peridynamics with direction-dependent surface stiffening.

Modules: geometry (bodies, grids, bonds, ray queries), material
(calibration and surface correction), pd_core (assembly, solves, contact),
fem_ref (plane-stress Q4 reference), analytic (closed forms and oracles),
bench_cli (experiment harness).
"""

from .geometry import (
    Domain, GridSpec, NodeSet, BondTable, GeometryError,
    build_grid, add_virtual_layers, build_bonds,
)
from .material import (
    ElasticParams, HookeTensor, MicromodulusProfile, MaterialModel,
    CorrectionField, calibrate_bulk, correct_bonds,
    hooke_plane_stress, discrete_hooke, effective_constants,
)
from .pd_core import (
    BCSet, SolverFailure, assemble, solve_static,
    strain_energy_density, reaction_force, check_bond_inversion,
    run_indentation,
)
from .fem_ref import FEMesh, fem_assemble, fem_energy_density
from .analytic import (
    AffineField, RankDeficiency, uniaxial_solution, relative_error_field,
    dense_oracle_solve,
)

__version__ = "0.1.0"
