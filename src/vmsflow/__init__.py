"""Bubble-stabilized multiscale finite elements for 2D incompressible flow.

The package discretizes the steady and transient incompressible
Navier-Stokes equations with equal-order linear triangles for velocity
and pressure.  Stability comes from a per-element fine-scale velocity
carried by a cubic bubble.  Two nonlinear strategies are provided:

* a consistent Newton-Raphson scheme that keeps the fine-scale
  coefficients as unknowns and eliminates them element by element
  through a Schur complement (``vmsflow.newton`` + ``vmsflow.solve``),
* a fixed-point (Picard) scheme in which the linearized fine-scale
  problem is solved analytically, yielding a tensor-valued
  stabilization parameter (``vmsflow.fixed_point``).

``vmsflow.problems`` defines the benchmark cases (body-force-driven
cavity with manufactured solution, lid-driven cavity, backward-facing
step) and the error norms used in convergence studies; ``vmsflow.cli``
exposes them as the ``vmsflow`` command.
"""

from vmsflow.fem import (
    DegenerateElementError,
    QuadratureRule,
    triangle_quadrature,
)
from vmsflow.mesh import (
    BoundaryConditions,
    DofMap,
    Mesh,
    backward_step_mesh,
    build_dof_map,
    elimination_order,
    nested_dissection,
    read_mesh,
    unit_square_mesh,
    write_mesh,
)
from vmsflow.newton import (
    CondensedElement,
    Discretization,
    ElementResiduals,
    ElementTangent,
    FineScaleSingularError,
    State,
    assemble_system,
    condense,
    element_residuals,
    element_tangent,
    recover_fine_scale,
)
from vmsflow.fixed_point import (
    FpElementSystem,
    TauSingularError,
    TauTensor,
    compute_tau,
    fp_assemble,
    fp_element_system,
)
from vmsflow.solve import (
    IterationReport,
    LinearSolveError,
    SolverConfig,
    continuation_solve,
    fixed_point_solve,
    linear_solve,
    newton_solve,
    time_march,
)
from vmsflow.problems import (
    ConvergenceTable,
    ErrorNorms,
    ExactSolution,
    ProblemSpec,
    backward_step,
    body_force_cavity,
    convergence_study,
    error_norms,
    lid_cavity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
