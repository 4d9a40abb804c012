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

``vmsflow.solve.solve`` is the one steady entry point: its ``SolverConfig``
alone picks the strategy and, through a ``ContinuationConfig``, any
Reynolds continuation ladder; ``vmsflow.solve.time_march`` is the
transient one.  ``vmsflow.mesh`` builds the meshes and the DOF numbering,
and ``vmsflow.fem`` holds the reference element and quadrature.
``vmsflow.problems`` defines the benchmark cases (body-force-driven
cavity with manufactured solution, lid-driven cavity, backward-facing
step) and the error norms used in convergence studies;
``vmsflow.output`` writes the result files, and ``vmsflow.cli`` exposes
all of it as the ``vmsflow`` command.  Each name is imported from its
module; the package root re-exports none.
"""

__version__ = "0.1.0"
