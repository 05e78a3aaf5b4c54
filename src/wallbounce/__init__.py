"""Gaussian wave packets bouncing off a hard wall.

Closed-form results (mirror normalization, exact even moments, energy
shift, near-collision approximations, autocorrelation, and the
non-standard node/wall packet family), each cross-validated against an
independent numerical oracle built on grid quadrature and a
norm-preserving hard-wall propagator.
"""

from .packets import (
    Moments,
    PacketParams,
    autocorrelation_free,
    free_moments,
    phi_free,
    psi_free,
)
from .bouncer import (
    ApproximationWindowWarning,
    BouncerParams,
    DegenerateMirrorError,
    autocorrelation_bouncer,
    collision_force_scale,
    effective_force,
    energy_shift,
    in_expansion_window,
    mirror_normalization,
    momentum_second_moment,
    overlap_correction,
    p_mean_at_collision,
    phase_space_distance,
    position_second_moment,
    psi_bouncer,
    x_mean_near_collision,
)
from .special import (
    SpecialParams,
    node_packet_moments,
    phi_node_packet,
    psi_node_packet,
    psi_wall_packet,
    wall_packet_force,
    wall_packet_moments,
    wall_packet_uncertainty,
)
from .oracle import (
    GridMismatchError,
    GridSpec,
    GridState,
    StencilConvergenceError,
    TailCaptureError,
    moment_p,
    moment_x,
    overlap,
    propagate,
    sample,
    window_grid,
)

__version__ = "0.1.0"
