"""Alpha-stable variates, stochastic-integral characteristic functions, and
Monte Carlo simulation of TFSM / TFSM II by discretized moving averages.

The stable marginals follow the parameterization with characteristic function

    E exp(i theta X) = exp{ -sigma^alpha |theta|^alpha
                            (1 - i beta tan(pi alpha / 2) sign(theta)) },

whose alpha = 2 case is a centered normal with variance 2 sigma^2.  Paths are
left-truncated Riemann-sum moving averages driven by independent stable cell
increments with scale sigma * dy^(1/alpha), generated from the shared
counter-based (Philox) keying so that first- and second-kind runs with the
same seed are driven by identical noise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PlanError
from .gaussian import PathEnsemble, SampleGrid
from .kernels import DEFAULT_QUAD, ProcessParams, kernel
from .rng import fan_out, philox_generator
from . import specfun


@dataclass(frozen=True)
class StableScaleSkew:
    """Scale and skew functionals sigma^alpha int |f|^alpha and the normalized
    int |f|^alpha sign(f) of a stochastic-integral integrand."""

    scale_alpha: float
    skew_weight: float

    def __post_init__(self):
        if self.scale_alpha < 0.0:
            raise ValueError("scale_alpha must be nonnegative")
        if self.scale_alpha > 0.0 and abs(self.skew_weight) > 1.0 + 1e-12:
            raise ValueError("normalized skew weight cannot exceed 1 in magnitude")


@dataclass(frozen=True)
class DiscretizationPlan:
    """Uniform midpoint grid y_k = y_min + (k + 1/2) dy for the moving average."""

    y_min: float
    dy: float
    n_nodes: int

    def __post_init__(self):
        if self.dy <= 0.0:
            raise ValueError("dy must be positive")
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")

    @property
    def y_max(self) -> float:
        return self.y_min + self.dy * self.n_nodes

    def nodes(self) -> np.ndarray:
        return self.y_min + self.dy * (np.arange(self.n_nodes) + 0.5)

    @classmethod
    def for_grid(cls, grid: SampleGrid, p: ProcessParams, dy: float,
                 cutoff: float | None = None) -> "DiscretizationPlan":
        """Plan covering the kernel support of every grid time, truncated on
        the left where the exponential tail is negligible."""
        if not dy > 0.0:
            raise ValueError(f"dy must be positive, got {dy}")
        if cutoff is None:
            cutoff = DEFAULT_QUAD.cutoff(p.lam)
        t_max = float(grid.times[-1])
        y_min = min(float(grid.times[0]), 0.0) - cutoff
        n = int(math.ceil((t_max - y_min) / dy))
        return cls(y_min=y_min, dy=dy, n_nodes=n)


def sample_stable(alpha: float, beta: float, sigma: float, u) -> np.ndarray | float:
    """Chambers-Mallows-Stuck transform of two uniforms to one stable variate.

    u is a pair (u1, u2) of scalars or equal-shape arrays with entries in
    (0, 1).  alpha = 2 degenerates to sqrt(2) sigma times a standard normal
    (through the same transform), matching the variance-2 sigma^2 convention.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if not -1.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [-1, 1], got {beta}")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u1 = np.asarray(u[0], dtype=float)
    u2 = np.asarray(u[1], dtype=float)
    if np.any((u1 <= 0.0) | (u1 >= 1.0)) or np.any((u2 <= 0.0) | (u2 >= 1.0)):
        raise ValueError("uniforms must lie strictly inside (0, 1)")
    theta = math.pi * (u1 - 0.5)
    w = -np.log(u2)
    if alpha == 2.0:
        x = 2.0 * np.sin(theta) * np.sqrt(w)
    else:
        tb = beta * math.tan(0.5 * math.pi * alpha)
        b0 = math.atan(tb) / alpha
        s0 = (1.0 + tb * tb) ** (0.5 / alpha)
        x = (s0 * np.sin(alpha * (theta + b0)) / np.cos(theta) ** (1.0 / alpha)
             * (np.cos(theta - alpha * (theta + b0)) / w) ** ((1.0 - alpha) / alpha))
    out = sigma * x
    return float(out) if out.ndim == 0 else out


def node_scale_skew(f_nodes: np.ndarray, plan: DiscretizationPlan,
                    p: ProcessParams) -> StableScaleSkew:
    """Riemann-sum scale/skew functionals of a kernel sampled on plan nodes."""
    f = np.asarray(f_nodes, dtype=float)
    if f.shape != (plan.n_nodes,):
        raise PlanError("f_nodes must match the plan node count")
    if not np.all(np.isfinite(f)):
        raise PlanError("kernel nodes contain non-finite values; refine the plan "
                        "so midpoints avoid the kernel singularities")
    absa = np.abs(f) ** p.alpha
    scale = p.sigma ** p.alpha * plan.dy * float(np.sum(absa))
    signed = plan.dy * float(np.sum(absa * np.sign(f)))
    total = plan.dy * float(np.sum(absa))
    skew = signed / total if total > 0.0 else 0.0
    return StableScaleSkew(scale_alpha=scale, skew_weight=skew)


def integral_char_fn(f_nodes: np.ndarray, plan: DiscretizationPlan,
                     p: ProcessParams, theta: float) -> complex:
    """Characteristic function E exp(i theta I(f)) of the stochastic integral,
    with the scale and skew integrals taken over the plan's node grid.

    This is exactly the characteristic function of the Riemann-sum moving
    average driven by the plan, so it doubles as the Monte Carlo target; on a
    fine plan it converges to the continuous-integral value
    exp(-sigma^alpha |theta|^alpha * ||f||_alpha^alpha * (1 - i beta ...)).
    """
    if theta == 0.0:
        return 1.0 + 0.0j
    ss = node_scale_skew(f_nodes, plan, p)
    skew_term = 0.0
    if p.beta != 0.0 and p.alpha < 2.0:
        skew_term = (p.beta * math.tan(0.5 * math.pi * p.alpha)
                     * math.copysign(1.0, theta) * ss.skew_weight)
    expo = -abs(theta) ** p.alpha * ss.scale_alpha * (1.0 - 1j * skew_term)
    return cmath.exp(expo)


def c0_scale(p: ProcessParams) -> float:
    """alpha-norm^alpha of the drift integrand (-y)_+^kappa e^{-lam (-y)_+}:

        int_0^inf y^(alpha H - 1) e^(-alpha lam y) dy
            = Gamma(alpha H) / (alpha lam)^(alpha H),

    the scale functional of the large-time limit variable of the first kind.
    """
    if p.lam <= 0.0:
        raise ValueError("c0_scale requires lambda > 0")
    if p.alpha * p.H <= 0.0:
        raise ValueError("integral diverges: alpha * H must be positive")
    return specfun.gamma_fn(p.alpha * p.H) / (p.alpha * p.lam) ** (p.alpha * p.H)


def kernel_node_table(p: ProcessParams, grid: SampleGrid,
                      plan: DiscretizationPlan) -> np.ndarray:
    """Kernel values k(t_i; y_k) on the plan nodes, n_times x n_nodes.

    Each time row is one array call of kernels.kernel, which evaluates the
    kind's primitive difference over all nodes; filling one row at a time
    keeps the temporaries the size of a row.
    """
    ys = plan.nodes()
    table = np.empty((grid.n, plan.n_nodes))
    for i, t in enumerate(grid.times.tolist()):
        table[i] = kernel(p, t, ys)
    if not np.all(np.isfinite(table)):
        raise PlanError("kernel table hit a singular node; shift y_min or dy "
                        "so midpoints avoid y = 0 and the grid times")
    return table


def path_increments(p: ProcessParams, plan: DiscretizationPlan,
                    seed: int, path: int) -> np.ndarray:
    """Stable cell increments of one path, reproducible from (seed, path).

    The keying ignores p.kind, so first- and second-kind runs at the same
    seed are coupled through identical driving noise.
    """
    rng = philox_generator(seed, path)
    u = rng.random((plan.n_nodes, 2))
    u[u == 0.0] = 0.5 ** 53  # CMS transform needs open-interval uniforms
    cell_sigma = p.sigma * plan.dy ** (1.0 / p.alpha)
    return sample_stable(p.alpha, p.beta, cell_sigma, (u[:, 0], u[:, 1]))


def simulate_tfsm_paths(p: ProcessParams, grid: SampleGrid,
                        plan: DiscretizationPlan, n_paths: int, seed: int,
                        n_workers: int = 1) -> PathEnsemble:
    """Monte Carlo TFSM / TFSM II paths: Z(t_i) = sum_k k(t_i; y_k) dM_k.

    alpha must be < 2 here; the Gaussian case has an exact sampler in the
    gaussian module.  The plan must cover [y_min, max(grid.times)].
    """
    if p.alpha == 2.0:
        raise ValueError("alpha = 2 is simulated exactly by the gaussian module")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if plan.y_max < grid.times[-1] - 1e-12:
        raise PlanError(f"plan ends at y = {plan.y_max} but the grid reaches "
                        f"t = {grid.times[-1]}")
    table = kernel_node_table(p, grid, plan)
    paths = np.empty((n_paths, grid.n))

    def fill(i0: int, i1: int) -> None:
        for i in range(i0, i1):
            paths[i] = table @ path_increments(p, plan, seed, i)

    fan_out(fill, n_paths, n_workers)
    return PathEnsemble(params=p, grid=grid, paths=paths, seed=int(seed))
