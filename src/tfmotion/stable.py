"""Alpha-stable variates and Monte Carlo simulation of TFSM / TFSM II by
discretized moving averages.

The stable marginals follow the parameterization with characteristic function

    E exp(i theta X) = exp{ -sigma^alpha |theta|^alpha
                            (1 - i beta tan(pi alpha / 2) sign(theta)) },

whose alpha = 2 case is a centered normal with variance 2 sigma^2.  Paths are
left-truncated Riemann-sum moving averages driven by independent stable cell
increments with scale sigma * dy^(1/alpha), generated from the shared
counter-based (Philox) keying so that first- and second-kind runs with the
same seed are driven by identical noise.  Each path's uniforms are made
from one call for its Philox stream's raw 64-bit words (_uniforms), and its
variates come from one Chambers-Mallows-Stuck transform (_cms), computed in
place, whose sines and cosines are taken from the uniforms without
cancellation, by half-angle tangents.  The kernel
table of either kind (kernel_node_table) keeps the nodes y <= -8 t_max as
the factors of the separable far-field series of kernels._far_kernel, and
the rest dense, from kernels.kernel, one call with one time per element
over each block of whole time rows of at most _NEAR_VALUES values.  The
sampler runs in the calling thread over blocks of whole paths, about 2^17
cell values each, whose paths are one matrix product with the near block
and two through the far block's factors.  It skips the leading far nodes
whose values are below 2^-53 of the table's largest (KernelTable.first),
advancing each path's Philox stream past them.  A plan's default left
truncation is kernels._cutoff(lambda), the quadrature's left-tail edge,
and a plan whose table NumPy cannot index or allocate, or whose node
count no float holds, raises one PlanError (_too_big).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PlanError
from .gaussian import PathEnsemble, SampleGrid
from .kernels import (ProcessParams, _check_params, _cutoff, _far_kernel,
                      kernel)
from .rng import philox_streams

# cell values per block of paths, rounded down to whole paths (at least one)
_BLOCK_VALUES = 2 ** 17
# most values of one kernel call of a kernel table's near block, in whole
# time rows (at least one): larger calls pay more in page faults of their
# temporaries than they save in calls
_NEAR_VALUES = 2 ** 13


@dataclass(frozen=True)
class DiscretizationPlan:
    """Uniform midpoint grid y_k = y_min + (k + 1/2) dy for the moving average."""

    y_min: float
    dy: float
    n_nodes: int

    def __post_init__(self):
        if not (math.isfinite(self.y_min) and 0.0 < self.dy < math.inf):
            raise ValueError(f"need a finite y_min and a finite dy > 0, got "
                             f"y_min = {self.y_min}, dy = {self.dy}")
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
        """Plan covering the kernel support of every grid time from y = -cutoff
        (kernels._cutoff(p.lam) by default), where the tempered tail is
        negligible.  A cutoff <= 0 raises ValueError: the plan would drop the
        mass left of 0 of every kernel but the second kind's indicator at
        H = 1/alpha.  The constructor checks y_min and dy before the node
        count is taken from them, and a count past every float (a dy near
        the least subnormal) raises the PlanError (_too_big) that
        kernel_node_table raises for a table it cannot index."""
        if cutoff is None:
            cutoff = _cutoff(p.lam)
        if not cutoff > 0.0:
            raise ValueError(f"the plan cutoff must be > 0, got {cutoff}")
        plan = cls(y_min=-cutoff, dy=dy, n_nodes=2)
        n = (float(grid.times[-1]) - plan.y_min) / dy
        if n == math.inf:
            raise _too_big(grid.n, n)
        return replace(plan, n_nodes=math.ceil(n))


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms (u1, u2) of n nodes, a contiguous 2 x n array, from 2n
    raw Philox words, node k's pair from words 2k and 2k + 1.

    Each is (word >> 11) 2^-53, bit for bit the double that
    Generator.random makes of the same word, except that 0 (words below
    2^11) becomes 2^-53: the CMS transform needs uniforms in (0, 1).  The
    words are shifted in place.
    """
    words >>= 11
    np.maximum(words, 1, out=words)
    u = np.empty((2, words.size // 2))
    np.multiply(words.reshape(-1, 2).T, 2.0 ** -53, out=u)
    return u


def _cms(alpha: float, beta: float, u1: np.ndarray, u2: np.ndarray,
         scale: float = 1.0, out: np.ndarray | None = None) -> np.ndarray:
    """Chambers-Mallows-Stuck variates times scale from uniforms in (0, 1),
    elementwise over 1-D arrays u1, u2 of one size, written into out (a new
    array by default); Weron's parameterization (Statist. Probab. Lett. 28,
    1996):

        X = s0 sin a / cos th (cos(th - a) / (w cos th))^((1 - alpha)/alpha),

    th = pi (u1 - 1/2), w = -log u2, a = alpha th - delta, g = pi (2 - alpha)/2,
    delta = atan(beta tan g) and s0 = (1 + tan^2 delta)^(1/(2 alpha)).  Each
    sine and cosine is the sine of an angle in [-pi/2, pi/2] measured from
    its nearest zero, taken from the uniforms without cancellation:

        cos th = sin(pi min(u1, 1 - u1)),
        sin a = sin of a, of -(alpha pi u1 + c1) or of alpha pi (1 - u1) + c2,
        cos(th - a) = sin(min(k u1 + c1, k (1 - u1) + c2)),  k = (alpha - 1) pi,

    c1,2 = g -+ delta (exactly 0 at beta = +-1, where sin a and cos(th - a)
    vanish together at one end), and each sine is 2 tau / (1 + tau^2) with
    tau the tangent of the half angle.  alpha = 2 gives 2 sin(th) sqrt(w).
    The arithmetic runs in place through four work arrays of the size of
    u1, operation for operation that of the one expression
    s0 ta q / (ta^2 + 1) (tb q / (w (tb^2 + 1)))^((1 - alpha)/alpha) with
    q = (tt^2 + 1) / tt and ta, tt, tb the three tangents, so the values
    are those of the expression bit for bit; the last step multiplies by
    scale.
    """
    g = 0.5 * math.pi * (2.0 - alpha)
    tg = math.tan(g)
    # halves of c1 = g - delta and c2 = g + delta, by atan2 on [0, pi)
    c1 = 0.5 * math.atan2((1.0 - beta) * tg, 1.0 + beta * tg * tg)
    c2 = 0.5 * math.atan2((1.0 + beta) * tg, 1.0 - beta * tg * tg)
    delta = math.atan(beta * tg)
    s0 = (1.0 + (beta * tg) ** 2) ** (0.5 / alpha)
    v, ta, tt, tb = np.empty((4, u1.size))
    np.subtract(1.0, u1, out=v)
    # tangents of the half angles, each in [-pi/4, pi/4]
    k = 0.5 * alpha * math.pi
    np.multiply(k, v, out=ta)
    ta += c2
    np.multiply(-k, u1, out=tt)
    tt -= c1
    np.subtract(u1, 0.5, out=tb)
    tb *= k
    tb -= 0.5 * delta
    np.maximum(tt, tb, out=tt)
    np.tan(np.minimum(ta, tt, out=ta), out=ta)
    np.minimum(u1, v, out=tt)
    tt *= 0.5 * math.pi
    np.tan(tt, out=tt)
    k = 0.5 * (alpha - 1.0) * math.pi
    np.multiply(k, u1, out=tb)
    tb += c1
    v *= k
    v += c2
    np.tan(np.minimum(tb, v, out=tb), out=tb)
    q = v  # 2 / cos th
    np.multiply(tt, tt, out=q)
    q += 1.0
    q /= tt
    w = tt  # w = -log u2, then w (tb^2 + 1)
    np.negative(np.log(u2, out=w), out=w)
    out = np.empty(u1.size) if out is None else out
    np.multiply(tb, tb, out=out)
    out += 1.0
    w *= out
    tb *= q
    tb /= w
    np.power(tb, (1.0 - alpha) / alpha, out=tb)
    np.multiply(ta, ta, out=out)
    out += 1.0
    np.multiply(s0, ta, out=ta)
    ta *= q
    ta /= out
    np.multiply(ta, tb, out=out)
    out *= scale
    return out


def sample_stable(alpha: float, beta: float, sigma: float, u) -> np.ndarray | float:
    """Chambers-Mallows-Stuck transform of two uniforms to one stable variate
    (_cms).

    u is a pair (u1, u2) of scalars or equal-shape arrays with entries in
    (0, 1).  alpha = 2 degenerates to sqrt(2) sigma times a standard normal
    (through the same transform), matching the variance-2 sigma^2 convention.
    """
    _check_params(sigma=sigma, alpha=alpha, beta=beta)
    u1, u2 = np.broadcast_arrays(np.asarray(u[0], dtype=float),
                                 np.asarray(u[1], dtype=float))
    if np.any((u1 <= 0.0) | (u1 >= 1.0)) or np.any((u2 <= 0.0) | (u2 >= 1.0)):
        raise ValueError("uniforms must lie strictly inside (0, 1)")
    out = _cms(alpha, beta, u1.ravel(), u2.ravel(), sigma).reshape(u1.shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)  # arrays have no truth value for ==
class KernelTable:
    """Kernel values k(t_i; y_k), n_times x n_nodes, in factors: the far
    block (coef @ powers) * scale of kernels._far_kernel at the first
    scale.size nodes, and the dense near block at the others."""

    coef: np.ndarray
    powers: np.ndarray
    scale: np.ndarray
    near: np.ndarray

    @property
    def size(self) -> int:  # values stored
        return self.coef.size + self.powers.size + self.scale.size + self.near.size

    @property
    def first(self) -> int:
        """Even length of the leading run of far nodes whose values are all
        below 2^-53 of the table's largest |value| (bounded below by the near
        block and the last far node), by the bound |scale_j| max_i|coef_i| @
        powers_j on node j's values."""
        if self.scale.size == 0:
            return 0
        bound = np.abs(self.scale) * (np.abs(self.coef).max(axis=0) @ self.powers)
        top = max(np.abs(self.near).max(initial=0.0),
                  np.abs(self.coef @ self.powers[:, -1] * self.scale[-1]).max())
        first = int(np.argmax(np.append(bound >= 2.0 ** -53 * top, True)))
        return first - first % 2


def _too_big(n_times: int, n_nodes: float) -> PlanError:
    """The PlanError of a plan of n_nodes nodes whose n_times x n_nodes
    kernel table cannot be indexed or allocated, with both counts and the
    table's bytes in %.3g."""
    return PlanError(f"plan of {n_nodes:.3g} nodes needs a {n_times} x "
                     f"{n_nodes:.3g} kernel table ({8.0 * n_times * n_nodes:.3g} "
                     f"bytes), more than can be allocated; raise dy")


def kernel_node_table(p: ProcessParams, grid: SampleGrid,
                      plan: DiscretizationPlan) -> KernelTable:
    """Kernel values k(t_i; y_k) on the plan nodes as a KernelTable.

    The nodes far left of every time, y <= -8 max(t), are a prefix of the
    ascending nodes, whose block kernels._far_kernel gives in factors.  The
    other nodes, the near block, are one call of kernels.kernel with one
    time per element for each block of whole time rows of at most
    _NEAR_VALUES values (one row if a row is longer), whose temporaries stay
    that size.  A plan whose nodes or table NumPy cannot index or allocate
    raises PlanError naming both sizes.
    """
    too_big = _too_big(grid.n, plan.n_nodes)
    if 8 * grid.n * plan.n_nodes > np.iinfo(np.intp).max:  # the table's bytes
        raise too_big
    try:
        ys = plan.nodes()
        coef, powers, scale = _far_kernel(p, -ys, grid.times)
        ys = ys[scale.size:]
        near = np.empty((grid.n, ys.size))
    except MemoryError as exc:
        raise too_big from exc
    rows = max(1, _NEAR_VALUES // max(1, ys.size))
    for i in range(0, grid.n, rows):
        t = grid.times[i:i + rows]
        block = kernel(p, np.repeat(t, ys.size), np.tile(ys, t.size))
        near[i:i + rows] = block.reshape(t.size, ys.size)
    if not all(np.isfinite(a).all() for a in (coef, powers, scale, near)):
        raise PlanError("kernel table hit a singular node; shift y_min or dy "
                        "so midpoints avoid y = 0 and the grid times")
    return KernelTable(coef, powers, scale, near)


def path_increments(p: ProcessParams, plan: DiscretizationPlan,
                    rng: np.random.Generator, first: int = 0,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Stable cell increments of one path at the plan nodes from an even
    index first on, drawn from rng, whose bit generator must have advance
    (Philox, PCG64); simulate_tfsm_paths passes path i stream i of
    rng.philox_streams(seed) and its KernelTable.first.

    The uniforms are 2 n raw words of rng's bit generator, one random_raw
    call (_uniforms), bitwise the doubles of rng.random((n, 2)) with 0
    raised to 2^-53, and the increments are their CMS variates (_cms) times
    the cell scale sigma dy^(1/alpha), written into out when given (a 1-D
    array of the n = n_nodes - first values).  A node takes two words and a
    Philox counter step four, so a Philox rng advances first // 2 steps (none
    at first = 0) and this is bitwise the tail [first:] of a full draw.  The
    keying ignores p.kind, so first- and second-kind runs at the same seed
    are coupled through identical driving noise.  simulate_tfsm_paths
    makes one call per path, into its block's row, so these are bitwise the
    increments it used.
    """
    if first % 2 or not 0 <= first <= plan.n_nodes:
        raise ValueError(f"first must be even and in [0, {plan.n_nodes}], got {first}")
    rng.bit_generator.advance(first // 2)
    u1, u2 = _uniforms(rng.bit_generator.random_raw(2 * (plan.n_nodes - first)))
    cell_sigma = p.sigma * plan.dy ** (1.0 / p.alpha)
    return _cms(p.alpha, p.beta, u1, u2, cell_sigma, out)


def simulate_tfsm_paths(p: ProcessParams, grid: SampleGrid,
                        plan: DiscretizationPlan, n_paths: int, seed: int,
                        n_workers: int = 1) -> PathEnsemble:
    """Monte Carlo TFSM / TFSM II paths: Z(t_i) = sum_k k(t_i; y_k) dM_k.

    alpha must be < 2 here; the Gaussian case has an exact sampler in the
    gaussian module.  lambda must be > 0: the plan's left cutoff rests on
    the tempering, and untempered kernels leave mass beyond any cutoff (4.7%
    of Z(1)'s alpha-mass lies left of -50 at H = 0.8, alpha = 1.5).  The
    plan must cover [y_min, max(grid.times)].

    Paths are made in blocks of max(1, _BLOCK_VALUES // n_nodes) paths in
    the calling thread: each path's increments (path_increments) fill one
    row of the block dM, whose paths are the products with the kernel
    table's factors dM_near @ near.T + ((dM_far * scale) @ powers.T) @ coef.T.
    The nodes before KernelTable.first are neither drawn nor multiplied,
    which moves a path by at most 2^-53 max|k| sum_k |dM_k|.  The block
    bounds depend on the plan alone, so the output bytes depend on neither
    n_workers (accepted for callers that pass it, and ignored) nor the BLAS
    thread count.
    """
    if p.alpha == 2.0:
        raise ValueError("alpha = 2 is simulated exactly by the gaussian module")
    if p.lam <= 0.0:
        raise ValueError("stable paths require lambda > 0: the plan's cutoff "
                         "rests on the tempering")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if plan.y_max < grid.times[-1] - 1e-12:
        raise PlanError(f"plan ends at y = {plan.y_max} but the grid reaches "
                        f"t = {grid.times[-1]}")
    streams = philox_streams(seed, range(n_paths))
    table = kernel_node_table(p, grid, plan)
    first = table.first
    m = table.scale.size - first
    paths = np.empty((n_paths, grid.n))
    rows = max(1, _BLOCK_VALUES // plan.n_nodes)
    dm = np.empty((min(rows, n_paths), plan.n_nodes - first))
    for i0 in range(0, n_paths, rows):
        d = dm[:min(rows, n_paths - i0)]
        for r in range(len(d)):
            path_increments(p, plan, next(streams), first, d[r])
        far = (d[:, :m] * table.scale[first:]) @ table.powers[:, first:].T
        paths[i0:i0 + len(d)] = d[:, m:] @ table.near.T + far @ table.coef.T
    return PathEnsemble(params=p, grid=grid, paths=paths, seed=int(seed))
