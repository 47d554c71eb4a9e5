"""Empirical machinery that squeezes the analytic bounds.

Numeric density grids, Monte-Carlo entropy, the Gaussian-input mutual
information computed by density convolution, the sphere-packing count
ratio, and ``run_checks``, the invariant suite behind ``uwacap verify``.
Everything here is an independent route used to check the closed forms in
the other modules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gg_noise as _gg
from .capacity import ChannelConfig, awggn_bounds, gap
from .numerics import DomainError, QuadratureError, integer, integrate, to_units

_CLUSTER_POWER = 4.0  # gg_density_grid offsets grow as u**4 away from the mean
_GL_ORDER = 20  # Gauss-Legendre nodes per panel
_PANEL_FACTOR = 2.0  # c: a regular panel spans a step of c in max(d/sqrt(P), (d/scale)**beta)
_GRADING_RATIO = 0.2  # width ratio of successive panels graded into the cusp
_GRADED_PANELS = 13  # innermost panel is 0.2**13 ~ 8e-10 of the first regular one
_BLOCK_ELEMENTS = 2**18  # array elements evaluated at once
_MAX_GRID_POINTS = 20_000  # output_density stops doubling its grid once it reaches this size


@dataclass(frozen=True)
class DensityGrid:
    """A density tabulated on strictly increasing abscissae.

    ``truncation_mass`` is the probability left outside the grid; the grid
    has ``landed`` when the trapezoidal mass of the tabulated values lies in
    [1 - 2*truncation_mass, 1].
    """

    points: np.ndarray
    values: np.ndarray
    truncation_mass: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if points.ndim != 1 or points.shape != values.shape or len(points) < 2:
            raise DomainError("points and values must be matching 1-d arrays")
        if not np.all(np.diff(points) > 0):
            raise DomainError("grid points must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise DomainError("density values must be finite and >= 0")
        if not 0 < self.truncation_mass < 1:
            raise DomainError("truncation_mass must lie in (0, 1)")

    @property
    def mass(self):
        return float(np.trapezoid(self.values, self.points))

    @property
    def landed(self):
        """Whether the mass lies in [1 - 2*truncation_mass, 1], up to 1e-12 of rounding above 1."""
        return 1.0 - 2.0 * self.truncation_mass <= self.mass <= 1.0 + 1e-12


def grid_entropy(grid):
    """-integral f*log(f) by composite trapezoidal quadrature, 0*log(0) := 0."""
    f = grid.values
    integrand = np.zeros_like(f)
    positive = f > 0
    integrand[positive] = -f[positive] * np.log(f[positive])
    return float(np.trapezoid(integrand, grid.points))


def gg_density_grid(law, truncation_mass=1e-8, points_per_side=200_000):
    """Tabulate a GG density on a grid clustered around its mean.

    The power-law clustering resolves the cusp at the mean for beta < 2
    (the density's derivative is singular there), which a uniform grid
    cannot integrate to the mass tolerance. Extent is set by inverting the
    tail mass, not by a fixed multiple of the standard deviation.
    """
    radius = _gg.tail_radius(law, truncation_mass)
    u = np.linspace(0.0, 1.0, points_per_side + 1)
    offsets = radius * u**_CLUSTER_POWER
    points = np.concatenate([law.mean - offsets[:0:-1], law.mean + offsets])
    return DensityGrid(points, _gg.pdf(law, points), truncation_mass)


def mc_entropy(law, config):
    """Resubstitution entropy estimate -(1/n) sum log pdf(N_i) with its standard error."""
    if config.samples < 1_000:
        raise DomainError("mc_entropy needs at least 1000 samples")
    draws = _gg.sample(law, config.seed, config.samples, chunks=config.chunks, threads=config.threads)
    log_p = _gg.log_pdf(law, draws)
    estimate = -float(np.mean(log_p))
    std_error = float(np.std(log_p, ddof=1)) / math.sqrt(config.samples)
    return estimate, std_error


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(_GL_ORDER)


class _Panels:
    """Panel edges over the distance d = |n - mean| from the noise cusp.

    Regular panels lie between integer values of the stretched coordinate
    c * u(d) = max(d / sqrt(P), (d / scale)**beta), whose inverse is
    d = min(t * sqrt(P), scale * t**(1 / beta)) for every beta. A panel is at
    most c * sqrt(P) wide and spans at most c of the noise exponent, so it is
    at most c * min(sqrt(P), l_N(d)) wide, l_N(d) = scale * z**(1 - beta) / beta
    (z = d/scale), save up to a factor max(beta, 1/beta) between the value and
    slope crossings of the two terms. The first regular panel [0, d1] is
    replaced by panels graded by ``_GRADING_RATIO`` into the cusp, where the
    density's derivatives are singular for non-even beta, ending in
    [0, d1 * 0.2**13]. Panel j is [edge(j), edge(j + 1)]; ``index`` inverts ``edge``.
    """

    def __init__(self, law, power):
        self.beta, self.scale = law.beta, law.scale
        self.root = math.sqrt(power)
        self.first = float(self._distance(_PANEL_FACTOR))
        self.innermost = self.first * _GRADING_RATIO**_GRADED_PANELS

    def _stretch(self, d):
        return np.maximum(d / self.root, (d / self.scale) ** self.beta)

    def _distance(self, t):
        """The d at which c * u(d) = t."""
        return np.minimum(t * self.root, self.scale * t ** (1.0 / self.beta))

    def edge(self, j):
        regular = self._distance(_PANEL_FACTOR * np.maximum(j - _GRADED_PANELS, 1.0))
        steps_in = _GRADED_PANELS + 1.0 - np.clip(j, 1.0, _GRADED_PANELS + 1.0)
        graded = self.first * _GRADING_RATIO**steps_in
        return np.where(j < 1.0, j * self.innermost, np.where(j <= _GRADED_PANELS, graded, regular))

    def index(self, d):
        graded = _GRADED_PANELS + 1.0 - np.log(
            self.first / np.clip(d, self.innermost, self.first)
        ) / math.log(1.0 / _GRADING_RATIO)
        return np.where(
            d < self.innermost,
            d / self.innermost,
            np.where(d < self.first, graded, _GRADED_PANELS + self._stretch(d) / _PANEL_FACTOR),
        )


def _convolved_values(law, power, points, noise_radius, input_radius):
    """f_Y at ``points``: the convolution integral over each point's own window.

    Each point integrates over [y - input_radius, y + input_radius] cut to
    [mean - noise_radius, mean + noise_radius], split at the cusp into at
    most two pieces. A piece takes the ``_Panels`` panels it overlaps,
    trimmed to its ends, so the window is clipped exactly; each panel
    carries ``_GL_ORDER`` nodes. Pieces are evaluated in blocks of about
    ``_BLOCK_ELEMENTS`` nodes, one array expression per block, and summed
    per point with bincount.
    """
    nodes, weights = _gauss_legendre()
    panels = _Panels(law, power)
    mean = law.mean
    lo = np.maximum(mean - noise_radius, points - input_radius)
    hi = np.minimum(mean + noise_radius, points + input_radius)

    # pieces: left of the cusp (distances from the mean, sign -1), then right
    near = np.concatenate([mean - np.minimum(hi, mean), np.maximum(lo, mean) - mean])
    far = np.concatenate([mean - lo, hi - mean])
    sign = np.repeat([-1.0, 1.0], len(points))
    owner = np.tile(np.arange(len(points)), 2)
    keep = far > near
    near, far, sign, owner = near[keep], far[keep], sign[keep], owner[keep]
    first = np.floor(panels.index(near))
    counts = (np.ceil(panels.index(far)) - first).astype(np.int64)

    log_const = law.log_norm - 0.5 * math.log(2.0 * math.pi * power)
    values = np.zeros(len(points))
    starts = np.cumsum(counts) - counts
    block_of = starts // (_BLOCK_ELEMENTS // _GL_ORDER)
    for block in np.split(np.arange(len(counts)), np.flatnonzero(np.diff(block_of)) + 1):
        sizes = counts[block]
        piece = np.repeat(block, sizes)
        j = first[piece] + np.arange(len(piece)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        a = np.maximum(panels.edge(j), near[piece])
        b = np.minimum(panels.edge(j + 1.0), far[piece])
        half = 0.5 * np.maximum(b - a, 0.0)
        d = (a + half)[:, None] + half[:, None] * nodes
        x = (points[owner[piece]] - mean)[:, None] - sign[piece][:, None] * d
        exponent = log_const - (d / law.scale) ** law.beta - 0.5 * x * x / power
        values += np.bincount(
            owner[piece], weights=(np.exp(exponent) @ weights) * half, minlength=len(points)
        )
    return values


def output_density(config, truncation_mass=1e-10, grid_points=2001):
    """Density of Y = X + N with X ~ Normal(0, P), by vectorized convolution.

    Each value f_Y(y) = integral f_N(n) * phi_P(y - n) dn is composite
    Gauss-Legendre quadrature (20 nodes per panel) over the point's own
    window [y - R_X, y + R_X] cut to [mean - R_N, mean + R_N], where R_X and
    R_N each leave half of ``truncation_mass`` in the tails of the input
    (the GG law with beta = 2, scale sqrt(2P)) and of the noise. Each panel
    spans a step of c = 2 in max(d / sqrt(P), (d / scale)**beta), where
    d = |n - mean|, and panels are graded (ratio 0.2) into the noise
    cusp. Blocks of about 2**18 array elements bound memory for any
    grid. Error model: pointwise within 1e-9 relative of an mpmath oracle of
    the same windowed integral, measured for beta in [0.3, 20].

    The grid extends until each factor density's tail mass is below half of
    ``truncation_mass``. When the Gaussian smoothing scale sqrt(P) is too
    narrow for the grid step to resolve the noise peak, the grid mass misses
    its window and the grid is doubled (2001 -> 4001 -> ... -> 32001 points
    from the default). The returned grid is certified at the requested
    ``truncation_mass``: it has ``landed``. Once a grid of 20,000 points or
    more has missed, QuadratureError is raised carrying its mass.
    """
    if config.signal_power <= 0:
        raise DomainError("output_density requires signal_power > 0")
    count = integer("grid_points", grid_points, 2)
    law = config.noise
    power = float(config.signal_power)
    noise_radius = _gg.tail_radius(law, 0.5 * truncation_mass)
    input_radius = _gg.tail_radius(_gg.GGNoise(2.0, math.sqrt(2.0 * power)), 0.5 * truncation_mass)
    half_width = noise_radius + input_radius
    while True:
        points = law.mean + np.linspace(-half_width, half_width, count)
        values = _convolved_values(law, power, points, noise_radius, input_radius)
        grid = DensityGrid(points, values, truncation_mass)
        if grid.landed:
            return grid
        if count >= _MAX_GRID_POINTS:
            raise QuadratureError(
                "output_density grid mass never landed in [1 - 2*truncation_mass, 1]",
                estimate=grid.mass,
                error_indicator=abs(grid.mass - 1.0),
            )
        count = 2 * count - 1


def _grid_mi(grid, noise, units):
    return to_units(grid_entropy(grid) - _gg.entropy(noise, "nats"), units)


def gaussian_input_mi(config, units="bits", truncation_mass=1e-10, grid_points=2001):
    """I(X;Y) = h(Y) - h(N) for a Gaussian input of power P.

    Deterministic (convolution + quadrature); must land inside the
    awggn_bounds sandwich for the same config.
    """
    grid = output_density(config, truncation_mass=truncation_mass, grid_points=grid_points)
    return _grid_mi(grid, config.noise, units)


def _mass_row(name, grid):
    return (name, abs(grid.mass - 1.0), 2.0 * grid.truncation_mass, grid.landed)


def run_checks(config, quick):
    """(name, measured, tolerance, passed) rows of the invariant suite.

    ``config`` is a SimConfig (seed, sample budget, quadrature tolerance);
    ``quick`` shrinks the beta/SNR sweep and the grids for a smoke run.
    """
    betas = (1.0, 2.0) if quick else (0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
    snrs = (1.0,) if quick else (0.1, 1.0, 10.0, 100.0)
    rows = []

    for beta in betas:
        law = _gg.with_variance(beta, 1.0)
        mass = integrate(lambda n: _gg.pdf(law, n), -math.inf, math.inf, config.quad_rtol)
        rows.append(("pdf_mass beta=%g" % beta, abs(mass - 1.0), 1e-8, abs(mass - 1.0) <= 1e-8))

    for beta in betas:
        law = _gg.with_variance(beta, 1.0)
        estimate, stderr = mc_entropy(law, config)
        z = abs(estimate - _gg.entropy(law, "nats")) / stderr
        rows.append(("mc_entropy beta=%g (|z|)" % beta, z, 4.0, z <= 4.0))

    points = 20_000 if quick else 200_000
    grid_mass = 1e-7 if quick else 1e-8
    gauss_grid = gg_density_grid(
        _gg.with_variance(2.0, 1.0), truncation_mass=grid_mass, points_per_side=points
    )
    gauss_entropy = grid_entropy(gauss_grid)
    for beta in betas:
        grid = gg_density_grid(
            _gg.with_variance(beta, 1.0), truncation_mass=grid_mass, points_per_side=points
        )
        diff = gauss_entropy - grid_entropy(grid)
        err = abs(diff - gap(beta, "nats"))
        tol = 1e-5 if quick else 1e-6
        rows.append(("entropy_gap_identity beta=%g" % beta, err, tol, err <= tol))
        rows.append(_mass_row("grid_mass beta=%g" % beta, grid))

    mi_points = 801 if quick else 2001
    for beta in betas:
        for snr in snrs:
            cfg = ChannelConfig(snr, _gg.with_variance(beta, 1.0))
            grid = output_density(cfg, grid_points=mi_points)
            mi = _grid_mi(grid, cfg.noise, "bits")
            bounds = awggn_bounds(cfg, "bits")
            inside = bounds.lower - 1e-4 <= mi <= bounds.upper + 1e-4
            slack = max(bounds.lower - mi, mi - bounds.upper, 0.0)
            rows.append(("mi_sandwich beta=%g snr=%g" % (beta, snr), slack, 1e-4, inside))
            rows.append(_mass_row("output_mass beta=%g snr=%g" % (beta, snr), grid))
    return rows


def sphere_packing_ratio(beta, dimensions):
    """Packing-count factor 2**(K*gap(beta)) for K-dimensional codewords.

    Equals exp(K * (h(N_gaussian) - h(N_gg))) at equal noise variance: GG
    noise spheres are smaller, so more of them fit in the output sphere.
    """
    dimensions = integer("dimensions", dimensions, 1)
    try:
        return math.exp(dimensions * gap(beta, "nats"))
    except OverflowError:
        raise DomainError("dimensions is too large: the packing ratio overflows a float") from None
