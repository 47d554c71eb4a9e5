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
from scipy import special as _special

from . import gg_noise as _gg
from .capacity import ChannelConfig, awggn_bounds, gap
from .numerics import DomainError, QuadratureError, integrate, to_units


@dataclass(frozen=True)
class DensityGrid:
    """A density tabulated on strictly increasing abscissae.

    ``truncation_mass`` is the probability left outside the grid; the
    trapezoidal mass of the tabulated values must land in
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
        mass = self.mass
        if not (1.0 - 2.0 * self.truncation_mass <= mass <= 1.0 + 1e-12):
            raise DomainError(
                "grid mass %.17g outside [1 - 2*truncation_mass, 1]" % mass
            )

    @property
    def mass(self):
        return float(np.trapezoid(self.values, self.points))


def grid_entropy(grid):
    """-integral f*log(f) by composite trapezoidal quadrature, 0*log(0) := 0."""
    f = grid.values
    integrand = np.zeros_like(f)
    positive = f > 0
    integrand[positive] = -f[positive] * np.log(f[positive])
    return float(np.trapezoid(integrand, grid.points))


def gg_density_grid(law, truncation_mass=1e-8, points_per_side=200_000, cluster_power=4.0):
    """Tabulate a GG density on a grid clustered around its mean.

    The power-law clustering resolves the cusp at the mean for beta < 2
    (the density's derivative is singular there), which a uniform grid
    cannot integrate to the mass tolerance. Extent is set by inverting the
    tail mass, not by a fixed multiple of the standard deviation.
    """
    radius = _gg.tail_radius(law, truncation_mass)
    u = np.linspace(0.0, 1.0, points_per_side + 1)
    offsets = radius * u**cluster_power
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


def _gaussian_tail_radius(var, mass):
    return math.sqrt(2.0 * var) * float(_special.erfcinv(mass))


_GL_ORDER = 20  # Gauss-Legendre nodes per panel
_PANEL_FACTOR = 2.0  # c in the panel-width rule c * min(sqrt(P), l_N(d))
_GRADING_RATIO = 0.2  # width ratio of successive panels graded into the cusp
_GRADED_PANELS = 13  # innermost panel is 0.2**13 ~ 8e-10 of the first regular one
_BLOCK_ELEMENTS = 2**18  # array elements evaluated at once


@functools.cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(_GL_ORDER)


class _Panels:
    """Panel edges over the distance d = |n - mean| from the noise cusp.

    Regular panels lie between integer values of the stretched coordinate
    u(d) = (1/c) * integral_0^d max(1/sqrt(P), 1/l_N(t)) dt, where
    l_N(d) = scale * z**(1 - beta) / beta (z = d/scale) is the length over
    which -z**beta changes by one. Each regular panel is therefore at most
    c * min(sqrt(P), l_N(d)) wide. The two rates cross once, at ``knee``, so
    u and its inverse have closed forms. The first regular panel [0, d1] is
    replaced by geometric panels shrinking by ``_GRADING_RATIO`` toward the
    cusp, where the density's derivatives are singular for non-even beta,
    ending in an innermost panel [0, d1 * ratio**_GRADED_PANELS].
    Panel j spans [edge(j), edge(j + 1)]; ``index`` is the inverse of ``edge``.
    """

    def __init__(self, law, power, max_distance):
        beta, scale = law.beta, law.scale
        self.beta, self.scale = beta, scale
        self.rate = 1.0 / math.sqrt(power)
        # knee: where the noise rate beta * d**(beta - 1) / scale**beta
        # equals 1/sqrt(P); clipped to the integration range so it stays finite
        if beta == 1.0:
            knee = 0.0 if scale <= math.sqrt(power) else max_distance
        else:
            log_knee = (math.log(self.rate) + beta * math.log(scale) - math.log(beta)) / (beta - 1.0)
            knee = min(max_distance, math.exp(min(log_knee, 700.0)))
        self.knee = knee
        self.knee_noise = (knee / scale) ** beta
        self.first = float(self._u_inverse(np.float64(_PANEL_FACTOR)))
        self.innermost = self.first * _GRADING_RATIO**_GRADED_PANELS

    def _u(self, d):
        """c * u(d): the noise term below the knee for beta < 1, above it otherwise."""
        if self.beta < 1.0:
            return (np.minimum(d, self.knee) / self.scale) ** self.beta + self.rate * np.maximum(
                d - self.knee, 0.0
            )
        return self.rate * np.minimum(d, self.knee) + np.maximum(
            (d / self.scale) ** self.beta - self.knee_noise, 0.0
        )

    def _u_inverse(self, t):
        """The d at which c * u(d) = t."""
        if self.beta < 1.0:
            return np.where(
                t <= self.knee_noise,
                self.scale * t ** (1.0 / self.beta),
                self.knee + (t - self.knee_noise) / self.rate,
            )
        excess = np.maximum(t - self.rate * self.knee, 0.0)
        return np.where(
            excess == 0.0,
            t / self.rate,
            self.scale * (excess + self.knee_noise) ** (1.0 / self.beta),
        )

    def edge(self, j):
        regular = self._u_inverse(_PANEL_FACTOR * np.maximum(j - _GRADED_PANELS, 1.0))
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
            np.where(d < self.first, graded, _GRADED_PANELS + self._u(d) / _PANEL_FACTOR),
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
    panels = _Panels(law, power, noise_radius)
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


def output_density(config, truncation_mass=1e-10, grid_points=2001, max_grid_points=20_000):
    """Density of Y = X + N with X ~ Normal(0, P), by vectorized convolution.

    Each value f_Y(y) = integral f_N(n) * phi_P(y - n) dn is composite
    Gauss-Legendre quadrature (20 nodes per panel) over the point's own
    window [y - R_X, y + R_X] cut to [mean - R_N, mean + R_N], where R_X and
    R_N each leave half of ``truncation_mass`` in the input's and the
    noise's tails. Panels are split at the noise cusp, at most
    c * min(sqrt(P), l_N(d)) wide with c = 2, where
    l_N(d) = scale * z**(1 - beta) / beta (z = |n - mean| / scale) is the
    local length of the noise density, and graded geometrically (ratio 0.2)
    into the cusp. Grid points are evaluated in blocks of about 2**18 array
    elements, so memory stays bounded for any grid. Error model: pointwise
    within 1e-9 relative of an mpmath oracle of the same windowed integral.

    The grid extends until each factor density's tail mass is below half of
    ``truncation_mass``. When the Gaussian smoothing scale sqrt(P) is too
    narrow for the grid step to resolve the noise peak, the grid is doubled;
    if the trapezoidal error is still resolution-limited at the cap, the
    returned grid declares the coarser truncation mass it can actually
    certify (and its tails are cut to match), rather than overstating the
    accuracy. Raises QuadratureError if the grid mass has not landed in its
    window after 24 attempts.
    """
    if config.signal_power <= 0:
        raise DomainError("output_density requires signal_power > 0")
    law = config.noise
    power = float(config.signal_power)

    # integration radii stay tied to the requested mass so each value keeps
    # its pointwise accuracy even when the declared mass has to be coarser
    noise_radius = _gg.tail_radius(law, 0.5 * truncation_mass)
    input_radius = _gaussian_tail_radius(power, 0.5 * truncation_mass)

    count = grid_points
    declared = truncation_mass
    for _ in range(24):
        half_width = _gg.tail_radius(law, 0.5 * declared) + _gaussian_tail_radius(
            power, 0.5 * declared
        )
        points = law.mean + np.linspace(-half_width, half_width, count)
        values = _convolved_values(law, power, points, noise_radius, input_radius)
        mass = float(np.trapezoid(values, points))
        if 1.0 - 2.0 * declared <= mass <= 1.0 + 1e-12:
            return DensityGrid(points, values, declared)
        if count < max_grid_points:
            count = 2 * count - 1
        else:
            # overshoot above the truncated mass 1 - declared; absorb it by
            # honestly declaring (and cutting) a matching truncation mass
            overshoot = mass - (1.0 - declared)
            declared = max(2.0 * declared, 4.0 * abs(overshoot))
    raise QuadratureError(
        "output_density grid mass never landed in [1 - 2*truncation_mass, 1] in 24 attempts",
        estimate=mass,
        error_indicator=abs(mass - 1.0),
    )


def _grid_mi(grid, noise, units):
    return to_units(grid_entropy(grid) - _gg.entropy(noise, "nats"), units)


def gaussian_input_mi(config, units="bits", truncation_mass=1e-10, grid_points=2001):
    """I(X;Y) = h(Y) - h(N) for a Gaussian input of power P.

    Deterministic (convolution + quadrature); must land inside the
    awggn_bounds sandwich for the same config.
    """
    grid = output_density(config, truncation_mass=truncation_mass, grid_points=grid_points)
    return _grid_mi(grid, config.noise, units)


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
        mass_err = abs(grid.mass - 1.0)
        bound = 2.0 * grid.truncation_mass
        rows.append(("grid_mass beta=%g" % beta, mass_err, bound, mass_err <= bound))

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
            mass_err = abs(grid.mass - 1.0)
            bound = 2.0 * grid.truncation_mass
            rows.append(("output_mass beta=%g snr=%g" % (beta, snr), mass_err, bound, mass_err <= bound))
    return rows


def sphere_packing_ratio(beta, dimensions):
    """Packing-count factor 2**(K*gap(beta)) for K-dimensional codewords.

    Equals exp(K * (h(N_gaussian) - h(N_gg))) at equal noise variance: GG
    noise spheres are smaller, so more of them fit in the output sphere.
    """
    if int(dimensions) != dimensions or dimensions < 1:
        raise DomainError("dimensions must be a positive integer")
    return math.exp(dimensions * gap(beta, "nats"))
