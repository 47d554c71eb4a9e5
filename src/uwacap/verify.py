"""Empirical machinery that squeezes the analytic bounds.

Numeric density grids, Monte-Carlo entropy, the Gaussian-input mutual
information computed by density convolution, and ``run_checks``, the
invariant suite behind ``uwacap verify``. Everything here is an independent
route used to check the closed forms in the other modules. The paper's
sphere-packing count ratio exp(K * gap(beta)) rests on the entropy
identity that the ``entropy_gap_identity`` rows check.
"""

import functools
import math

import numpy as np

from . import gg_noise as _gg
from .capacity import ChannelConfig, awggn_bounds, gap
from .numerics import DomainError, QuadratureError, integer, real, to_units, tolerance

_BETA_RANGE = (0.3, 20.0)  # shapes whose panel quadrature is checked against an mpmath oracle
_GL_ORDER = 20  # Gauss-Legendre nodes per panel
_PANEL_FACTOR = 2.0  # c: a regular panel spans a step of c in max(d/sqrt(P), (d/scale)**beta)
_GRADING_RATIO = 0.2  # width ratio of successive panels graded into the cusp
_GRADED_PANELS = 13  # innermost panel is 0.2**13 ~ 8e-10 of the first regular one
_MAX_REGULAR_EDGES = 2**24  # _panel_edges refuses more; beta = 1, P = 1e-12 needs 8.4 million a side
_BLOCK_ELEMENTS = 2**14  # quadrature nodes evaluated at once: each of the two block arrays is 128 KB
_FIRST_GRID_POINTS = 2001  # ceiling of output_density's first grid; each retry doubles its steps
_MAX_GRID_POINTS = 20_000  # output_density stops doubling its grid once it reaches this size
_GG_TRUNCATION = 1e-8  # tail mass gg_density_grid leaves outside its grid
_OUTPUT_TRUNCATION = 1e-10  # tail mass output_density leaves outside its grid unless told otherwise
_MI_SLACK = 1e-8  # bits the grid MI may leave the sandwich by: 2e-9 at beta 2, where the bounds meet


class DensityGrid:
    """A density tabulated on strictly increasing abscissae, with quadrature weights.

    ``DensityGrid(points, values, truncation_mass, weights)`` coerces the
    three arrays to float and checks them. An integral over the grid is the
    weighted sum of the integrand at ``points``; ``mass`` is that sum for the
    tabulated values, computed once. ``truncation_mass`` is the probability
    left outside the grid; the grid has ``landed`` when ``mass`` lies in
    [1 - 2*truncation_mass, 1].
    """

    def __init__(self, points, values, truncation_mass, weights):
        points, values, weights = (np.asarray(a, dtype=float) for a in (points, values, weights))
        if points.ndim != 1 or not points.shape == values.shape == weights.shape or len(points) < 2:
            raise DomainError("points, values and weights must be matching 1-d arrays")
        if not np.all(np.diff(points) > 0):
            raise DomainError("grid points must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise DomainError("density values must be finite and >= 0")
        if not np.all((weights > 0) & np.isfinite(weights)):
            raise DomainError("quadrature weights must be finite and > 0")
        truncation_mass = tolerance("truncation_mass", truncation_mass)
        self.points, self.values, self.truncation_mass, self.weights = points, values, truncation_mass, weights
        self.mass = float(values @ weights)

    @property
    def landed(self):
        """Whether the mass lies in [1 - 2*truncation_mass, 1], up to 1e-12 of rounding above 1."""
        return 1.0 - 2.0 * self.truncation_mass <= self.mass <= 1.0 + 1e-12


def grid_entropy(grid):
    """-integral f*log(f) by the grid's quadrature weights, 0*log(0) := 0.

    A grid that has not ``landed`` raises QuadratureError carrying its mass.
    """
    if not grid.landed:
        raise QuadratureError(
            "density grid mass is outside [1 - 2*truncation_mass, 1]",
            estimate=grid.mass,
            error_indicator=abs(grid.mass - 1.0),
        )
    f = grid.values
    integrand = np.zeros_like(f)
    positive = f > 0
    integrand[positive] = -f[positive] * np.log(f[positive])
    return float(integrand @ grid.weights)


def gg_density_grid(law):
    """Tabulate a GG density at the Gauss-Legendre nodes between consecutive ``_panel_edges``.

    The panels are output_density's with no Gaussian smoothing (P -> inf):
    symmetric about the mean, graded into the cusp there, where the density's
    derivatives are singular for non-even beta, then each spanning a step of
    2 in (|n - mean| / scale)**beta. The edges are clipped to
    +-``tail_radius(law, 1e-8)``, so the grid leaves a truncation mass of 1e-8 outside.
    """
    radius = _gg.tail_radius(law, _GG_TRUNCATION)
    edges = np.clip(_panel_edges(law, math.inf, radius), -radius, radius)
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    nodes, weights = _gauss_legendre()
    offsets = ((a + half)[:, None] + half[:, None] * nodes).ravel()
    points = law.mean + offsets
    if not np.all(np.diff(points) > 0):
        raise DomainError(
            "mean=%r is too large for the density grid: its innermost nodes, %.2g from the mean, round together"
            % (law.mean, offsets[len(offsets) // 2])
        )
    return DensityGrid(points, _gg.pdf(law, points), _GG_TRUNCATION, (half[:, None] * weights).ravel())


def mc_entropy(law, config):
    """Resubstitution entropy estimate -(1/n) sum log pdf(N_i) with its standard error.

    The N_i are ``gg_noise.sample``'s draws bit for bit: ``gg_noise.chunk_draw``
    on the same ``sampling.map_chunks`` plan of 8 chunks. Each chunk is drawn
    into its own array, turned into ln pdf in a second one, reduced to its
    count, mean and sum of squared deviations, and dropped. So the working set
    is two chunks per running thread, not the sample: 0.25x the draws' bytes
    traced at 10**5 and 10**6 samples, where holding the sample took 2x. The
    chunks' moments are combined in chunk order by the pairwise update of
    Chan, Golub and LeVeque (1979), so the estimate does not depend on
    ``config.threads``.
    """
    from .sampling import map_chunks

    n = integer("samples", config.samples, 1000)
    draw = _gg.chunk_draw(law)

    def moments(rng, start, stop):
        draws = np.empty(stop - start)
        draw(rng, draws)
        log_p = _gg.log_pdf(law, draws)
        mean = float(log_p.mean())
        log_p -= mean
        np.square(log_p, out=log_p)
        return stop - start, mean, float(log_p.sum())  # numpy's reductions: `@` here would run a threaded BLAS dot

    count, mean, m2 = 0, 0.0, 0.0
    for k, chunk_mean, chunk_m2 in map_chunks(moments, config.seed, n, threads=config.threads):
        total = count + k
        delta = chunk_mean - mean
        mean += delta * k / total
        m2 += chunk_m2 + delta * delta * count * k / total
        count = total
    return -mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


# (node, weight) pairs of numpy.polynomial.legendre.leggauss(_GL_ORDER) at its nonnegative nodes, bit for bit
# (repr round-trips a float); the rule is symmetric about 0, and leggauss makes it so exactly
_GL_HALF = (
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
)


@functools.cache
def _gauss_legendre():
    """leggauss(_GL_ORDER)'s nodes and weights, read from ``_GL_HALF``.

    A table rather than the call, which imports numpy.polynomial and runs an
    eigen-solve; the nodes and weights are the same floats.
    """
    nodes, weights = np.array(_GL_HALF).T
    return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])


def _panel_edges(law, power, radius):
    """Increasing panel edges over the offset n - mean, symmetric about the noise cusp at 0.

    Regular edges lie at steps of c in the stretched coordinate
    max(d / sqrt(P), (d / scale)**beta), d = |n - mean|: d_m = min(c * m * sqrt(P),
    scale * (c * m)**(1 / beta)) for every beta, out to the first d_m at or
    past ``radius``: about radius / (c * sqrt(P)) a side, 8.4 million at
    beta = 1, P = 1e-12; past ``_MAX_REGULAR_EDGES`` it raises DomainError
    before any array is built. A panel is at most c * sqrt(P) wide and spans
    at most c of the noise exponent, so it is at most c * min(sqrt(P), l_N(d)) wide,
    l_N(d) = scale * z**(1 - beta) / beta (z = d/scale), save up to a factor
    max(beta, 1/beta) between the value and slope crossings of the two
    terms. Each side's first regular panel [0, d_1] is replaced by panels graded by
    ``_GRADING_RATIO`` into the cusp, where the density's derivatives are
    singular for non-even beta, ending in [0, d_1 * 0.2**13]; 0 is an edge. With
    power = inf the edges cover the bare noise law. Shapes outside
    ``_BETA_RANGE``, where the quadrature is unchecked, raise DomainError.
    """
    if not _BETA_RANGE[0] <= law.beta <= _BETA_RANGE[1]:
        raise DomainError(
            "beta=%r is outside [%g, %g], the shapes the density quadrature is validated for"
            % ((law.beta,) + _BETA_RANGE)
        )
    root = math.sqrt(power)
    count = max(radius / root, (radius / law.scale) ** law.beta) / _PANEL_FACTOR
    if count > _MAX_REGULAR_EDGES:
        raise DomainError(
            "signal power P=%r needs %.3g panel edges, more than the %d allowed" % (power, count, _MAX_REGULAR_EDGES)
        )
    t = _PANEL_FACTOR * np.arange(1, math.ceil(count) + 1)
    regular = np.minimum(t * root, law.scale * t ** (1.0 / law.beta))
    del t  # released before the edge array, twice the size of regular, is built
    graded = regular[0] * _GRADING_RATIO ** np.arange(_GRADED_PANELS, 0, -1.0)
    return np.concatenate([-regular[::-1], -graded[::-1], [0.0], graded, regular])


def _window_radii(law, power, truncation_mass=_OUTPUT_TRUNCATION):
    """(R_N, R_X): the radii that leave half of ``truncation_mass`` each in the tails of the noise and of the input.

    The noise is ``law``, about its mean; the input is Normal(0, ``power``), the GG law with beta = 2, scale sqrt(2P).
    """
    half = 0.5 * truncation_mass
    return _gg.tail_radius(law, half), _gg.tail_radius(_gg.GGNoise(2.0, math.sqrt(2.0 * power)), half)


def _convolved_values(law, power, points, noise_radius, input_radius):
    """f_Y at ``points``: the convolution integral over each point's own window.

    In offsets n - mean, a point y integrates over [y - mean - input_radius,
    y - mean + input_radius] cut to [-noise_radius, noise_radius]. The window
    takes the ``_panel_edges`` panels it overlaps, found by binary search and
    trimmed to its ends, so it is clipped exactly; a window that rounds past
    an end edge stops there, and one that rounds empty adds 0. Each panel
    carries ``_GL_ORDER`` nodes. Windows are evaluated in blocks of about
    ``_BLOCK_ELEMENTS`` nodes and summed per point with bincount. A block's
    exponent is built in place in two (panels x nodes) arrays, the offsets d
    and the input values x, each 128 KB; both are released before the next
    block is built, so the working set is two block arrays whatever the grid.
    """
    nodes, weights = _gauss_legendre()
    edges = _panel_edges(law, power, noise_radius)
    offsets = points - law.mean
    lo = np.maximum(-noise_radius, offsets - input_radius)
    hi = np.minimum(noise_radius, offsets + input_radius)
    first = np.maximum(np.searchsorted(edges, lo, side="right") - 1, 0)
    counts = np.minimum(np.searchsorted(edges, hi), len(edges) - 1) - first

    log_const = law.log_norm - 0.5 * math.log(2.0 * math.pi * power)
    values = np.zeros(len(points))
    starts = np.cumsum(counts) - counts
    block_of = starts // (_BLOCK_ELEMENTS // _GL_ORDER)
    for block in np.split(np.arange(len(counts)), np.flatnonzero(np.diff(block_of)) + 1):
        sizes = counts[block]
        point = np.repeat(block, sizes)
        j = first[point] + np.arange(len(point)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        a = np.maximum(edges[j], lo[point])
        b = np.minimum(edges[j + 1], hi[point])
        half = 0.5 * np.maximum(b - a, 0.0)
        # exp(log_const - (|d| / scale)**beta - 0.5 * x * x / power), with d and x the only block-sized arrays
        d = half[:, None] * nodes
        d += (a + half)[:, None]
        x = offsets[point][:, None] - d
        x *= x
        x *= 0.5
        x /= power
        np.abs(d, out=d)
        d /= law.scale
        d **= law.beta
        np.subtract(log_const, d, out=d)
        d -= x
        np.exp(d, out=d)
        values += np.bincount(point, weights=(d @ weights) * half, minlength=len(points))
        del d, x  # released before the next block's are built
    return values


def _trapezoid_weights(points):
    """Trapezoid-rule weights (x[i+1] - x[i-1]) / 2 on any increasing grid, ends held."""
    padded = np.concatenate([points[:1], points, points[-1:]])
    return 0.5 * (padded[2:] - padded[:-2])


def output_density(config, truncation_mass=_OUTPUT_TRUNCATION):
    """Density of Y = X + N with X ~ Normal(0, P), by vectorized convolution.

    Each value f_Y(y) = integral f_N(n) * phi_P(y - n) dn is composite
    Gauss-Legendre quadrature (20 nodes per panel) over the point's own
    window [y - R_X, y + R_X] cut to [mean - R_N, mean + R_N], where R_X and
    R_N each leave half of ``truncation_mass`` in the tails of the input
    (the GG law with beta = 2, scale sqrt(2P)) and of the noise. Each panel
    spans a step of c = 2 in max(d / sqrt(P), (d / scale)**beta), where
    d = |n - mean|, and panels are graded (ratio 0.2) into the noise
    cusp. The nodes are evaluated in blocks of about 2**14, in place, so the
    working set is two 128 KB block arrays for any grid; the traced peak
    of a call is 0.5 MB at 1,745 points and 1.1 MB at 8,001. Error model:
    pointwise within 1e-9 relative of an mpmath oracle of the same windowed
    integral, for beta in [0.3, 20]; other shapes raise DomainError.

    The values sit on an evenly spaced grid with trapezoid weights, which
    extends until each factor density's tail mass is below half of
    ``truncation_mass``. The first grid's step h is at most sqrt(P)/4. For
    any noise law |F[f_Y](xi)| <= exp(-2 pi^2 P xi^2), so by Poisson
    summation aliasing moves the trapezoid mass by about
    2 exp(-2 pi^2 P / h^2) at most (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 2014). What is left is the end
    correction on the truncated range, which grows as h^2: at sqrt(P)/2 it
    missed the window at P = 1e6. At verify's SNRs the rule gives 59 to 1745
    points. The first grid is capped at 2001 points, so none starts finer
    than a fixed 2001-point grid did: at tiny P the rule asks for far more
    (about 520,000 at beta = 2, P = 1e-8, which lands on 2001). A grid whose
    mass misses its window is doubled (2001 -> 4001 -> ... -> 32001 points
    from the cap). The returned grid is certified at
    the requested ``truncation_mass``: it has ``landed``. Once a grid of
    20,000 points or more has missed, QuadratureError is raised carrying
    its mass.
    """
    law = config.noise
    power = real("signal_power", config.signal_power, 0.0)
    noise_radius, input_radius = _window_radii(law, power, truncation_mass)
    half_width = noise_radius + input_radius
    count = min(_FIRST_GRID_POINTS, 2 * math.ceil(4.0 * half_width / math.sqrt(power)) + 1)
    while True:
        points = law.mean + np.linspace(-half_width, half_width, count)
        values = _convolved_values(law, power, points, noise_radius, input_radius)
        grid = DensityGrid(points, values, truncation_mass, _trapezoid_weights(points))
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


def gaussian_input_mi(config, units="bits"):
    """I(X;Y) = h(Y) - h(N) for a Gaussian input of power P.

    Deterministic (convolution + quadrature) on the ``output_density`` grid
    at its default truncation mass; must land inside the awggn_bounds
    sandwich for the same config. Error model: absolute, a few
    1e-9 bits (-1.67e-9 to -1.99e-9 at beta = 2, snr 0.1 to 100). That bias
    is the ~1e-10 of mass each value's convolution window leaves out, not
    the grid's extent: the exact Gaussian f_Y on the same grids gives I_G
    within 3.4e-11 bits. There is no relative accuracy: h(Y) - h(N)
    subtracts two O(1) entropies. At beta = 2, snr = 1e-8 it returns
    5.46e-9 bits against the exact 7.21e-9. A small-P route such as
    I ~ P * J(N) / 2 nats (J the noise's Fisher information) is not built.
    """
    return _grid_mi(output_density(config), config.noise, units)


def _mass_row(name, grid):
    return (name, abs(grid.mass - 1.0), 2.0 * grid.truncation_mass, grid.landed)


def run_checks(config, quick):
    """(name, measured, tolerance, passed) rows of the invariant suite.

    ``config`` is a SimConfig; its ``quad_rtol`` tunes only the ergodic rule.
    ``quick`` shrinks the beta/SNR sweep to beta 1, 2 and SNR 1 for a smoke
    run; each of its rows equals the full suite's row of the same name. One
    ``gg_density_grid`` per beta feeds its pdf_mass, grid_mass and entropy rows.
    """
    betas = (1.0, 2.0) if quick else (0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
    snrs = (1.0,) if quick else (0.1, 1.0, 10.0, 100.0)
    laws = {beta: _gg.with_variance(beta, 1.0) for beta in betas}
    grids = {beta: gg_density_grid(law) for beta, law in laws.items()}
    rows = []

    for beta, grid in grids.items():
        # the grid leaves exactly truncation_mass outside, so a unit-mass pdf fills the rest
        err = abs(grid.mass + grid.truncation_mass - 1.0)
        rows.append(("pdf_mass beta=%g" % beta, err, 1e-8, err <= 1e-8))

    for beta, law in laws.items():
        estimate, stderr = mc_entropy(law, config)
        z = abs(estimate - _gg.entropy(law, "nats")) / stderr
        rows.append(("mc_entropy beta=%g (|z|)" % beta, z, 4.0, z <= 4.0))

    # both sweeps contain beta = 2, the Gaussian reference; a grid off its mass window has nan entropy
    entropies = {beta: grid_entropy(grid) if grid.landed else math.nan for beta, grid in grids.items()}
    for beta in betas:
        err = abs(entropies[2.0] - entropies[beta] - gap(beta, "nats"))
        rows.append(("entropy_gap_identity beta=%g" % beta, err, 1e-6, err <= 1e-6))
        rows.append(_mass_row("grid_mass beta=%g" % beta, grids[beta]))

    for beta in betas:
        for snr in snrs:
            cfg = ChannelConfig(snr, laws[beta])
            label = "beta=%g snr=%g" % (beta, snr)
            try:
                grid = output_density(cfg)
            except QuadratureError as exc:  # the grid never landed: its two rows fail, and the suite goes on
                rows.append(("mi_sandwich " + label, math.nan, _MI_SLACK, False))
                rows.append(("output_mass " + label, abs(exc.estimate - 1.0), 2.0 * _OUTPUT_TRUNCATION, False))
                continue
            mi = _grid_mi(grid, cfg.noise, "bits")
            bounds = awggn_bounds(cfg, "bits")
            slack = max(bounds.lower - mi, mi - bounds.upper, 0.0)
            rows.append(("mi_sandwich " + label, slack, _MI_SLACK, slack <= _MI_SLACK))
            rows.append(_mass_row("output_mass " + label, grid))
    return rows

