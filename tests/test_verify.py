import math

import mpmath
import numpy as np
import pytest

from uwacap import capacity, gg_noise as gg, verify
from uwacap.config import SimConfig
from uwacap.numerics import DomainError, QuadratureError

BETA_GRID = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0]


class TestDensityGrid:
    def test_rejects_unsorted_points(self):
        with pytest.raises(DomainError):
            verify.DensityGrid([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], 1e-8)

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            verify.DensityGrid([0.0, 1.0], [1.0, -0.1], 1e-8)

    def test_rejects_lost_mass(self):
        points = np.linspace(-1.0, 1.0, 100)
        assert not verify.DensityGrid(points, np.full_like(points, 0.2), 1e-8).landed

    @pytest.mark.parametrize(
        "mass,landed",
        [(1.0 - 1.5e-8, True), (1.0 + 0.5e-12, True), (1.0 - 3e-8, False), (1.0 + 3e-12, False)],
    )
    def test_landed_window(self, mass, landed):
        # the window is [1 - 2*truncation_mass, 1], with 1e-12 of rounding above 1
        points = np.linspace(0.0, 1.0, 3)
        assert verify.DensityGrid(points, np.full(3, mass), 1e-8).landed is landed

    def test_uniform_density(self):
        points = np.linspace(0.0, 1.0, 1000)
        grid = verify.DensityGrid(points, np.ones_like(points), 1e-8)
        assert grid.mass == pytest.approx(1.0, abs=1e-12)
        assert verify.grid_entropy(grid) == pytest.approx(0.0, abs=1e-6)

    def test_zero_values_allowed(self):
        # 0 * log 0 := 0 in the entropy quadrature; triangle density padded
        # with zeros is piecewise linear, so the trapezoid mass is exact
        points = np.linspace(-2.0, 2.0, 4001)
        values = np.maximum(0.0, 1.0 - np.abs(points))
        grid = verify.DensityGrid(points, values, 1e-6)
        assert np.any(grid.values == 0.0)
        assert math.isfinite(verify.grid_entropy(grid))


class TestGGDensityGrid:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_mass_window(self, beta):
        grid = verify.gg_density_grid(gg.with_variance(beta, 1.0))
        assert abs(grid.mass - 1.0) <= 2.0 * grid.truncation_mass

    def test_gaussian_entropy(self):
        for var in (0.25, 1.0, 9.0):
            grid = verify.gg_density_grid(gg.with_variance(2.0, var))
            expected = 0.5 * math.log(2.0 * math.pi * math.e * var)
            assert verify.grid_entropy(grid) == pytest.approx(expected, abs=1e-6)

    def test_laplace_entropy(self):
        grid = verify.gg_density_grid(gg.GGNoise(1.0, 1.0))
        assert verify.grid_entropy(grid) == pytest.approx(1.0 + math.log(2.0), abs=1e-6)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_equal_variance_entropy_identity(self, beta):
        # h(N_gaussian) - h(N_gg) at equal variance equals the capacity gap
        gaussian = verify.grid_entropy(verify.gg_density_grid(gg.with_variance(2.0, 1.0)))
        shaped = verify.grid_entropy(verify.gg_density_grid(gg.with_variance(beta, 1.0)))
        assert gaussian - shaped == pytest.approx(capacity.gap(beta, "nats"), abs=1e-6)


class TestMcEntropy:
    @pytest.mark.parametrize("beta,scale", [(2.0, math.sqrt(2.0)), (1.0, 1.0), (0.5, 1.0)])
    def test_matches_closed_form(self, beta, scale):
        law = gg.GGNoise(beta, scale)
        estimate, stderr = verify.mc_entropy(law, SimConfig(seed=123))
        assert abs(estimate - gg.entropy(law, "nats")) < 4.0 * stderr

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            verify.mc_entropy(gg.GGNoise(2.0, 1.0), SimConfig(seed=0, samples=999))


class TestOutputDensity:
    def test_gaussian_noise_gives_gaussian_output(self):
        noise = gg.with_variance(2.0, 1.0)
        config = capacity.ChannelConfig(1.0, noise)
        grid = verify.output_density(config)
        total_var = 2.0
        analytic = np.exp(-grid.points**2 / (2.0 * total_var)) / math.sqrt(
            2.0 * math.pi * total_var
        )
        assert np.max(np.abs(grid.values - analytic)) < 1e-8

    def test_vanishing_input_degenerates_to_noise(self):
        # output_density cannot certify this grid's mass (see
        # test_uncertifiable_mass_raises), but each convolved value on it
        # still approaches the noise pdf
        noise = gg.with_variance(1.0, 1.0)
        power = 1e-12 * gg.variance(noise)
        noise_radius = gg.tail_radius(noise, 0.5e-10)
        input_radius = gg.tail_radius(gg.GGNoise(2.0, math.sqrt(2.0 * power)), 0.5e-10)
        points = np.linspace(-1.0, 1.0, 2001) * (noise_radius + input_radius)
        values = verify._convolved_values(noise, power, points, noise_radius, input_radius)
        assert np.max(np.abs(values - gg.pdf(noise, points))) < 1e-6

    def test_mass_conservation(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(1.0, 1.0))
        grid = verify.output_density(config)
        assert grid.landed
        assert abs(grid.mass - 1.0) <= 2.0 * grid.truncation_mass
        assert 1.0 - 1e-9 <= grid.mass <= 1.0 + 1e-12

    def test_requires_positive_power(self):
        with pytest.raises(DomainError):
            verify.output_density(capacity.ChannelConfig(0.0, gg.GGNoise(2.0, 1.0)))

    def test_unlanded_mass_raises(self, monkeypatch):
        # a kernel whose trapezoid mass is always 1 + 2e-12, just above the
        # window, so no doubling can ever land it
        def overshooting(law, power, points, noise_radius, input_radius):
            return np.full(len(points), (1.0 + 2e-12) / (points[-1] - points[0]))

        monkeypatch.setattr(verify, "_convolved_values", overshooting)
        config = capacity.ChannelConfig(1.0, gg.with_variance(1.0, 1.0))
        with pytest.raises(QuadratureError):
            verify.output_density(config, grid_points=3)

    @pytest.mark.parametrize("beta", [0.2, 0.25])
    def test_runaway_coarsening_raises(self, beta, monkeypatch):
        # the grid cannot resolve this peaked noise under so narrow an input,
        # so its mass misses the window at every size from 2001 to 32001 points
        sizes = []
        convolve = verify._convolved_values

        def counting(law, power, points, noise_radius, input_radius):
            sizes.append(len(points))
            return convolve(law, power, points, noise_radius, input_radius)

        monkeypatch.setattr(verify, "_convolved_values", counting)
        config = capacity.ChannelConfig(1e-6, gg.with_variance(beta, 1.0))
        with pytest.raises(QuadratureError) as info:
            verify.output_density(config)
        assert info.value.estimate > 1.0 + 1e-12
        assert sizes == [2001, 4001, 8001, 16001, 32001]

    def test_grid_points_must_be_an_integer(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(1.0, 1.0))
        for bad in (1, 0, 2.5, "2001"):
            with pytest.raises(DomainError, match="^grid_points"):
                verify.output_density(config, grid_points=bad)


@mpmath.workdps(30)
def _windowed_convolution(law, power, y, noise_radius, input_radius):
    """mpmath value of the integral output_density tabulates, on the same window."""
    beta, scale, mean = (mpmath.mpf(v) for v in (law.beta, law.scale, law.mean))
    power, y = mpmath.mpf(power), mpmath.mpf(y)
    lo = max(mean - noise_radius, y - input_radius)
    hi = min(mean + noise_radius, y + input_radius)
    norm = beta / (2 * scale * mpmath.gamma(1 / beta) * mpmath.sqrt(2 * mpmath.pi * power))

    def integrand(n):
        return norm * mpmath.exp(-(abs(n - mean) / scale) ** beta - (y - n) ** 2 / (2 * power))

    # break at the cusp and every standard deviation of the Gaussian factor
    width = mpmath.sqrt(power)
    breaks = [mean] + [y + k * width for k in range(-12, 13)]
    return mpmath.quad(integrand, [lo] + sorted(b for b in breaks if lo < b < hi) + [hi])


class TestConvolutionOracle:
    @pytest.mark.parametrize(
        "beta,power,y",
        [
            (0.5, 1.0, 0.0),  # on the cusp
            (0.5, 1.0, 0.3),
            (0.5, 1.0, 40.0),  # far tail
            (3.0, 1.0, 0.0),
            (3.0, 1.0, 4.0),
            (1.5, 10.0, 0.0),
            (1.5, 10.0, 9.0),
            (1.0, 1e-6, 0.0),  # Gaussian window far narrower than the grid step
            (1.0, 1e-6, 2e-3),
            (0.3, 1.0, 0.0),  # ends of the shape range the error model covers
            (0.3, 0.01, 0.5),
            (20.0, 1.0, 1.7),
            (20.0, 100.0, 2.0),
        ],
    )
    def test_matches_mpmath(self, beta, power, y):
        law = gg.with_variance(beta, 1.0)
        noise_radius = gg.tail_radius(law, 0.5e-10)
        input_radius = gg.tail_radius(gg.GGNoise(2.0, math.sqrt(2.0 * power)), 0.5e-10)
        got = verify._convolved_values(law, power, np.array([y]), noise_radius, input_radius)[0]
        want = _windowed_convolution(law, power, y, noise_radius, input_radius)
        assert want > 0
        assert abs(got - float(want)) <= 1e-9 * float(want)


class TestRunChecks:
    def test_one_output_density_per_config(self, monkeypatch):
        built = []
        original = verify.output_density

        def counting(config, *args, **kwargs):
            built.append((config.noise.beta, config.signal_power))
            return original(config, *args, **kwargs)

        monkeypatch.setattr(verify, "output_density", counting)
        rows = verify.run_checks(SimConfig(seed=0), quick=False)
        assert len(rows) == 72
        assert sorted(built) == sorted(
            (beta, snr) for beta in BETA_GRID for snr in (0.1, 1.0, 10.0, 100.0)
        )


class TestGaussianInputMI:
    def test_gaussian_collapse(self):
        for power in (0.5, 1.0, 10.0):
            config = capacity.ChannelConfig(power, gg.with_variance(2.0, 1.0))
            mi = verify.gaussian_input_mi(config)
            assert mi == pytest.approx(capacity.awgn_capacity(power), abs=1e-5)

    def test_laplace_inside_sandwich(self):
        config = capacity.ChannelConfig(1.0, gg.with_variance(1.0, 1.0))
        mi = verify.gaussian_input_mi(config)
        bounds = capacity.awggn_bounds(config)
        assert bounds.lower - 1e-4 <= mi <= bounds.upper + 1e-4

    @pytest.mark.parametrize("beta,power", [(0.3, 1e-8), (1.0, 1e-12)])
    def test_uncertifiable_mass_raises(self, beta, power):
        # these grids used to be returned with a coarsened truncation mass,
        # and at beta 0.3 the mutual information came out at -0.969 bits
        config = capacity.ChannelConfig(power, gg.with_variance(beta, 1.0))
        with pytest.raises(QuadratureError):
            verify.gaussian_input_mi(config)

    def test_vanishing_power(self):
        # small-P expansion: I = P * J(N) / 2 + O(P^2) nats, and the
        # Fisher information of a unit-variance Laplace density is 2
        noise = gg.with_variance(1.0, 1.0)
        config = capacity.ChannelConfig(1e-4, noise)
        mi_nats = verify.gaussian_input_mi(config, "nats")
        assert mi_nats == pytest.approx(1e-4 * 2.0 / 2.0, rel=0.05)


class TestSpherePacking:
    def test_gaussian_ratio_is_one(self):
        for k in (1, 2, 16):
            assert verify.sphere_packing_ratio(2.0, k) == pytest.approx(1.0, abs=1e-12)

    def test_laplace_single_dimension(self):
        expected = 2.0 ** capacity.gap(1.0, "bits")
        assert verify.sphere_packing_ratio(1.0, 1) == pytest.approx(expected, rel=1e-12)

    def test_exponent_additivity(self):
        one = verify.sphere_packing_ratio(1.0, 1)
        assert verify.sphere_packing_ratio(1.0, 10) == pytest.approx(one**10, rel=1e-10)

    def test_matches_grid_entropy_difference(self):
        # independent route: exponentiated numeric entropy difference
        gaussian = verify.grid_entropy(verify.gg_density_grid(gg.with_variance(2.0, 1.0)))
        shaped = verify.grid_entropy(verify.gg_density_grid(gg.with_variance(1.0, 1.0)))
        assert verify.sphere_packing_ratio(1.0, 3) == pytest.approx(
            math.exp(3.0 * (gaussian - shaped)), abs=1e-5
        )

    def test_domain(self):
        # the last two are integers whose ratio overflows a float
        for dimensions in (0, 2.5, "abc", math.inf, math.nan, None, 10**6, 10**400):
            with pytest.raises(DomainError, match="^dimensions"):
                verify.sphere_packing_ratio(1.0, dimensions)
