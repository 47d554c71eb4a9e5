import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from uwacap import capacity, gg_noise as gg, numerics, verify
from uwacap.config import SimConfig
from uwacap.numerics import DomainError, QuadratureError

BETA_GRID = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0]


class TestDensityGrid:
    def test_rejects_unsorted_points(self):
        with pytest.raises(DomainError):
            verify.DensityGrid([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], 1e-8, [0.5, 0.5, 0.5])

    def test_rejects_negative_values(self):
        with pytest.raises(DomainError):
            verify.DensityGrid([0.0, 1.0], [1.0, -0.1], 1e-8, [0.5, 0.5])

    @pytest.mark.parametrize("weights", [[0.5, 0.0], [0.5, math.inf], [0.5, 0.5, 0.5]])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(DomainError):
            verify.DensityGrid([0.0, 1.0], [1.0, 1.0], 1e-8, weights)

    @pytest.mark.parametrize("truncation_mass", [0.0, 1.0, math.nan, "1e-8", None])
    def test_rejects_bad_truncation_mass(self, truncation_mass):
        with pytest.raises(DomainError, match="^truncation_mass must be a finite real"):
            verify.DensityGrid([0.0, 1.0], [1.0, 1.0], truncation_mass, [0.5, 0.5])

    def test_rejects_lost_mass(self):
        points = np.linspace(-1.0, 1.0, 100)
        weights = verify._trapezoid_weights(points)
        assert not verify.DensityGrid(points, np.full_like(points, 0.2), 1e-8, weights).landed

    def test_trapezoid_weights_match_numpy(self):
        points = np.cumsum(np.linspace(0.01, 1.0, 500))
        values = np.exp(-0.01 * points)
        got = values @ verify._trapezoid_weights(points)
        assert got == pytest.approx(np.trapezoid(values, points), rel=1e-14)

    @pytest.mark.parametrize(
        "mass,landed",
        [(1.0 - 1.5e-8, True), (1.0 + 0.5e-12, True), (1.0 - 3e-8, False), (1.0 + 3e-12, False)],
    )
    def test_landed_window(self, mass, landed):
        # the window is [1 - 2*truncation_mass, 1], with 1e-12 of rounding above 1
        grid = verify.DensityGrid([0.0, 0.5, 1.0], np.full(3, mass), 1e-8, [0.25, 0.5, 0.25])
        assert grid.landed is landed

    def test_equality_and_hash_are_identity(self):
        # a generated __eq__ would compare the arrays and raise; identity is what a grid can offer
        law = gg.with_variance(1.0, 1.0)
        first, second = verify.gg_density_grid(law), verify.gg_density_grid(law)
        assert first == first and first != second
        assert hash(first) == hash(first) and hash(first) != hash(second)
        assert len({first, second}) == 2

    def test_uniform_density(self):
        points = np.linspace(0.0, 1.0, 1000)
        grid = verify.DensityGrid(points, np.ones_like(points), 1e-8, verify._trapezoid_weights(points))
        assert grid.mass == pytest.approx(1.0, abs=1e-12)
        assert verify.grid_entropy(grid) == pytest.approx(0.0, abs=1e-6)

    def test_zero_values_allowed(self):
        # 0 * log 0 := 0 in the entropy quadrature; triangle density padded
        # with zeros is piecewise linear, so the trapezoid mass is exact
        points = np.linspace(-2.0, 2.0, 4001)
        values = np.maximum(0.0, 1.0 - np.abs(points))
        grid = verify.DensityGrid(points, values, 1e-6, verify._trapezoid_weights(points))
        assert np.any(grid.values == 0.0)
        assert math.isfinite(verify.grid_entropy(grid))


class TestGGDensityGrid:
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_mass_window(self, beta):
        grid = verify.gg_density_grid(gg.with_variance(beta, 1.0))
        assert abs(grid.mass - 1.0) <= 2.0 * grid.truncation_mass

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 2.0, 3.0, 20.0])
    def test_mass_is_all_but_the_truncation(self, beta):
        # the panel rule resolves the cusp: only the 1e-8 cut off beyond the tail radius is missing
        grid = verify.gg_density_grid(gg.with_variance(beta, 1.0))
        assert grid.truncation_mass == 1e-8
        assert abs(grid.mass - (1.0 - 1e-8)) <= 1e-10

    @pytest.mark.parametrize("beta", [0.2, 50.0])
    def test_shapes_outside_validated_range(self, beta):
        with pytest.raises(DomainError, match=r"outside \[0.3, 20\]"):
            verify.gg_density_grid(gg.with_variance(beta, 1.0))

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

    def test_unlanded_grid_has_no_entropy(self):
        # values 0.5% too high hold mass 1.005: the entropy would read 1.34829
        # nats against the exact 1.34657
        law = gg.with_variance(1.0, 1.0)
        landed = verify.gg_density_grid(law)
        grid = verify.DensityGrid(landed.points, 1.005 * landed.values, landed.truncation_mass, landed.weights)
        assert grid.mass == pytest.approx(1.005, abs=1e-7)
        with pytest.raises(QuadratureError) as info:
            verify.grid_entropy(grid)
        assert info.value.estimate == grid.mass
        assert info.value.error_indicator == abs(grid.mass - 1.0)
        assert gg.entropy(law) == pytest.approx(1.34657, abs=1e-5)


class TestPanelEdges:
    @pytest.mark.parametrize("power", [1e-8, 1.0, 1e6, math.inf])
    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 20.0])
    def test_layout(self, beta, power):
        law = gg.with_variance(beta, 1.0)
        radius = gg.tail_radius(law, 0.5e-10)
        edges = verify._panel_edges(law, power, radius)
        assert edges[0] == 0.0
        assert np.all(np.diff(edges) > 0)
        # 13 edges graded by 0.2 into the cusp, the last a fifth of the first regular edge
        graded = edges[1:15]
        np.testing.assert_allclose(graded[:-1] / graded[1:], 0.2, rtol=1e-12)
        # regular edge m sits where max(d / sqrt(P), (d / scale)**beta) = 2m
        regular = edges[14:]
        stretch = np.maximum(regular / math.sqrt(power), (regular / law.scale) ** beta)
        np.testing.assert_allclose(stretch, 2.0 * np.arange(1, len(regular) + 1), rtol=1e-12)
        assert edges[-1] >= radius


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
        with pytest.raises(DomainError, match=r"^signal_power must be a finite real > 0, got 0.0$"):
            verify.output_density(capacity.ChannelConfig(0.0, gg.GGNoise(2.0, 1.0)))

    def test_unlanded_mass_raises(self, monkeypatch):
        # a kernel whose trapezoid mass is always 1 + 2e-12, just above the
        # window, so no doubling can ever land it
        def overshooting(law, power, points, noise_radius, input_radius):
            return np.full(len(points), (1.0 + 2e-12) / (points[-1] - points[0]))

        monkeypatch.setattr(verify, "_convolved_values", overshooting)
        config = capacity.ChannelConfig(1.0, gg.with_variance(1.0, 1.0))
        with pytest.raises(QuadratureError):
            verify.output_density(config)

    def test_runaway_coarsening_raises(self, monkeypatch):
        # the grid cannot resolve this peaked noise under so narrow an input,
        # so its mass misses the window at every size from 2001 to 32001 points
        sizes = []
        convolve = verify._convolved_values

        def counting(law, power, points, noise_radius, input_radius):
            sizes.append(len(points))
            return convolve(law, power, points, noise_radius, input_radius)

        monkeypatch.setattr(verify, "_convolved_values", counting)
        config = capacity.ChannelConfig(1e-4, gg.with_variance(0.3, 1.0))
        with pytest.raises(QuadratureError) as info:
            verify.output_density(config)
        assert info.value.estimate > 1.0 + 1e-12
        assert sizes == [2001, 4001, 8001, 16001, 32001]

    @pytest.mark.parametrize("beta", [0.2, 50.0])
    def test_shapes_outside_validated_range(self, beta):
        # the panel quadrature misses its 1e-9 error model here (8.3e-9 at
        # beta 0.2, 4.2e-8 at beta 50), so the grid is refused
        config = capacity.ChannelConfig(1.0, gg.with_variance(beta, 1.0))
        with pytest.raises(DomainError, match=r"outside \[0.3, 20\]"):
            verify.output_density(config)


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


def _out_of_place_convolved_values(law, power, points, noise_radius, input_radius):
    """verify._convolved_values with each block evaluated as one out-of-place expression: the reference."""
    nodes, weights = verify._gauss_legendre()
    edges = verify._panel_edges(law, power, noise_radius)
    mean = law.mean
    lo = np.maximum(mean - noise_radius, points - input_radius)
    hi = np.minimum(mean + noise_radius, points + input_radius)
    near = np.concatenate([mean - np.minimum(hi, mean), np.maximum(lo, mean) - mean])
    far = np.concatenate([mean - lo, hi - mean])
    sign = np.repeat([-1.0, 1.0], len(points))
    owner = np.tile(np.arange(len(points)), 2)
    keep = far > near
    near, far, sign, owner = near[keep], far[keep], sign[keep], owner[keep]
    first = np.searchsorted(edges, near, side="right") - 1
    counts = np.minimum(np.searchsorted(edges, far), len(edges) - 1) - first

    log_const = law.log_norm - 0.5 * math.log(2.0 * math.pi * power)
    values = np.zeros(len(points))
    starts = np.cumsum(counts) - counts
    block_of = starts // (verify._BLOCK_ELEMENTS // verify._GL_ORDER)
    for block in np.split(np.arange(len(counts)), np.flatnonzero(np.diff(block_of)) + 1):
        sizes = counts[block]
        piece = np.repeat(block, sizes)
        j = first[piece] + np.arange(len(piece)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        a = np.maximum(edges[j], near[piece])
        b = np.minimum(edges[j + 1], far[piece])
        half = 0.5 * np.maximum(b - a, 0.0)
        d = (a + half)[:, None] + half[:, None] * nodes
        x = (points[owner[piece]] - mean)[:, None] - sign[piece][:, None] * d
        exponent = log_const - (d / law.scale) ** law.beta - 0.5 * x * x / power
        values += np.bincount(owner[piece], weights=(np.exp(exponent) @ weights) * half, minlength=len(points))
    return values


class TestConvolutionKernel:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 2.0, 3.0, 20.0])
    @pytest.mark.parametrize("power,mean", [(0.1, 0.0), (3.0, -1.25)])
    def test_in_place_blocks_match_the_reference_bit_for_bit(self, monkeypatch, beta, power, mean):
        monkeypatch.setattr(verify, "_BLOCK_ELEMENTS", 2**10)  # 51 panels a block, so many blocks
        law = gg.GGNoise(beta, gg.with_variance(beta, 1.0).scale, mean)
        noise_radius = gg.tail_radius(law, 0.5e-10)
        input_radius = gg.tail_radius(gg.GGNoise(2.0, math.sqrt(2.0 * power)), 0.5e-10)
        points = mean + np.linspace(-1.0, 1.0, 501) * (noise_radius + input_radius)
        got = verify._convolved_values(law, power, points, noise_radius, input_radius)
        want = _out_of_place_convolved_values(law, power, points, noise_radius, input_radius)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("snr,points", [(0.1, 1745), (1e-3, 8001)])
    def test_peak_memory_is_about_two_block_arrays(self, snr, points):
        # verify's largest grid, and one that doubled twice; evaluated out of place,
        # blocks of 2**18 nodes peaked at 9.3 and 12.2 MB here
        config = capacity.ChannelConfig(snr, gg.with_variance(0.5, 1.0))
        verify.output_density(config)  # the Gauss-Legendre rule is cached outside the measurement
        tracemalloc.start()
        try:
            grid = verify.output_density(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid.points) == points
        assert peak < 3_000_000  # two 512 KB block arrays plus the grid's own per-point arrays


def counted(monkeypatch, module, name, key):
    """Replace ``module.name`` by a wrapper that appends ``key(*args)`` to the returned list."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture(scope="module")
def full_run():
    """The full suite's rows, with the grids and laws it built, from one run."""
    with pytest.MonkeyPatch.context() as patch:
        densities = counted(patch, verify, "output_density", lambda c: (c.noise.beta, c.signal_power))
        grids = counted(patch, verify, "gg_density_grid", lambda law: law.beta)
        laws = counted(patch, gg, "with_variance", lambda beta, variance: beta)
        rows = verify.run_checks(SimConfig(seed=0), quick=False)
    return rows, densities, grids, laws


class TestRunChecks:
    def test_one_output_density_per_config(self, full_run):
        rows, densities, grids, laws = full_run
        assert len(rows) == 72
        assert sorted(densities) == sorted(
            (beta, snr) for beta in BETA_GRID for snr in (0.1, 1.0, 10.0, 100.0)
        )
        # the Gaussian reference entropy comes from the beta = 2 grid of the sweep
        assert grids == laws == BETA_GRID

    def test_quick_rows_are_full_rows(self, full_run):
        # quick only shrinks the sweep: name, measured, tolerance and verdict all match
        full = {row[0]: row for row in full_run[0]}
        quick = verify.run_checks(SimConfig(seed=0), quick=True)
        assert len(quick) == 12
        assert quick == [full[row[0]] for row in quick]

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_one_density_grid_per_beta_and_no_whole_line_quadrature(self, monkeypatch, quick):
        def refused(*args, **kwargs):
            raise AssertionError("verify ran numerics.integrate")

        monkeypatch.setattr(numerics, "integrate", refused)
        grids = counted(monkeypatch, verify, "gg_density_grid", lambda law: law.beta)
        rows = verify.run_checks(SimConfig(seed=0), quick=quick)
        assert "integrate" not in vars(verify)
        assert grids == ([1.0, 2.0] if quick else BETA_GRID)
        assert all(row[3] for row in rows)

    def test_pdf_mass_is_the_density_grid_mass(self, full_run):
        # the grid leaves exactly truncation_mass outside, so the rest is the pdf's mass
        pdf_rows = [row for row in full_run[0] if row[0].startswith("pdf_mass")]
        assert [row[0] for row in pdf_rows] == ["pdf_mass beta=%g" % beta for beta in BETA_GRID]
        for beta, (_, measured, tolerance, passed) in zip(BETA_GRID, pdf_rows):
            grid = verify.gg_density_grid(gg.with_variance(beta, 1.0))
            assert measured == abs(grid.mass + grid.truncation_mass - 1.0)
            assert (tolerance, passed) == (1e-8, True)


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

    @pytest.mark.parametrize("power", [1e-16, 1e-300])
    def test_panel_edge_cap(self, power):
        # about 8.4e8 and 8.4e150 regular edges: refused before any array is built
        config = capacity.ChannelConfig(power, gg.with_variance(1.0, 1.0))
        with pytest.raises(DomainError, match=r"^signal power P=%r needs \S+ panel edges, more than the 16777216" % power):
            verify.gaussian_input_mi(config)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_high_snr_nearly_meets_the_upper_bound(self, beta):
        # C >= I_G, so the paper's upper bound is within upper - I_G of capacity:
        # measured 9.2e-4, 1.8e-5, 7.0e-7 bits at snr 10 and 1.6e-7, 4.5e-9, 2.1e-9 at snr 100
        def slack(snr):
            config = capacity.ChannelConfig(snr, gg.with_variance(beta, 1.0))
            return capacity.awggn_bounds(config, "bits").upper - verify.gaussian_input_mi(config, "bits")

        assert -1e-8 <= slack(10.0) <= 1e-3
        assert -1e-8 <= slack(100.0) <= 1e-6

    def test_vanishing_power(self):
        # small-P expansion: I = P * J(N) / 2 + O(P^2) nats, and the
        # Fisher information of a unit-variance Laplace density is 2
        noise = gg.with_variance(1.0, 1.0)
        config = capacity.ChannelConfig(1e-4, noise)
        mi_nats = verify.gaussian_input_mi(config, "nats")
        assert mi_nats == pytest.approx(1e-4 * 2.0 / 2.0, rel=0.05)


    @pytest.mark.parametrize("beta, snr", [(2.0, 1e6), (0.5, 1e8), (20.0, 1e12), (2.0, 1e-8), (3.0, 1e-6)])
    def test_extreme_snr_lands_inside_sandwich(self, beta, snr):
        # far outside verify's SNR 0.1 ... 100: the grid must still land its
        # mass window, which at high SNR is a 2e-10 floor on a mass near 1 - 1e-10
        config = capacity.ChannelConfig(snr, gg.with_variance(beta, 1.0))
        grid = verify.output_density(config)
        assert grid.landed
        mi = verify._grid_mi(grid, config.noise, "bits")
        bounds = capacity.awggn_bounds(config, "bits")
        assert bounds.lower - 1e-4 <= mi <= bounds.upper + 1e-4


class TestNonzeroMean:
    """Shifting the noise moves the grids with it: neither entropy moves."""

    @pytest.mark.parametrize("mean", [3.7, -1e3, 1e4])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 20.0])
    def test_entropies_ignore_the_mean(self, beta, mean):
        # grid_entropy raises unless the grid has landed
        centred, shifted = gg.with_variance(beta, 1.0), gg.with_variance(beta, 1.0, mean)
        entropies = [verify.grid_entropy(verify.gg_density_grid(law)) for law in (centred, shifted)]
        assert abs(entropies[1] - entropies[0]) <= 1e-12
        mis = [verify.gaussian_input_mi(capacity.ChannelConfig(1.0, law)) for law in (centred, shifted)]
        assert abs(mis[1] - mis[0]) <= 1e-12

    @pytest.mark.parametrize("mean", [1e5, -1e6])
    def test_large_mean_names_the_cause(self, mean):
        # mean +- d rounds the innermost Gauss-Legendre nodes, about 4e-12 from the mean, together
        with pytest.raises(DomainError, match="^mean=%r is too large .* innermost nodes, .* round together$" % mean):
            verify.gg_density_grid(gg.with_variance(1.0, 1.0, mean))

    @pytest.mark.parametrize("mean", [1e3, -1e3])
    def test_window_rounding_past_the_last_edge(self, mean):
        # a noise radius on a regular edge is the last edge, and at |mean| = 1e3
        # the window end mean - (mean - radius) rounds 2.2e-14 past it
        law = gg.with_variance(1.0, 1.0)
        radius = float(verify._panel_edges(law, 1.0, 2.0)[15])
        assert verify._panel_edges(law, 1.0, radius)[-1] == radius < mean - (mean - radius)
        input_radius = gg.tail_radius(gg.GGNoise(2.0, math.sqrt(2.0)), 0.5e-10)
        points = np.linspace(-1.0, 1.0, 101) * (radius + input_radius)
        centred = verify._convolved_values(law, 1.0, points, radius, input_radius)
        shifted = verify._convolved_values(gg.GGNoise(law.beta, law.scale, mean), 1.0, mean + points, radius, input_radius)
        assert np.max(np.abs(shifted - centred)) <= 1e-12


VERIFY_SNRS = [0.1, 1.0, 10.0, 100.0]


class TestFirstGridStep:
    """output_density's first grid has a step of at most sqrt(P)/4, capped at 2001 points."""

    @pytest.mark.parametrize("snr", VERIFY_SNRS)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_verify_configs_land_on_the_first_grid(self, monkeypatch, beta, snr):
        calls = counted(monkeypatch, verify, "_convolved_values", lambda law, power, points, *radii: points)
        grid = verify.output_density(capacity.ChannelConfig(snr, gg.with_variance(beta, 1.0)))
        assert len(calls) == 1
        step = (grid.points[-1] - grid.points[0]) / (len(grid.points) - 1)
        # 1e-12 allows for the rounding of the linspace ends
        assert step <= 0.25 * math.sqrt(snr) * (1.0 + 1e-12)

    @pytest.mark.parametrize("snr", VERIFY_SNRS)
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_halving_the_step_moves_the_mi_by_under_1e_9_bits(self, beta, snr):
        law = gg.with_variance(beta, 1.0)
        grid = verify.output_density(capacity.ChannelConfig(snr, law))
        points = np.linspace(grid.points[0], grid.points[-1], 2 * len(grid.points) - 1)
        noise_radius = gg.tail_radius(law, 0.5e-10)
        input_radius = gg.tail_radius(gg.GGNoise(2.0, math.sqrt(2.0 * snr)), 0.5e-10)
        values = verify._convolved_values(law, snr, points, noise_radius, input_radius)
        finer = verify.DensityGrid(points, values, 1e-10, verify._trapezoid_weights(points))
        assert finer.landed
        fine_mi = verify._grid_mi(finer, law, "bits")
        assert abs(verify._grid_mi(grid, law, "bits") - fine_mi) <= 1e-9

    @pytest.mark.parametrize("power", [1e-2, 1.0, 100.0, 1e4, 1e6])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0, 2.0, 3.0, 20.0])
    def test_wide_sweep_lands_inside_sandwich(self, monkeypatch, beta, power):
        # at large P the trapezoid's end correction on the truncated range
        # grows with the step squared: a step of sqrt(P)/2 missed the window.
        # Only a first grid held at the 2001-point ceiling may need doubling.
        sizes = counted(monkeypatch, verify, "_convolved_values", lambda law, p, points, *radii: len(points))
        config = capacity.ChannelConfig(power, gg.with_variance(beta, 1.0))
        grid = verify.output_density(config)
        assert grid.landed
        assert len(sizes) == 1 or sizes[0] == 2001
        mi = verify._grid_mi(grid, config.noise, "bits")
        bounds = capacity.awggn_bounds(config, "bits")
        assert bounds.lower - 1e-4 <= mi <= bounds.upper + 1e-4
