import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hotspotplan.field_model as fm
from hotspotplan.errors import DegenerateCovariance, InsufficientData, SingularGram
from hotspotplan.field_model import (
    Hyperparams,
    IncrementalPosterior,
    KernelTable,
    PosteriorData,
    fit_hyperparams,
    lognormal_predictor,
    map_entropy,
    map_spectrum,
    posterior_marginals,
    sample_field,
)
from hotspotplan.evaluation import ent_metric
from hotspotplan.planners import Problem
from hotspotplan.world import GridDomain
from oracles import (
    PosteriorGaussian,
    cov_matrix,
    covariance,
    gaussian_entropy,
    lgp_entropy,
    log_marginal_likelihood,
    posterior,
)

LOG_2PI_E = math.log(2 * math.pi * math.e)


# -- covariance kernel -------------------------------------------------------


def test_zero_distance_unit_signal():
    h = Hyperparams(0.0, 1.0, 2.0, 0.0)
    assert covariance((3, 3), (3, 3), h) == pytest.approx(1.0)


def test_kernel_decays_monotonically_to_zero():
    h = Hyperparams(0.0, 1.0, 1.5, 0.0)
    vals = [covariance((0, 0), (0, d), h) for d in range(1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-10


def test_kernel_direct_formula_value():
    # signal 2, length 1, distance 1 -> 2 * exp(-1/2)
    h = Hyperparams(0.0, 2.0, 1.0, 0.0)
    assert covariance((0, 0), (0, 1), h) == pytest.approx(2.0 * math.exp(-0.5), abs=1e-12)


def test_kernel_symmetry_and_nugget():
    h = Hyperparams(0.0, 1.3, 0.9, 0.2)
    assert covariance((1, 2), (4, 0), h) == covariance((4, 0), (1, 2), h)
    assert covariance((1, 2), (1, 2), h) == pytest.approx(1.5)


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_cov_matrix_matches_scalar_kernel(noise):
    h = Hyperparams(0.0, 1.3, 0.9, noise)
    cells_a = [(0, 0), (1, 2), (3, 1), (1, 2)]
    cells_b = [(1, 2), (0, 0), (2, 2), (3, 1)]
    k = cov_matrix(cells_a, cells_b, h)
    assert k.shape == (4, 4)
    for i, a in enumerate(cells_a):
        for j, b in enumerate(cells_b):
            assert k[i, j] == pytest.approx(covariance(a, b, h), rel=1e-12)


def test_sq_dists_matches_difference_einsum_bit_for_bit(rng):
    a = rng.integers(-60, 60, size=(40, 2)).astype(float)
    b = rng.integers(-60, 60, size=(25, 2)).astype(float)
    for x, y in ((a, b), (a, a), (b[:1], a), (a, b[:0])):
        diff = x[:, None, :] - y[None, :, :]
        assert np.array_equal(fm._sq_dists(x, y), np.einsum("ijk,ijk->ij", diff, diff))


# -- posterior ---------------------------------------------------------------


def test_posterior_reduces_to_prior_without_observations():
    h = Hyperparams(0.7, 1.2, 1.0, 0.05)
    d = PosteriorData([], [])
    g = posterior(d, [(0, 0), (1, 1)], h)
    assert np.allclose(g.mean, 0.7)
    expected = np.array(
        [
            [covariance((0, 0), (0, 0), h), covariance((0, 0), (1, 1), h)],
            [covariance((1, 1), (0, 0), h), covariance((1, 1), (1, 1), h)],
        ]
    )
    assert np.allclose(g.covariance, expected)


def test_posterior_interpolates_observed_cell_with_zero_nugget():
    h = Hyperparams(0.0, 1.0, 1.2, 0.0)
    d = PosteriorData([(0, 0), (2, 1)], [1.3, -0.4])
    g = posterior(d, [(0, 0)], h)
    assert g.mean[0] == pytest.approx(1.3, abs=1e-6)
    assert g.covariance[0, 0] == pytest.approx(0.0, abs=1e-6)


def test_posterior_matches_explicit_two_by_two_inverse():
    # oracle: closed-form 2x2 matrix inversion on a 3x3 grid
    h = Hyperparams(0.2, 1.5, 1.1, 0.3)
    obs = [(0, 0), (2, 2)]
    z = np.array([0.9, -0.5])
    target = (1, 1)
    k11 = covariance(obs[0], obs[0], h)
    k12 = covariance(obs[0], obs[1], h)
    k22 = covariance(obs[1], obs[1], h)
    det = k11 * k22 - k12 * k12
    inv = np.array([[k22, -k12], [-k12, k11]]) / det
    kt = np.array([covariance(target, obs[0], h), covariance(target, obs[1], h)])
    mean_expected = h.mean + kt @ inv @ (z - h.mean)
    var_expected = covariance(target, target, h) - kt @ inv @ kt
    g = posterior(PosteriorData(obs, z), [target], h)
    assert g.mean[0] == pytest.approx(mean_expected, abs=1e-9)
    assert g.covariance[0, 0] == pytest.approx(var_expected, abs=1e-9)


def test_posterior_covariance_independent_of_measurements(rng):
    h = Hyperparams(0.0, 1.0, 1.4, 0.01)
    locs = [(0, 0), (1, 2), (3, 1), (2, 3)]
    targets = [(1, 1), (2, 2)]
    base = posterior(PosteriorData(locs, rng.normal(size=4)), targets, h)
    for _ in range(5):
        other = posterior(PosteriorData(locs, rng.normal(size=4) * 10), targets, h)
        assert np.array_equal(base.covariance, other.covariance)


def test_conditioning_never_increases_variance(rng):
    h = Hyperparams(0.1, 0.9, 1.3, 0.02)
    locs = [(0, 0), (2, 2), (3, 0)]
    d = PosteriorData(locs, rng.normal(size=3))
    target = (1, 1)
    var = posterior(d, [target], h).covariance[0, 0]
    for cell in [(0, 3), (1, 2), (3, 3)]:
        d = d.extended(cell, rng.normal())
        new_var = posterior(d, [target], h).covariance[0, 0]
        assert new_var <= var + 1e-9
        var = new_var


def test_entropy_chain_rule_over_disjoint_blocks(rng):
    # H(A u B | d) = H(A | d) + H(B | d, A at arbitrary values)
    h = Hyperparams(0.0, 1.1, 1.2, 0.05)
    d = PosteriorData([(0, 0), (3, 3)], [0.5, -0.1])
    a_cells = [(1, 0), (0, 2)]
    b_cells = [(2, 2), (3, 1)]
    joint = gaussian_entropy(posterior(d, a_cells + b_cells, h))
    h_a = gaussian_entropy(posterior(d, a_cells, h))
    d_ext = d
    for c in a_cells:
        d_ext = d_ext.extended(c, rng.normal() * 3)
    h_b_given_a = gaussian_entropy(posterior(d_ext, b_cells, h))
    assert joint == pytest.approx(h_a + h_b_given_a, abs=1e-9)


def test_duplicate_locations_rejected():
    with pytest.raises(ValueError):
        PosteriorData([(0, 0), (0, 0)], [1.0, 2.0])


def test_singular_gram_without_jitter(monkeypatch):
    monkeypatch.setattr(fm, "JITTER_FRACTION", 0.0)
    h = Hyperparams(0.0, 1.0, 1e12, 0.0)  # correlations round to exactly 1
    d = PosteriorData([(0, 0), (0, 1), (1, 0)], [0.1, 0.2, 0.3])
    with pytest.raises(SingularGram):
        posterior(d, [(2, 2)], h)
    with pytest.raises(SingularGram):
        lgp_entropy(d, [(2, 2)], h)


def test_lgp_entropy_rejects_singular_posterior_covariance(monkeypatch):
    # without jitter every kernel value is exactly 1: the observed block
    # [1] is regular, and (0, 1) is then known exactly
    monkeypatch.setattr(fm, "JITTER_FRACTION", 0.0)
    h = Hyperparams(0.0, 1.0, 1e12, 0.0)
    d = PosteriorData([(0, 0)], [0.1])
    with pytest.raises(DegenerateCovariance):
        gaussian_entropy(posterior(d, [(0, 1), (2, 2)], h))
    with pytest.raises(DegenerateCovariance):
        lgp_entropy(d, [(0, 1), (2, 2)], h)


# -- gaussian_entropy --------------------------------------------------------


def test_entropy_unit_log_argument_is_zero():
    g = PosteriorGaussian(np.zeros(1), np.array([[1.0 / (2 * math.pi * math.e)]]))
    assert gaussian_entropy(g) == pytest.approx(0.0, abs=1e-12)


def test_entropy_identity_covariance():
    for k in (1, 2, 5):
        g = PosteriorGaussian(np.zeros(k), np.eye(k))
        assert gaussian_entropy(g) == pytest.approx(0.5 * k * LOG_2PI_E, abs=1e-12)


def test_entropy_correlated_pair_determinant():
    rho = 0.5
    g = PosteriorGaussian(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
    expected = LOG_2PI_E + 0.5 * math.log(1 - rho**2)
    assert gaussian_entropy(g) == pytest.approx(expected, abs=1e-12)


def test_entropy_rejects_degenerate_covariance():
    g = PosteriorGaussian(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateCovariance):
        gaussian_entropy(g)


# -- lgp_entropy -------------------------------------------------------------


def test_lgp_entropy_equals_gaussian_when_means_vanish():
    h = Hyperparams(0.0, 1.0, 1.5, 0.0)
    d = PosteriorData([], [])
    targets = [(0, 0), (2, 2)]
    assert lgp_entropy(d, targets, h) == pytest.approx(
        gaussian_entropy(posterior(d, targets, h)), abs=1e-12
    )


def test_lgp_entropy_single_target_closed_form():
    h = Hyperparams(0.4, 0.9, 1.1, 0.02)
    d = PosteriorData([(0, 0), (1, 2)], [0.8, 0.1])
    g = posterior(d, [(2, 1)], h)
    expected = 0.5 * math.log(2 * math.pi * math.e * g.covariance[0, 0]) + g.mean[0]
    assert lgp_entropy(d, [(2, 1)], h) == pytest.approx(expected, abs=1e-12)


def test_lgp_entropy_decomposition_is_exact(rng):
    h = Hyperparams(0.3, 1.2, 1.4, 0.05)
    d = PosteriorData([(0, 0), (3, 1)], rng.normal(size=2))
    targets = [(1, 1), (2, 3), (0, 2)]
    g = posterior(d, targets, h)
    assert lgp_entropy(d, targets, h) - gaussian_entropy(g) == pytest.approx(
        float(np.sum(g.mean)), abs=1e-12
    )


def test_lgp_entropy_matches_dense_posterior_without_nugget(rng):
    # the jitter path: only the observed diagonal carries the jitter
    h = Hyperparams(0.3, 1.2, 1.6, 0.0)
    domain = GridDomain(6, 5)
    d = PosteriorData([(0, 0), (3, 1), (5, 4), (2, 2)], rng.normal(size=4))
    targets = [c for c in domain.cells() if c not in d.observed_set()]
    g = posterior(d, targets, h)
    expected = gaussian_entropy(g) + float(np.sum(g.mean))
    assert lgp_entropy(d, targets, h) == pytest.approx(expected, rel=1e-12)


def test_lgp_entropy_monte_carlo_oracle(rng):
    # oracle: 1e6-sample Monte-Carlo differential entropy of exp(Z)
    h = Hyperparams(0.5, 0.8, 1.2, 0.01)
    d = PosteriorData([(0, 0), (2, 2), (1, 3)], [1.0, 0.2, 0.6])
    target = (1, 1)
    g = posterior(d, [target], h)
    mu, var = float(g.mean[0]), float(g.covariance[0, 0])
    z = rng.normal(mu, math.sqrt(var), size=1_000_000)
    # -log f_Y(e^z) evaluated with the known lognormal density
    neglog = 0.5 * math.log(2 * math.pi * var) + z + (z - mu) ** 2 / (2 * var)
    estimate = float(np.mean(neglog))
    se = float(np.std(neglog, ddof=1)) / math.sqrt(len(neglog))
    assert abs(lgp_entropy(d, [target], h) - estimate) < 3 * se


# -- posterior_marginals -----------------------------------------------------


@pytest.mark.parametrize(
    "noise, locs",
    [
        (0.05, [(0, 0), (3, 1), (5, 4), (2, 2)]),  # targets include observed cells
        (0.0, [(0, 0), (3, 1), (5, 4), (2, 2)]),  # jitter path
        (0.05, []),  # empty history
    ],
)
def test_posterior_marginals_match_posterior_diagonal(rng, noise, locs):
    h = Hyperparams(0.3, 1.2, 1.6, noise)
    d = PosteriorData(locs, rng.normal(size=len(locs)))
    targets = GridDomain(6, 5).cells()
    g = posterior(d, targets, h)
    mean, var = posterior_marginals(d, targets, h)
    np.testing.assert_allclose(mean, g.mean, rtol=1e-12, atol=1e-15)
    # observed cells have zero posterior variance (up to the jitter), so
    # their rounding is absolute
    np.testing.assert_allclose(
        var, np.diag(g.covariance), rtol=1e-12, atol=1e-12 * h.prior_variance
    )


@pytest.mark.parametrize("noise", [0.05, 0.0])
def test_batch_is_the_posterior_at_cells_already_in_the_sequence(rng, noise):
    # the table's zero offset carries the nugget, so a target that is also an
    # observed cell gets the posterior of that same measurement again
    h = Hyperparams(0.3, 1.2, 1.6, noise)
    locs = [(0, 0), (3, 1), (5, 4), (2, 2)]
    z = rng.normal(size=len(locs))
    dom = GridDomain(6, 5)
    inc = IncrementalPosterior(KernelTable(h, dom), locs, z, capacity=len(locs))
    mean, var = inc.batch(dom.cells())
    g = posterior(PosteriorData(locs, z), dom.cells(), h)
    np.testing.assert_allclose(mean, g.mean, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(var, np.diag(g.covariance), rtol=0, atol=1e-12 * h.prior_variance)


def test_posterior_marginals_refuse_a_negative_coordinate():
    # the kernel table covers the grid from the origin: a cell off it would
    # gather another offset's entry
    h = Hyperparams(0.3, 1.2, 1.6, 0.05)
    d = PosteriorData([(0, 0), (2, 1)], [0.4, -0.2])
    with pytest.raises(ValueError):
        posterior_marginals(d, [(1, 1), (-1, 2)], h)
    with pytest.raises(ValueError):
        posterior_marginals(PosteriorData([(0, -3)], [0.1]), [(1, 1)], h)


# -- sample_field ------------------------------------------------------------


def test_sample_field_collapses_at_tiny_signal():
    h = Hyperparams(0.7, 1e-14, 1.0, 0.0)
    field = sample_field(h, GridDomain(3, 4), seed=5)
    assert np.allclose(field, math.exp(0.7), atol=1e-5)


def test_sample_field_deterministic_in_seed():
    h = Hyperparams(0.0, 1.0, 1.5, 0.02)
    dom = GridDomain(5, 5)
    assert np.array_equal(sample_field(h, dom, 42), sample_field(h, dom, 42))
    assert not np.array_equal(sample_field(h, dom, 42), sample_field(h, dom, 43))


def test_sample_field_moments_match_kernel():
    # oracle: empirical moments of 1e4 field draws on the 14x12 grid
    h = Hyperparams(0.4, 0.9, 1.8, 0.05)
    dom = GridDomain(14, 12)
    n = 10_000
    logs = np.empty((n, dom.rows, dom.cols))
    for i in range(n):
        logs[i] = np.log(sample_field(h, dom, seed=50_000 + i))
    se_mean = math.sqrt(h.prior_variance / n)
    worst = np.abs(logs.mean(axis=0) - h.mean).max()
    assert worst < 3 * se_mean  # every cell within 3 SE of the prior mean
    # adjacent pair covariance
    a = logs[:, 6, 5]
    b = logs[:, 6, 6]
    sample_cov = float(np.cov(a, b, ddof=1)[0, 1])
    true_cov = covariance((6, 5), (6, 6), h)
    var_a = covariance((6, 5), (6, 5), h)
    se_cov = math.sqrt((var_a * var_a + true_cov**2) / n)
    assert abs(sample_cov - true_cov) < 3 * se_cov


def _fresh_draw(h, dom, seed):
    spec = fm.MapSpectrum(h, dom, h.prior_variance)  # uncached
    e = np.random.default_rng(seed).standard_normal((dom.rows, dom.cols))
    return np.exp(h.mean + spec.qa @ (np.sqrt(spec.lam) * e) @ spec.qb.T)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_sample_field_equals_a_draw_from_a_fresh_factor(noise):
    h = Hyperparams(0.4, 0.9, 1.8, noise)
    dom = GridDomain(14, 12)
    fm._map_spectrum.cache_clear()
    for seed in (3, 4, 3):  # the second and third calls read the cached spectrum
        assert np.array_equal(sample_field(h, dom, seed), _fresh_draw(h, dom, seed))


def test_sample_field_refactors_when_the_jitter_changes(monkeypatch):
    h = Hyperparams(0.0, 1.0, 2.5, 0.0)  # zero nugget: the jitter applies
    dom = GridDomain(6, 5)
    before = sample_field(h, dom, 11)
    monkeypatch.setattr(fm, "JITTER_FRACTION", 0.3)
    after = sample_field(h, dom, 11)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _fresh_draw(h, dom, 11))


def test_sample_field_factor_is_read_only():
    h = Hyperparams(0.0, 1.0, 1.5, 0.02)
    dom = GridDomain(4, 5)
    sample_field(h, dom, 0)
    spec = map_spectrum(h, dom)
    for array in (spec.qa, spec.qb, spec.lam):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 2.0


def test_sample_field_rejects_a_gram_that_is_not_positive_definite(monkeypatch):
    monkeypatch.setattr(fm, "JITTER_FRACTION", 0.0)  # every correlation at length 1e12 is 1
    with pytest.raises(SingularGram):
        sample_field(Hyperparams(0.0, 1.0, 1e12, 0.0), GridDomain(3, 3), 0)


def test_sample_field_holds_one_map_factor():
    h = Hyperparams(0.0, 1.0, 1.5, 0.02)
    dom = GridDomain(5, 4)
    sample_field(h, dom, 0)
    info = fm._map_spectrum.cache_info()
    sample_field(h, dom, 1)
    assert fm._map_spectrum.cache_info().misses == info.misses  # reused
    ent_metric(Problem(dom, h, "gp"), PosteriorData([], []))
    after = fm._map_spectrum.cache_info()
    assert (after.misses, after.hits) == (info.misses, info.hits + 2)  # ENT reads the sampler's entry


# -- lognormal_predictor -----------------------------------------------------


def test_predictor_trivial_values():
    h = Hyperparams(0.0, 1e-12, 1.0, 0.0)
    d = PosteriorData([], [])
    assert lognormal_predictor(d, (0, 0), h) == pytest.approx(1.0, abs=1e-9)


def test_predictor_exponent_log_two():
    # mu = 0, var = 2 log 2 -> exp(log 2) = 2
    h = Hyperparams(0.0, 2.0 * math.log(2.0), 1.0, 0.0)
    d = PosteriorData([], [])
    # the zero nugget's jitter scales the variance by 1 + JITTER_FRACTION
    expected = 2.0 * math.exp(fm.JITTER_FRACTION * math.log(2.0))
    assert lognormal_predictor(d, (0, 0), h) == pytest.approx(expected, abs=1e-12)


def test_predictor_monte_carlo_oracle(rng):
    h = Hyperparams(0.2, 0.7, 1.3, 0.02)
    d = PosteriorData([(0, 0), (2, 1)], [0.9, -0.2])
    target = (1, 2)
    g = posterior(d, [target], h)
    mu, var = float(g.mean[0]), float(g.covariance[0, 0])
    samples = np.exp(rng.normal(mu, math.sqrt(var), size=1_000_000))
    se = float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    assert abs(lognormal_predictor(d, target, h) - float(np.mean(samples))) < 3 * se


# -- fit_hyperparams ---------------------------------------------------------


def test_fit_requires_enough_data():
    d = PosteriorData([(0, 0), (1, 1)], [0.0, 1.0])
    with pytest.raises(InsufficientData):
        fit_hyperparams(d, GridDomain(4, 4))


def test_fit_single_candidate_returned():
    rng = np.random.default_rng(0)
    dom = GridDomain(5, 5)
    locs = [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]
    d = PosteriorData(locs, rng.normal(size=5))
    h = fit_hyperparams(
        d, dom, signal_grid=[0.8], length_grid=[1.7], noise_grid=[0.05]
    )
    assert (h.signal_variance, h.length_scale, h.noise_variance) == (0.8, 1.7, 0.05)
    assert h.mean == pytest.approx(float(np.mean(d.z)))


def test_fit_constant_observations_pick_grid_minimum():
    dom = GridDomain(5, 5)
    locs = [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3), (0, 4)]
    d = PosteriorData(locs, np.full(6, 1.25))
    h = fit_hyperparams(
        d,
        dom,
        signal_grid=[1e-4, 1e-2, 1.0],
        length_grid=[1.0, 2.0],
        noise_grid=[1e-5, 1e-3, 0.1],
    )
    assert h.signal_variance == pytest.approx(1e-4)
    assert h.noise_variance == pytest.approx(1e-5)


def test_fit_maximizes_over_the_grid(rng):
    dom = GridDomain(6, 6)
    cells = dom.cells()
    idx = rng.choice(len(cells), size=12, replace=False)
    locs = [cells[i] for i in idx]
    d = PosteriorData(locs, rng.normal(size=12))
    sg, lg, ng = [0.5, 1.0], [1.0, 2.0], [0.01, 0.1]
    best = fit_hyperparams(d, dom, sg, lg, ng)
    best_ll = log_marginal_likelihood(d, best)
    for sv in sg:
        for ell in lg:
            for nv in ng:
                cand = Hyperparams(best.mean, sv, ell, nv)
                assert best_ll >= log_marginal_likelihood(d, cand) - 1e-9


def test_fit_recovers_length_scale():
    # oracle: self-consistency across seeds, truth on the grid
    dom = GridDomain(10, 10)
    truth = Hyperparams(0.0, 1.0, 2.0, 0.01)
    length_grid = np.array([0.7, 1.2, 2.0, 3.3, 5.5])
    hits = 0
    for seed in range(20):
        field = sample_field(truth, dom, seed=900 + seed)
        cells = dom.cells()
        d = PosteriorData(cells, [math.log(field[c]) for c in cells])
        fit = fit_hyperparams(
            d,
            dom,
            signal_grid=np.geomspace(0.25, 4.0, 7),
            length_grid=length_grid,
            noise_grid=np.geomspace(1e-4, 0.3, 5),
        )
        i_true = int(np.where(length_grid == 2.0)[0][0])
        i_fit = int(np.argmin(np.abs(length_grid - fit.length_scale)))
        if abs(i_fit - i_true) <= 1:
            hits += 1
    assert hits >= 16  # >= 80% of 20 seeds


def _brute_force_fit(d, sg, lg, ng):
    """First maximum of ``log_marginal_likelihood`` in (length, signal, noise)
    order, skipping candidates whose Gram is not positive definite."""
    best, best_ll = None, -np.inf
    mean = float(np.mean(d.z))
    for ell in lg:
        for sv in sg:
            for nv in ng:
                cand = Hyperparams(mean, sv, ell, nv)
                try:
                    ll = log_marginal_likelihood(d, cand)
                except SingularGram:
                    continue
                if ll > best_ll:
                    best, best_ll = cand, ll
    return best, best_ll


def _fit_instance(rows, cols, n, seed):
    dom = GridDomain(rows, cols)
    truth = Hyperparams(0.3, 0.9, 2.5, 0.02)
    field = sample_field(truth, dom, seed=seed)
    cells = dom.cells()
    idx = np.random.default_rng([seed, 1]).choice(len(cells), size=n, replace=False)
    locs = [cells[i] for i in sorted(idx)]
    return dom, PosteriorData(locs, [math.log(field[c]) for c in locs])


@pytest.mark.parametrize("rows, cols, n", [(14, 12, 22), (42, 36, 21)])
def test_fit_equals_a_brute_force_argmax_over_the_default_grid(rows, cols, n):
    dom, d = _fit_instance(rows, cols, n, seed=rows)
    fit = fit_hyperparams(d, dom, grid_points=12)
    best, best_ll = _brute_force_fit(d, *fm.default_grids(d, dom, 12))
    assert fit == best
    assert log_marginal_likelihood(d, fit) == pytest.approx(best_ll, abs=1e-9)


@pytest.mark.parametrize("jitter", [fm.JITTER_FRACTION, 0.3])
@pytest.mark.parametrize("noise_grid", [[0.0], [0.0, 1e-3, 0.1]])
def test_fit_with_a_zero_nugget_applies_the_jitter_rule(monkeypatch, jitter, noise_grid):
    monkeypatch.setattr(fm, "JITTER_FRACTION", jitter)
    dom, d = _fit_instance(14, 12, 22, seed=5)
    sg, lg = np.geomspace(0.05, 2.0, 6), [0.5, 0.8, 1.3]
    fit = fit_hyperparams(d, dom, sg, lg, noise_grid)
    best, best_ll = _brute_force_fit(d, sg, lg, noise_grid)
    assert fit == best
    assert log_marginal_likelihood(d, fit) == pytest.approx(best_ll, abs=1e-9)


def test_fit_skips_gram_matrices_that_are_not_positive_definite(monkeypatch):
    # without jitter, every correlation at length 1e12 is exactly 1; constant
    # data would give a singular candidate an unbounded likelihood
    monkeypatch.setattr(fm, "JITTER_FRACTION", 0.0)
    dom = GridDomain(5, 5)
    d = PosteriorData([(0, 0), (1, 2), (2, 4), (3, 1), (4, 3), (0, 4)], np.full(6, 0.7))
    fit = fit_hyperparams(d, dom, [0.5, 1.0], [1e12], [0.0, 0.1])
    assert (fit.signal_variance, fit.length_scale, fit.noise_variance) == (0.5, 1e12, 0.1)
    fit = fit_hyperparams(d, dom, [0.5, 1.0], [1e12, 1.5], [0.0])
    assert (fit.signal_variance, fit.length_scale, fit.noise_variance) == (0.5, 1.5, 0.0)
    with pytest.raises(SingularGram):
        fit_hyperparams(d, dom, [0.5, 1.0], [1e12], [0.0])


@pytest.mark.parametrize("length_grid", [[1e-3, 1e-4], [1e-4, 1e-3]])
def test_fit_ties_go_to_the_first_candidate_in_iteration_order(length_grid):
    # both length scales make every correlation exactly 0, and (0.2, 0.3) and
    # (0.3, 0.2) give the same total variance, the likelihood's maximum
    dom = GridDomain(5, 5)
    a = math.sqrt(0.5)
    d = PosteriorData([(0, 0), (1, 2), (2, 4), (3, 1), (4, 3), (0, 4)], [a, -a] * 3)
    fit = fit_hyperparams(d, dom, [0.2, 0.3], length_grid, [0.2, 0.3])
    assert (fit.signal_variance, fit.length_scale, fit.noise_variance) == (0.2, length_grid[0], 0.3)


# -- incremental factor ------------------------------------------------------


def _extend_by_value(inc, cell, z_value):
    """Extend ``inc`` by the measured value ``z_value`` at ``cell``: its
    standardized residual given the sequence so far."""
    (mu,), (var,) = inc.batch([cell])
    return inc.extend(cell, (z_value - mu) / math.sqrt(var))


@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_extend_by_a_standardized_point_observes_its_outcome(rng, noise):
    # extend(x, zeta) observes mu + sd * zeta at x, mu and sd the posterior
    # given the sequence before it: batch and joint then equal posterior() of
    # the history with that outcome appended
    h = Hyperparams(0.2, 1.0, 1.2, noise)
    table = KernelTable(h, GridDomain(4, 5))
    locs = [(0, 0), (1, 2), (3, 1)]
    z = rng.normal(size=3)
    inc = IncrementalPosterior(table, locs, z, capacity=5)
    targets = [(2, 2), (0, 4), (3, 3)]
    for x, zeta in (((2, 3), 1.7), ((1, 0), -0.6)):
        (mu,), (var,) = inc.batch([x])
        inc.extend(x, zeta)
        locs, z = locs + [x], np.append(z, mu + math.sqrt(var) * zeta)
        g = posterior(PosteriorData(locs, z), targets, h)
        mus, variances = inc.batch(targets)
        mean, cov = inc.joint(targets)
        for got in (mus, mean):
            np.testing.assert_allclose(got, g.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(variances, np.diag(g.covariance), rtol=0, atol=1e-12)
        np.testing.assert_allclose(cov, g.covariance, rtol=0, atol=1e-12)


def test_incremental_posterior_matches_posterior(rng):
    h = Hyperparams(0.1, 0.9, 1.4, 0.02)
    locs = [(0, 0), (2, 2), (1, 3)]
    z = rng.normal(size=3)
    inc = IncrementalPosterior(KernelTable(h, GridDomain(4, 4)), tuple(locs), z, capacity=10)
    targets = [(1, 1), (3, 0)]
    mus, variances = inc.batch(targets)
    g = posterior(PosteriorData(locs, z), targets, h)
    assert np.allclose(mus, g.mean, atol=1e-10)
    assert np.allclose(variances, np.diag(g.covariance), atol=1e-10)
    inc.extend((1, 1), (0.77 - mus[0]) / math.sqrt(variances[0]))
    d2 = PosteriorData(locs + [(1, 1)], np.append(z, 0.77))
    mus2, variances2 = inc.batch([(3, 0)])
    g2 = posterior(d2, [(3, 0)], h)
    assert mus2[0] == pytest.approx(float(g2.mean[0]), abs=1e-10)
    assert variances2[0] == pytest.approx(float(g2.covariance[0, 0]), abs=1e-10)


def test_incremental_extend_returns_posterior_variance(rng):
    h = Hyperparams(0.1, 0.9, 1.4, 0.02)
    locs = [(0, 0), (2, 2), (1, 3)]
    z = rng.normal(size=3)
    inc = IncrementalPosterior(KernelTable(h, GridDomain(4, 4)), tuple(locs), z, capacity=5)
    var = inc.extend((1, 1), 0.3)
    g = posterior(PosteriorData(locs, z), [(1, 1)], h)
    assert var == pytest.approx(float(g.covariance[0, 0]), abs=1e-10)
    g2 = posterior(PosteriorData(locs + [(1, 1)], np.append(z, 0.3)), [(3, 0)], h)
    assert inc.extend((3, 0), -0.2) == pytest.approx(float(g2.covariance[0, 0]), abs=1e-10)


def test_incremental_pop_then_extend_matches_fresh(rng):
    h = Hyperparams(0.1, 0.9, 1.4, 0.0)
    locs = [(0, 0), (2, 2), (1, 3)]
    z = rng.normal(size=3)
    inc = IncrementalPosterior(KernelTable(h, GridDomain(4, 4)), tuple(locs), z, capacity=6)
    _extend_by_value(inc, (1, 1), 0.5)
    _extend_by_value(inc, (0, 2), -0.4)
    inc.pop(2)
    _extend_by_value(inc, (3, 3), 0.8)
    _extend_by_value(inc, (2, 0), 0.1)
    fresh = IncrementalPosterior(
        KernelTable(h, GridDomain(4, 4)),
        tuple(locs) + ((3, 3), (2, 0)),
        np.append(z, [0.8, 0.1]),
        capacity=6,
    )
    targets = [(1, 1), (0, 2), (3, 1)]
    mus, variances = inc.batch(targets)
    mus_f, variances_f = fresh.batch(targets)
    assert np.allclose(mus, mus_f, rtol=0, atol=1e-10)
    assert np.allclose(variances, variances_f, rtol=0, atol=1e-10)


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_batch_variances_equal_the_variances_extend_returns(rng, noise):
    # one prior: the variance a batch reports is the pivot extend factors
    h = Hyperparams(0.1, 0.9, 1.4, noise)
    locs = ((0, 0), (2, 2), (1, 3), (4, 1))
    table = KernelTable(h, GridDomain(5, 4))
    inc = IncrementalPosterior(table, locs, rng.normal(size=4), capacity=5)
    targets = [(3, 3), (1, 1), (4, 0), (0, 3)]
    _, variances = inc.batch(targets)
    extended = []
    for x in targets:
        extended.append(inc.extend(x, 0.3))
        inc.pop(1)
    np.testing.assert_allclose(variances, extended, rtol=1e-12, atol=0)


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("rows, cols", [(14, 12), (42, 36)])
def test_kernel_table_equals_cov_matrix_at_every_offset(rows, cols, noise):
    # all pairs of cells of the grid reach every offset, the zero offset with
    # its nugget (the jitter when the noise is zero) included
    h = Hyperparams(0.4, 1.3, 2.0, noise)
    cells = GridDomain(rows, cols).cells()
    table = KernelTable(h, GridDomain(rows, cols))
    assert table.values.shape == ((2 * rows - 1) * (2 * cols - 1),)
    codes = table.codes(cells)
    gathered = table.values[table.center + codes[:, None] - codes[None, :]]
    assert np.array_equal(gathered, cov_matrix(cells, cells, h))


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_kernel_table_matrix_equals_cov_matrix(rng, noise):
    h = Hyperparams(0.4, 1.3, 2.0, noise)
    table = KernelTable(h, GridDomain(7, 5))
    cells = table.domain.cells()
    a = [cells[i] for i in rng.choice(len(cells), 9, replace=False)]
    b = a[3:7] + [cells[i] for i in rng.choice(len(cells), 6, replace=False)]
    for x, y in ((a, b), (b, a), (a, a), (a, list(a))):
        assert np.array_equal(table.matrix(x, y), cov_matrix(x, y, h))


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_extend_with_a_batch_column_matches_a_fresh_extend(rng, noise):
    h = Hyperparams(0.1, 0.9, 1.4, noise)
    table = KernelTable(h, GridDomain(5, 4))
    locs = ((0, 0), (2, 2), (1, 3), (4, 1))
    z = rng.normal(size=4)
    reused = IncrementalPosterior(table, locs, z, capacity=6)
    fresh = IncrementalPosterior(table, locs, z, capacity=6)
    targets = [(3, 3), (1, 1), (4, 0)]
    reused.batch(targets)
    var_reused = reused.extend(targets[1], 0.6, reused.columns[:, 1])
    var_fresh = fresh.extend(targets[1], 0.6)
    assert var_reused == pytest.approx(var_fresh, rel=1e-12, abs=0)
    assert np.allclose(reused._L[:5, :5], fresh._L[:5, :5], rtol=0, atol=1e-12)
    mus, variances = reused.batch([(3, 3), (4, 0)])
    mus_f, variances_f = fresh.batch([(3, 3), (4, 0)])
    assert np.allclose(mus, mus_f, rtol=0, atol=1e-12)
    assert np.allclose(variances, variances_f, rtol=0, atol=1e-12)


def test_factor_refuses_cells_off_the_table_grid():
    # (0, 5) would alias cell (1, 0) of a 3x3 table's codes
    table = KernelTable(Hyperparams(0.0, 1.0, 1.5, 0.01), GridDomain(3, 3))
    with pytest.raises(ValueError):
        IncrementalPosterior(table, [(0, 0), (0, 5)], [0.1, 0.2], capacity=3)


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_joint_equals_the_posterior_mean_and_covariance(rng, noise):
    h = Hyperparams(0.3, 1.1, 1.6, noise)
    table = KernelTable(h, GridDomain(5, 6))
    locs = [(0, 0), (2, 3), (4, 5), (1, 4)]
    z = rng.normal(size=4)
    inc = IncrementalPosterior(table, locs, z, capacity=7)
    targets = [(3, 3), (0, 1), (4, 0), (2, 2), (1, 5)]

    def check(locs, z):
        mean, cov = inc.joint(targets)
        g = posterior(PosteriorData(locs, z), targets, h)
        assert np.allclose(mean, g.mean, rtol=0, atol=1e-12)
        assert np.allclose(cov, g.covariance, rtol=0, atol=1e-12)
        assert np.array_equal(cov, cov.T)

    check(locs, z)
    _extend_by_value(inc, (2, 0), 0.4)
    _extend_by_value(inc, (3, 4), -0.3)
    check(locs + [(2, 0), (3, 4)], np.append(z, [0.4, -0.3]))
    inc.pop(1)
    check(locs + [(2, 0)], np.append(z, 0.4))
    inc.pop(1)
    check(locs, z)


# -- map spectrum ------------------------------------------------------------

_NUGGETS = st.floats(1e-3, 1.0)


@st.composite
def _map_cases(draw, nuggets):
    """A grid (1 x n strips and non-square grids included), hyperparameters
    with a length scale in 0.3-8, and the grid's cells in a random order."""
    rows = draw(st.integers(1, 9))
    dom = GridDomain(rows, draw(st.integers(2 if rows == 1 else 1, 9)))
    h = Hyperparams(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 3.0)),
                    draw(st.floats(0.3, 8.0)), draw(nuggets))
    return dom, h, draw(st.permutations(dom.cells()))


@settings(max_examples=150, deadline=None)
@given(_map_cases(_NUGGETS), st.data())
def test_map_entropy_equals_lgp_entropy_over_the_unobserved_cells(case, data):
    dom, h, cells = case
    m = data.draw(st.integers(0, dom.size - 1))
    z = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
    d = PosteriorData(cells[:m], z)
    expected = lgp_entropy(d, cells[m:], h)
    assert map_entropy(d, dom, h) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_map_entropy_of_a_fully_observed_map_is_zero():
    # no cell is left unobserved: the joint entropy of no cells
    dom = GridDomain(2, 3)
    d = PosteriorData(dom.cells(), np.linspace(-1.0, 1.0, dom.size).tolist())
    assert map_entropy(d, dom, Hyperparams(0.2, 1.0, 1.5, 0.02)) == 0.0


def test_map_entropy_without_a_nugget_on_a_smooth_map():
    # a zero nugget jitters the whole Gram, targets included, so the joint
    # factor of a smooth map (length scale 4 on 8 x 8) stays positive definite
    h = Hyperparams(0.0, 1.0, 4.0, 0.0)
    dom = GridDomain(8, 8)
    d = PosteriorData([], [])
    cells = dom.cells()
    # an eigenvalue's rounding is of order eps * ||K||, so each of the N log
    # eigenvalues in the log-determinant is off by at most about eps * cond(K)
    tol = dom.size * np.finfo(float).eps * np.linalg.cond(cov_matrix(cells, cells, h))
    assert map_entropy(d, dom, h) == pytest.approx(lgp_entropy(d, cells, h), rel=0, abs=tol)


@settings(max_examples=150, deadline=None)
@given(_map_cases(st.one_of(st.just(0.0), _NUGGETS)), st.data())
def test_leave_one_out_variances_equal_a_dense_inverse(case, data):
    # each target's variance given the cells not removed is 1 / diag(K_U^-1),
    # K_U their Gram with the prior variance on its diagonal
    dom, h, cells = case
    removed = data.draw(st.integers(0, dom.size - 1))
    targets = data.draw(st.integers(1, dom.size - removed))
    kept = cells[removed:]
    k_u = cov_matrix(kept, kept, h)
    np.fill_diagonal(k_u, h.prior_variance)
    dense = 1.0 / np.diag(np.linalg.inv(k_u))[:targets]
    got = map_spectrum(h, dom).leave_one_out(kept[:targets], cells[:removed])
    # the spectrum's entries of K^-1 carry the whole map's conditioning, and
    # an inverse's forward error is of order size * eps * cond
    k = cov_matrix(cells, cells, h)
    np.fill_diagonal(k, h.prior_variance)
    rtol = 16 * max(dom.size, 16) * np.finfo(float).eps * np.linalg.cond(k)
    np.testing.assert_allclose(got, dense, rtol=rtol, atol=0)


def test_map_spectrum_rejects_a_gram_that_is_not_positive_definite(monkeypatch):
    # without jitter, every correlation at length 1e12 is exactly 1
    monkeypatch.setattr(fm, "JITTER_FRACTION", 0.0)
    h = Hyperparams(0.0, 1.0, 1e12, 0.0)
    assert not map_spectrum(h, GridDomain(3, 3)).positive
    assert map_spectrum(Hyperparams(0.0, 1.0, 1e12, 0.1), GridDomain(3, 3)).positive
