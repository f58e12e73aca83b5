import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from hotspotplan.discretization import (
    em_points,
    equal_probability_boundaries,
    jensen_points,
    standardized_rule,
    truncated_quadrature_rule,
)
from hotspotplan.errors import VanishingInterval


def trunc_expect(fn, mean, var, m, tol=1e-12):
    """Quadrature oracle: E[fn(Z)] under the truncated, renormalized normal."""
    sd = math.sqrt(var)
    lo, hi = mean - m * sd, mean + m * sd
    mass = norm.cdf(hi, mean, sd) - norm.cdf(lo, mean, sd)
    val, _ = quad(
        lambda z: fn(z) * norm.pdf(z, mean, sd) / mass, lo, hi,
        epsabs=tol, epsrel=tol, limit=400,
    )
    return val


def norm_rules(nu, m):
    """Boundaries, Jensen ``(weights, points)`` and EM ``(weights, points)`` of
    ``nu`` equal-probability intervals on ``+/- m``, evaluated with
    ``scipy.stats.norm``: the reference each rule equals bit for bit."""
    lo_cdf, hi_cdf = norm.cdf(-m), norm.cdf(m)
    b = norm.ppf(lo_cdf + np.arange(nu + 1) / nu * (hi_cdf - lo_cdf))
    b[0], b[-1] = -m, m
    cdf, pdf = norm.cdf(b), norm.pdf(b)
    mass = np.diff(cdf)
    jw, jz = mass / (cdf[-1] - cdf[0]), (pdf[:-1] - pdf[1:]) / mass
    width = b[1:] - b[:-1]
    ew = np.zeros(nu + 1)
    ew[1:] += jw * (jz - b[:-1]) / width
    ew[:-1] += jw * (b[1:] - jz) / width
    return b, (jw, jz), (ew, b)


def same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


GRID = [(nu, m) for nu in range(1, 9) for m in (1.0, 2.0, 4.0, 6.0)]


def on_outcome(rule, b, mean, var):
    """Weights and points of ``rule`` on standardized boundaries ``b``, mapped
    onto an outcome of that mean and variance as ``mean + sd * z``."""
    w, z = rule(b)
    return w, mean + math.sqrt(var) * z


# -- equal_probability_boundaries --------------------------------------------


def test_single_interval_boundaries_are_truncation_limits():
    b = equal_probability_boundaries(1, 3.0)
    assert np.allclose(2.0 + 2.0 * b, [2.0 - 6.0, 2.0 + 6.0])


def test_two_intervals_split_at_the_mean():
    b = equal_probability_boundaries(2, 4.0)
    assert -1.5 + 0.5 * b[1] == pytest.approx(-1.5, abs=1e-12)


def test_quantile_boundaries_match_bisection_oracle():
    m, nu = 4.0, 4
    b = equal_probability_boundaries(nu, m)
    lo_cdf, hi_cdf = norm.cdf(-m), norm.cdf(m)

    def trunc_cdf(z):
        return (norm.cdf(z) - lo_cdf) / (hi_cdf - lo_cdf)

    for j in range(1, nu):
        target = j / nu
        lo, hi = -m, m
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if trunc_cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        assert b[j] == pytest.approx(0.5 * (lo + hi), abs=1e-8)
    for nu, m in GRID:
        assert same_bits([equal_probability_boundaries(nu, m)], [norm_rules(nu, m)[0]]), (nu, m)


def test_partition_validation():
    with pytest.raises(ValueError):
        equal_probability_boundaries(0, 4.0)
    with pytest.raises(ValueError):
        equal_probability_boundaries(2, 0.0)
    for rule in (jensen_points, em_points):
        with pytest.raises(ValueError):
            rule(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            rule(np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError):
            rule(np.array([0.0]))


# -- jensen_points -----------------------------------------------------------


def test_jensen_single_interval_is_the_mean():
    w, z = on_outcome(jensen_points, equal_probability_boundaries(1, 4.0), 1.7, 0.09)
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert z[0] == pytest.approx(1.7, abs=1e-12)


def test_jensen_weights_sum_to_one():
    for nu in (1, 2, 5, 16):
        w, _ = jensen_points(equal_probability_boundaries(nu, 4.0))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)


def test_jensen_points_match_quadrature_oracle():
    mean, var, m, nu = 2.0, 0.25, 4.0, 8
    sd = math.sqrt(var)
    std = equal_probability_boundaries(nu, m)
    b = mean + sd * std
    w, z = on_outcome(jensen_points, std, mean, var)
    mass_total = norm.cdf(m) - norm.cdf(-m)
    for j in range(nu):
        lo, hi = b[j], b[j + 1]
        pj, _ = quad(lambda t: norm.pdf(t, mean, sd) / mass_total, lo, hi,
                     epsabs=1e-12, epsrel=1e-12)
        num, _ = quad(lambda t: t * norm.pdf(t, mean, sd) / mass_total, lo, hi,
                      epsabs=1e-12, epsrel=1e-12)
        assert w[j] == pytest.approx(pj, abs=1e-8)
        assert z[j] == pytest.approx(num / pj, abs=1e-8)
        assert lo < z[j] < hi
    for nu, m in GRID:
        _, jensen, em = norm_rules(nu, m)
        assert same_bits(standardized_rule(nu, m, "jensen"), jensen), (nu, m)
        assert same_bits(standardized_rule(nu, m, "em"), em), (nu, m)


def test_jensen_vanishing_interval_raises():
    with pytest.raises(VanishingInterval):
        jensen_points(np.array([-4.0, 3.999999999999999, 4.0]))


# -- em_points ---------------------------------------------------------------


def test_em_single_interval_symmetric_halves():
    std = equal_probability_boundaries(1, 4.0)
    w, z = on_outcome(em_points, std, 0.5, 1.0)
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)
    assert np.allclose(z, 0.5 + std)


def test_em_lever_rule_single_interval():
    # asymmetric standardized interval: weights follow the reversed lever rule
    b = np.array([-1.5, 2.5])
    w, z = em_points(b)
    jw, jz = jensen_points(b)
    expected_hi = (jz[0] - (-1.5)) / (2.5 - (-1.5))
    assert w[1] == pytest.approx(expected_hi, abs=1e-12)
    assert w[0] == pytest.approx(1.0 - expected_hi, abs=1e-12)


def test_em_weights_sum_to_one_and_nonnegative():
    for nu in (1, 2, 7):
        w, _ = em_points(equal_probability_boundaries(nu, 4.0))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)


def test_mean_preservation_identity(rng):
    # both constructions reproduce the truncated mean
    for _ in range(25):
        mean = rng.normal() * 2
        var = float(rng.uniform(0.05, 3.0))
        nu = int(rng.integers(1, 12))
        b = equal_probability_boundaries(nu, 4.0)
        jw, jz = on_outcome(jensen_points, b, mean, var)
        ew, ez = on_outcome(em_points, b, mean, var)
        assert jw @ jz == pytest.approx(ew @ ez, abs=1e-10)
        assert jw @ jz == pytest.approx(mean, abs=1e-10)  # symmetric truncation


def test_convex_quadratic_sandwich():
    mean, var, nu, m = 0.8, 0.6, 4, 4.0
    std = equal_probability_boundaries(nu, m)
    jw, jz = on_outcome(jensen_points, std, mean, var)
    ew, ez = on_outcome(em_points, std, mean, var)
    for a, b, c in [(1.0, 0.0, 0.0), (2.0, -1.0, 3.0), (0.5, 2.0, -1.0)]:
        q = lambda z: a * z * z + b * z + c
        exact = trunc_expect(q, mean, var, m)
        assert jw @ q(jz) <= exact + 1e-8
        assert ew @ q(ez) >= exact - 1e-8


def test_convex_sandwich_many_functions(rng):
    # exp, quadratics and max-affine test functions on random outcomes
    for _ in range(40):
        mean = float(rng.normal())
        var = float(rng.uniform(0.1, 2.0))
        nu = int(rng.integers(1, 10))
        b = equal_probability_boundaries(nu, 4.0)
        jw, jz = on_outcome(jensen_points, b, mean, var)
        ew, ez = on_outcome(em_points, b, mean, var)
        fns = [
            np.exp,
            lambda z: (z - mean) ** 2,
            lambda z: np.maximum(0.5 * z + 1.0, -2.0 * z),
        ]
        for fn in fns:
            exact = trunc_expect(fn, mean, var, 4.0, tol=1e-11)
            assert jw @ fn(jz) <= exact + 1e-8
            assert ew @ fn(ez) >= exact - 1e-8


def test_refinement_monotonicity_on_splits(rng):
    # inserting one boundary never loosens either side (convex functions)
    for _ in range(30):
        mean = float(rng.normal())
        var = float(rng.uniform(0.2, 1.5))
        sd = math.sqrt(var)
        nu = int(rng.integers(1, 6))
        b = equal_probability_boundaries(nu, 4.0)
        j = int(rng.integers(nu))
        lo, hi = mean + sd * b[j], mean + sd * b[j + 1]
        at = float(rng.uniform(lo + 1e-6, hi - 1e-6))
        refined = np.insert(b, j + 1, (at - mean) / sd)
        for fn in (np.exp, lambda z: (z - mean) ** 2,
                   lambda z: np.maximum(z, 0.3 * z + 0.1)):
            jw, jz = on_outcome(jensen_points, b, mean, var)
            jw2, jz2 = on_outcome(jensen_points, refined, mean, var)
            assert jw @ fn(jz) <= jw2 @ fn(jz2) + 1e-9
            ew, ez = on_outcome(em_points, b, mean, var)
            ew2, ez2 = on_outcome(em_points, refined, mean, var)
            assert ew @ fn(ez) >= ew2 @ fn(ez2) - 1e-9


def test_points_inside_truncated_support():
    mean, var = 1.0, 2.0
    b = equal_probability_boundaries(6, 4.0)
    _, jz = on_outcome(jensen_points, b, mean, var)
    _, ez = on_outcome(em_points, b, mean, var)
    lo, hi = mean + math.sqrt(var) * b[0], mean + math.sqrt(var) * b[-1]
    assert np.all(jz > lo) and np.all(jz < hi)
    assert np.all(ez >= lo) and np.all(ez <= hi)


# -- standardized_rule and truncated_quadrature_rule -------------------------

# standardized_rule(nu, m, side) recorded as float literals, weights then
# points: a change to the rule's arithmetic shows as a byte difference, a
# signed zero included
RULES_AT_PIN = {
    (1, 3.0, "jensen"): (
        [1.0],
        [0.0],
    ),
    (1, 3.0, "em"): (
        [0.5, 0.5],
        [-3.0, 3.0],
    ),
    (1, 4.0, "jensen"): (
        [1.0],
        [0.0],
    ),
    (1, 4.0, "em"): (
        [0.5, 0.5],
        [-4.0, 4.0],
    ),
    (2, 3.0, "jensen"): (
        [0.5, 0.5],
        [-0.7911568260634169, 0.7911568260634169],
    ),
    (2, 3.0, "em"): (
        [0.13185947101056947, 0.7362810579788611, 0.13185947101056947],
        [-3.0, 0.0, 3.0],
    ),
    (2, 4.0, "jensen"): (
        [0.5, 0.5],
        [-0.7976674265872753, 0.7976674265872753],
    ),
    (2, 4.0, "em"): (
        [0.09970842832340941, 0.8005831433531811, 0.09970842832340941],
        [-4.0, 0.0, 4.0],
    ),
    (3, 3.0, "jensen"): (
        [0.3333333333333333, 0.3333333333333333, 0.33333333333333337],
        [-1.0810028688913342, -1.6698427718795187e-16, 1.0810028688913342],
    ),
    (3, 3.0, "em"): (
        [0.08448554255759284, 0.4155144574424071, 0.4155144574424071, 0.08448554255759289],
        [-3.0, -0.4294900976395785, 0.42949009763957835, 3.0],
    ),
    (3, 4.0, "jensen"): (
        [0.33333333333333326, 0.33333333333333337, 0.33333333333333337],
        [-1.0904805483036544, -1.6654400300456348e-16, 1.0904805483036544],
    ),
    (3, 4.0, "em"): (
        [0.06161637323188097, 0.43838362676811893, 0.43838362676811904, 0.06161637323188101],
        [-4.0, -0.43069826458384797, 0.4306982645838478, 4.0],
    ),
    (4, 3.0, "jensen"): (
        [0.24999999999999994, 0.25000000000000006, 0.25000000000000006, 0.24999999999999994],
        [-1.258594965814379, -0.3237186863124551, 0.3237186863124551, 1.258594965814379],
    ),
    (4, 3.0, "em"): (
        [
            0.06296393643936209, 0.30740133440642414, 0.2592694583084275, 0.30740133440642414,
            0.06296393643936207,
        ],
        [-3.0, -0.6723672950630588, 0.0, 0.6723672950630589, 3.0],
    ),
    (4, 4.0, "jensen"): (
        [0.24999999999999994, 0.25000000000000006, 0.25, 0.25],
        [-1.2706941810365189, -0.3246406721380319, 0.32464067213803194, 1.2706941810365187],
    ),
    (4, 4.0, "em"): (
        [
            0.044823597224813654, 0.325513538540371, 0.25932572846963053, 0.3255135385403711,
            0.04482359722481365,
        ],
        [-4.0, -0.674439918471026, 0.0, 0.674439918471026, 4.0],
    ),
    (8, 3.0, "jensen"): (
        [
            0.1250000000000001, 0.12499999999999986, 0.12500000000000008, 0.12499999999999997,
            0.12499999999999997, 0.12500000000000008, 0.12499999999999986, 0.12500000000000008,
        ],
        [
            -1.625058025838239, -0.8921319057905178, -0.4898947950771602, -0.15754257754774986,
            0.15754257754774986, 0.4898947950771602, 0.8921319057905178, 1.6250580258382392,
        ],
    ),
    (8, 3.0, "em"): (
        [
            0.03232668963045029, 0.1507410935973505, 0.12761208466444873, 0.1262960637750288,
            0.12604813666544337, 0.12629606377502883, 0.12761208466444873, 0.15074109359735047,
            0.032326689630450295,
        ],
        [
            -3.0, -1.1454450468547004, -0.6723672950630588, -0.317749514427486, 0.0,
            0.317749514427486, 0.6723672950630589, 1.1454450468547004, 3.0,
        ],
    ),
    (8, 4.0, "jensen"): (
        [
            0.1250000000000001, 0.12499999999999983, 0.12500000000000006, 0.125, 0.125, 0.125,
            0.12499999999999989, 0.1250000000000001,
        ],
        [
            -1.6460804533886264, -0.8953079086844108, -0.4913152163018815, -0.15796612797418216,
            0.15796612797418216, 0.49131521630188174, 0.8953079086844103, 1.6460804533886264,
        ],
    ),
    (8, 4.0, "em"): (
        [
            0.021749437277614962, 0.16127671302664837, 0.1276421779090779, 0.12630474309666367,
            0.12605385737999023, 0.1263047430966636, 0.12764217790907806, 0.16127671302664828,
            0.021749437277614962,
        ],
        [
            -4.0, -1.1502339980697314, -0.674439918471026, -0.31861848347001365, 0.0,
            0.31861848347001365, 0.674439918471026, 1.1502339980697314, 4.0,
        ],
    ),
}


def test_standardized_rule_is_pinned():
    for (nu, m, side), (w_pin, z_pin) in RULES_AT_PIN.items():
        w, z = standardized_rule(nu, m, side)
        assert w.tobytes() == np.array(w_pin).tobytes(), (nu, m, side)
        assert z.tobytes() == np.array(z_pin).tobytes(), (nu, m, side)
        assert not w.flags.writeable and not z.flags.writeable


def test_truncated_quadrature_panels_are_the_equal_probability_intervals():
    _, z = truncated_quadrature_rule(32, 4.0)
    x, _ = np.polynomial.legendre.leggauss(4)
    panels = z.reshape(32, 4)
    mid = 0.5 * (panels[:, 0] + panels[:, -1])
    half = (panels[:, -1] - panels[:, 0]) / (x[-1] - x[0])
    edges = np.append(mid - half, mid[-1] + half[-1])
    assert np.allclose(edges, equal_probability_boundaries(32, 4.0), rtol=0, atol=1e-12)
    assert np.allclose(mid[1:] - half[1:], mid[:-1] + half[:-1], rtol=0, atol=1e-12)


def test_truncated_quadrature_rule_integrates_affine_exactly():
    w, z = truncated_quadrature_rule(32, 4.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert w @ z == pytest.approx(0.0, abs=1e-12)
    for a, b in [(0.7, -0.2), (-1.3, 2.0)]:
        exact = a * (w @ z) + b
        assert w @ (a * z + b) == pytest.approx(exact, abs=1e-12)


def test_truncated_quadrature_rule_handles_kinks():
    # composite panels keep the error small for kinked convex integrands
    w, z = truncated_quadrature_rule(32, 4.0)
    kinked = lambda t: np.maximum(0.4 * t + 0.1, -0.3 * t)
    exact = trunc_expect(kinked, 0.0, 1.0, 4.0, tol=1e-12)
    assert w @ kinked(z) == pytest.approx(exact, abs=1e-4)
    exact_exp = trunc_expect(np.exp, 0.0, 1.0, 4.0, tol=1e-12)
    assert w @ np.exp(z) == pytest.approx(exact_exp, abs=1e-4)
    # the rule is the one scipy.stats.norm's density gives, bit for bit
    x, gw = np.polynomial.legendre.leggauss(4)
    for order in (1, 4, 32):
        for m in (1.0, 2.0, 4.0, 6.0):
            b = norm_rules(order, m)[0]
            mid, half = 0.5 * (b[:-1] + b[1:]), 0.5 * (b[1:] - b[:-1])
            pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
            ref = (half[:, None] * gw[None, :] * norm.pdf(pts).reshape(order, 4)).ravel()
            assert same_bits(truncated_quadrature_rule(order, m), (ref / ref.sum(), pts)), (order, m)
