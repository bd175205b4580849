import cmath
import math

import numpy as np
import pytest

from zitterlab.roots import (
    CharEq,
    Region,
    argument_principle_count,
    dominant_real_root,
    find_roots,
    render_domain_coloring,
    spectrum,
    write_ppm,
)

# frozen oracle values: plain bisection on x^2 + x + 1 - e^x over
# [1.5, 2] and Newton ladders audited by contour counts
LAMBDA_STAR = 1.793282132900762
ETA_LADDER = (8.327764, 14.935308, 21.381435, 27.765624, 34.118482,
              40.453023, 46.775830, 53.090625, 59.399682, 65.704479)
LADDER_SLOPE = 6.360922


def _bisect_oracle() -> float:
    f = lambda x: x * x + x + 1.0 - math.exp(x)
    lo, hi = 1.5, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_dominant_real_root_against_bisection():
    assert dominant_real_root() == pytest.approx(_bisect_oracle(),
                                                 abs=1e-12)
    assert dominant_real_root() == pytest.approx(LAMBDA_STAR, abs=1e-12)


def test_dominant_real_root_is_drift_free():
    base = dominant_real_root(0.0)
    for beta in (0.3, 0.6, 0.9):
        assert dominant_real_root(beta) == base


def test_chareq_small_z_cancellation():
    # f(z) = z^2/2 - z^3/6 + O(z^4); naive evaluation loses everything
    eq = CharEq(0.0)
    for z in (1e-5, 1e-6 + 1e-6j, -2e-7):
        want = z * z / 2 - z ** 3 / 6 + z ** 4 / 24
        assert eq.value(z) == pytest.approx(want, rel=1e-6)


def test_chareq_scaled_value_stays_finite():
    eq = CharEq(0.0)
    z = 800.0 + 10.0j
    with np.errstate(over="ignore"):
        assert not np.isfinite(abs(eq.value(z)))
    assert np.isfinite(abs(eq.scaled_value(z)))


def test_rest_census(rest_rootset):
    assert len(rest_rootset.roots) == 2
    by_mag = sorted(rest_rootset.roots, key=lambda r: abs(r.value))
    origin, lam = by_mag
    assert abs(origin.value) < 1e-8
    assert origin.multiplicity == 2
    assert lam.multiplicity == 1
    assert lam.value.real == pytest.approx(LAMBDA_STAR, abs=1e-10)
    assert abs(lam.value.imag) < 1e-10
    assert lam.residual < 1e-10


def test_rest_census_matches_contour_count(rest_rootset):
    n = argument_principle_count(CharEq(0.0),
                                 Region(-1.0, 3.0, -1.0, 1.0))
    assert n == rest_rootset.total_multiplicity() == 3


def test_wide_rootset_sits_in_right_half_plane(wide_rootset):
    nonzero = [r for r in wide_rootset.roots if abs(r.value) > 1e-8]
    assert len(nonzero) >= 30
    assert min(r.value.real for r in nonzero) > 0.0
    assert all(r.residual < 1e-9 for r in wide_rootset.roots)


def test_wide_rootset_roots_satisfy_equation(wide_rootset):
    # independent residual: straight cmath evaluation of the function
    for r in wide_rootset.roots:
        z = r.value
        val = z * z + z + 1.0 - cmath.exp(z)
        scale = max(1.0, abs(cmath.exp(z)))
        assert abs(val) / scale < 1e-9


def test_spectrum_ladder_frozen_values():
    sp = spectrum(0.0, count=10)
    assert len(sp.etas) == 10
    assert np.allclose(sp.etas, ETA_LADDER, rtol=0, atol=2e-6)
    assert sp.slope == pytest.approx(LADDER_SLOPE, abs=2e-6)
    assert sp.r_squared > 0.999
    # each branch root solves the equation (independent evaluation)
    for z in sp.roots:
        assert abs(z * z + z + 1.0 - cmath.exp(z)) / abs(cmath.exp(z)) < 1e-9


def test_spectrum_is_beta_independent():
    base = spectrum(0.0, count=6, audit=False)
    for beta in (0.3, 0.6, 0.9):
        sp = spectrum(beta, count=6, audit=False)
        assert np.allclose(sp.etas, base.etas, rtol=0, atol=1e-12)


def test_spectrum_real_parts_grow():
    # branch n sits near Re z = ln(eta_n^2 + 2): the instability rate
    # of the oscillatory tower increases with frequency
    sp = spectrum(0.0, count=8, audit=False)
    xs = [z.real for z in sp.roots]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    for z in sp.roots:
        assert z.real == pytest.approx(math.log(z.imag ** 2 + 2.0),
                                       abs=0.5)


def test_region_parse_and_contains():
    reg = Region.parse("-1,3,-2,2")
    assert (reg.x0, reg.x1, reg.y0, reg.y1) == (-1.0, 3.0, -2.0, 2.0)
    assert reg.contains(1.0 + 1.0j)
    assert not reg.contains(4.0)
    with pytest.raises(ValueError):
        Region.parse("1,2,3")
    with pytest.raises(ValueError):
        Region.parse("3,1,-1,1")


def test_find_roots_rejects_empty_region():
    with pytest.raises(ValueError):
        Region(2.0, -2.0, 0.0, 1.0)


def test_render_is_deterministic():
    eq = CharEq(0.0)
    reg = Region(-1.0, 3.0, -5.0, 5.0)
    a = render_domain_coloring(eq, reg, (48, 36))
    b = render_domain_coloring(eq, reg, (48, 36))
    assert a.shape == (36, 48, 3)
    assert a.dtype == np.uint8
    assert np.array_equal(a, b)


def test_write_ppm_layout(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 7)
    path = tmp_path / "img.ppm"
    write_ppm(str(path), img)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == 11 + 18
    assert blob[11:14] == bytes((255, 0, 7))
