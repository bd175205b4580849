import cmath
import functools
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import LAMBDA_STAR

from zitterlab import cli, model
from zitterlab import roots as rootsmod
from zitterlab.model import lorentz_gamma
from zitterlab.roots import (
    CharEq,
    Region,
    argument_principle_count,
    dominant_real_root,
    find_roots,
    ppm_header,
    render_domain_coloring,
    render_slabs,
    spectrum,
)
from zitterlab.trajectory import SeedHistory

# frozen oracle values: Newton ladders audited by contour counts
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


def test_lambda_star_is_the_nearest_double():
    # the root at 120 bits, then the closest of the three doubles around
    # its float(): LAMBDA_STAR must be that one, and not by a tie
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(120):
        root = mpmath.findroot(lambda z: mpmath.exp(z) - z * z - z - 1,
                               mpmath.mpf("1.79"))
        near = float(root)
        doubles = (math.nextafter(near, -math.inf), near,
                   math.nextafter(near, math.inf))
        gaps = sorted((abs(mpmath.mpf(d) - root), d) for d in doubles)
        assert abs(mpmath.exp(root) - root * root - root - 1) < \
            mpmath.mpf(2) ** -110
    assert gaps[0][0] < gaps[1][0]
    assert LAMBDA_STAR == gaps[0][1]


def test_dominant_real_root_against_bisection():
    assert dominant_real_root() == pytest.approx(_bisect_oracle(),
                                                 abs=1e-12)
    assert dominant_real_root() == pytest.approx(LAMBDA_STAR, abs=1e-12)


def _fixed_halving_root() -> float:
    """dominant_real_root's bracket and test with all 200 halvings run."""
    eq = CharEq()
    s = lambda x: float(eq.scaled_value(x).real)
    lo, hi = 0.5, 1.0
    while True:
        hi *= 2.0
        if s(hi) < 0.0:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
def test_dominant_real_root_stops_at_its_fixed_point(beta):
    assert dominant_real_root() == _fixed_halving_root()
    assert dominant_real_root() == 1.7932821329007615
    # the lab-frame rate on drift beta is the root over gamma
    assert SeedHistory.mode_kick(beta, 1e-6).rate == \
        _fixed_halving_root() / lorentz_gamma(beta)


def _chareq_bisection() -> float:
    """The bisection dominant_real_root ran before it moved to model:
    the sign of CharEq's rescaled value."""
    eq = CharEq()

    def s(x: float) -> float:
        return float(eq.scaled_value(x).real)

    lo, hi = 0.5, 2.0
    assert s(lo) > 0.0 and s(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if s(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_float_bisection_equals_the_chareq_route():
    assert model.dominant_real_root() == _chareq_bisection()
    assert dominant_real_root is model.dominant_real_root


def test_float_sign_is_the_chareq_sign_on_the_bracket():
    # 20,001 points across [0.5, 2] and the 4,001 doubles within 2,000
    # ulps of lambda*: on the real axis CharEq's complex expm1, like
    # numpy's, is libm's expm1, and the damping e^-x > 0 keeps the sign
    xs = list(np.linspace(0.5, 2.0, 20_001))
    x = lam = model.dominant_real_root()
    for _ in range(2_000):
        x = math.nextafter(x, 0.0)
    for _ in range(4_001):
        xs.append(x)
        x = math.nextafter(x, math.inf)
    assert lam in xs
    xs = np.array(xs)
    chareq = np.sign([CharEq().scaled_value(v).real for v in xs])
    floats = np.sign([v * v + v - math.expm1(v) for v in xs])
    assert np.array_equal(chareq, floats)
    assert np.array_equal(np.expm1(xs.astype(complex)).real,
                          [math.expm1(v) for v in xs])


def test_lambda_star_is_within_3_ulp_of_the_root():
    # pins the known error of the float bisection (2.44 ulp high, see
    # ROADMAP item 6); a correctly rounded root would read 0.44 ulp
    mpmath = pytest.importorskip("mpmath")
    lam = model.dominant_real_root()
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda z: mpmath.exp(z) - z * z - z - 1,
                               mpmath.mpf("1.79"))
        ulps = float((mpmath.mpf(lam) - root) / math.ulp(lam))
    assert abs(ulps) <= 3.0


def test_chareq_small_z_cancellation():
    # f(z) = z^2/2 - z^3/6 + O(z^4); naive evaluation loses everything
    eq = CharEq()
    for z in (1e-5, 1e-6 + 1e-6j, -2e-7):
        want = z * z / 2 - z ** 3 / 6 + z ** 4 / 24
        assert eq.value(z) == pytest.approx(want, rel=1e-6)


def test_chareq_scaled_value_stays_finite():
    eq = CharEq()
    z = 800.0 + 10.0j
    assert not math.isfinite(abs(eq.value(z)))
    assert math.isfinite(abs(eq.scaled_value(z)))


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
    n = argument_principle_count(CharEq(),
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


def _krawczyk_encloses(z: complex, half: float) -> bool:
    # whether the Krawczyk operator of f(w) = w^2 + w + 1 - e^w maps
    # the box X of half-width `half` about z into its interior:
    # K(X) = m - Y f(m) + (1 - Y f'(X)) (X - m), m = z, Y ~ 1/f'(z).
    # K(X) inside X proves that X holds exactly one root of f
    from mpmath import iv
    m = iv.mpc(z.real, z.imag)
    box = iv.mpc(iv.mpf([z.real - half, z.real + half]),
                 iv.mpf([z.imag - half, z.imag + half]))
    y = 1.0 / (2.0 * z + 1.0 - cmath.exp(z))
    y = iv.mpc(y.real, y.imag)
    k = (m - y * (m * m + m + 1 - iv.exp(m))
         + (1 - y * (2 * box + 1 - iv.exp(box))) * (box - m))
    return all(outer.a < inner.a and inner.b < outer.b
               for outer, inner in ((box.real, k.real), (box.imag, k.imag)))


def test_ladder_roots_are_proven_by_krawczyk():
    # interval arithmetic proves one root of f, and only one, in the box
    # of half-width 1e-10 about each of the first ten ladder roots; a box
    # that misses the root by three half-widths is not proven
    pytest.importorskip("mpmath")
    roots = spectrum(0.0, count=10).roots
    assert len(roots) == 10
    for z in roots:
        assert _krawczyk_encloses(z, 1e-10)
        assert not _krawczyk_encloses(z + 3e-10, 1e-10)


def test_spectrum_is_beta_independent():
    base = spectrum(0.0, count=6)
    for beta in (0.3, 0.6, 0.9):
        sp = spectrum(beta, count=6)
        assert np.allclose(sp.etas, base.etas, rtol=0, atol=1e-12)


@pytest.mark.parametrize("count", [0, 1])
def test_spectrum_needs_two_branches(count):
    with pytest.raises(ValueError, match="2 or more branches"):
        spectrum(0.0, count)


def test_spectrum_audit_is_the_census_certificate(monkeypatch):
    # the strip count must equal the branches found, or spectrum raises
    monkeypatch.setattr(rootsmod, "argument_principle_count",
                        lambda eq, region: 11)
    with pytest.raises(RuntimeError, match="argument principle counts 11"):
        spectrum(0.0, count=10)


def test_spectrum_real_parts_grow():
    # branch n sits near Re z = ln(eta_n^2 + 2): the instability rate
    # of the oscillatory tower increases with frequency
    sp = spectrum(0.0, count=8)
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
    for text in ("-1,3,1e10,1e10000", "nan,1,0,1", "-1e308,1e308,0,1"):
        with pytest.raises(ValueError):
            Region.parse(text)


def test_find_roots_rejects_empty_region():
    with pytest.raises(ValueError):
        Region(2.0, -2.0, 0.0, 1.0)


def test_render_is_deterministic():
    eq = CharEq()
    reg = Region(-1.0, 3.0, -5.0, 5.0)
    a = render_domain_coloring(eq, reg, (48, 36))
    b = render_domain_coloring(eq, reg, (48, 36))
    assert a.shape == (36, 48, 3)
    assert a.dtype == np.uint8
    assert np.array_equal(a, b)


# sha256 of render_domain_coloring(CharEq(), Region(*bounds), size).tobytes(),
# recorded from the per-pixel complex evaluation the separable grid replaced
_PIXEL = 2.0 ** -20   # the 9x9 micro window's centre pixel is exactly 0
PINNED_RENDERS = {
    "cli-default": ((-1.0, 3.0, -15.0, 15.0), (640, 480),
                    "0d6eb5f347738726412ab34e0b24b271c67ac44be47a2c03778bb3694e77e440"),
    "explore-like": ((-1.5395, 3.1174, -15.7157, 15.7157), (1600, 1200),
                     "f1e5dbee83913041bb68037857a90b671b73941a5cd905dc50bb5599e25bd7b0"),
    "wide": ((-10.0, 10.0, -100.0, 100.0), (400, 300),
             "93a0ace67742014faf7bbecf8de850a4590810c030c3f148992d0017ace09e86"),
    "scale-switch-overflow": ((650.0, 760.0, -400.0, 400.0), (330, 200),
                              "1e144dbc4dafb3bb8403a9c480ffe162467a03203fbffec17a40fcde4cba210f"),
    "huge": ((-800.0, 800.0, -500.0, 500.0), (320, 200),
             "684b6c6b8ab249a1ce3b372f380f5704ef642279632a5fcec5b44e8c52006d7c"),
    "micro-origin": ((-_PIXEL, _PIXEL, -_PIXEL, _PIXEL), (9, 9),
                     "388059d77fc563d81cf02078fbdf049c8803202d7215ad75d4b0f0619dbcc946"),
    "strip-7x1": ((-1.0, 3.0, -15.0, 15.0), (7, 1),
                  "f268aa59126af5710b24d4c4310317e83095c6248c477757625edede574942b1"),
}


def _render_axes(bounds, size):
    # the pixel centres render_domain_coloring lays out
    (x0, x1, y0, y1), (w, h) = bounds, size
    xs = x0 + (np.arange(w) + 0.5) * (x1 - x0) / w
    ys = y1 - (np.arange(h) + 0.5) * (y1 - y0) / h
    return xs, ys


@pytest.mark.parametrize("case", PINNED_RENDERS)
def test_render_outputs_are_pinned(case):
    bounds, size, want = PINNED_RENDERS[case]
    image = render_domain_coloring(CharEq(), Region(*bounds), size)
    assert image.shape == (size[1], size[0], 3)
    assert hashlib.sha256(image.tobytes()).hexdigest() == want


def _bit_mismatches(got, want):
    # differing float64 bit patterns; any NaN matches any NaN
    got, want = got.view(np.float64), want.view(np.float64)
    same = (got.view(np.int64) == want.view(np.int64)) | (
        np.isnan(got) & np.isnan(want))
    return int(np.count_nonzero(~same))


@pytest.mark.parametrize("case", PINNED_RENDERS)
def test_grid_values_match_chareq_bit_for_bit(case):
    # the per-axis factors and per-pixel arithmetic against the scalar
    # CharEq at every point of the grid, plus rows at y = 0 and +-pi
    bounds, (w, h), _ = PINNED_RENDERS[case]
    xs, ys = _render_axes(bounds, (min(w, 640), min(h, 480)))
    ys = np.concatenate([ys, [0.0, math.pi, -math.pi]])
    eq = CharEq()
    with np.errstate(all="ignore"):
        v, f = rootsmod._grid_values(rootsmod._column_factors(xs), ys)
    z = [complex(x, y) for y in ys.tolist() for x in xs.tolist()]
    want_v = np.array([eq.value(p) for p in z]).reshape(v.shape)
    want_f = np.array([eq.scaled_value(p) for p in z]).reshape(f.shape)
    assert _bit_mismatches(v, want_v) == 0
    assert _bit_mismatches(f, want_f) == 0


def test_grid_values_cover_the_special_cases():
    # the scale switch, overflow to inf and NaN (inf * sin 0) all occur
    xs, ys = _render_axes((650.0, 760.0, -400.0, 400.0), (330, 200))
    ys = np.concatenate([ys, [0.0]])
    with np.errstate(all="ignore"):
        v, f = rootsmod._grid_values(rootsmod._column_factors(xs), ys)
    assert xs.min() < rootsmod._SCALE_SWITCH < 709.8 < xs.max()
    assert np.isinf(v).any() and np.isnan(v).any()
    assert np.isfinite(f).all()


def test_render_memory_is_bounded():
    # one uint8 image (5.8 MB) and one set of slab-sized work arrays, not
    # ~300 MB of full-image complex arrays nor any full-image temporary
    tracemalloc.start()
    try:
        render_domain_coloring(CharEq(), Region(-1.0, 3.0, -15.0, 15.0),
                               (1600, 1200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def _choose_hsv_to_rgb(h, s, v):
    # reference: the per-channel np.choose selection, quantised as the
    # image is
    i = np.floor(h * 6.0)
    fr = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * fr)
    t = v * (1.0 - s * (1.0 - fr))
    i = i.astype(int) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.floor(rgb * 256.0), 0.0, 255.0).astype(np.uint8)


def test_hsv_selection_matches_choose():
    # every sector, its edges and the hues just below them, a hue of 1.0
    # (x % 1.0 of a tiny negative x), and the desaturated pixels: the
    # white ones of non-finite values, whose hue and value may be
    # anything, non-finite too.  Rows of 1,013 put each finite hue at a
    # saturated pixel in one row at least
    edges = np.arange(7) / 6.0
    h = np.concatenate([np.linspace(0.0, 1.0, 997, endpoint=False), edges,
                        np.nextafter(edges[1:], 0.0),
                        [np.nan, np.inf, -np.inf]])
    h = np.tile(h, (2, 1))
    v = 0.55 + 0.40 * np.linspace(0.0, 1.0, h.size).reshape(h.shape)
    white = (np.arange(h.size).reshape(h.shape) % 5 == 0) | ~np.isfinite(h)
    v[1, -3:] = [np.nan, np.inf, -np.inf]
    want = _choose_hsv_to_rgb(np.where(white, 0.0, h),
                              np.where(white, 0.0, 0.88),
                              np.where(white, 1.0, v))
    with np.errstate(all="raise"):
        got = rootsmod._hsv_to_rgb(h.copy(), v.copy(), white)
    assert got.shape == h.shape + (3,)
    assert np.array_equal(got, want)
    assert (got[white] == 255).all() and (got[~white] < 255).all()


def test_write_ppm_layout():
    # the header and slab bytes as `render` writes them: row 0, pixel 0
    # follows the 11-byte header, and the file holds 3 bytes a pixel
    region, size = Region(-1.0, 3.0, -15.0, 15.0), (3, 2)
    blob = ppm_header(size) + b"".join(pixels.tobytes() for pixels
                                       in render_slabs(region, size))
    image = render_domain_coloring(CharEq(), region, size)
    assert blob.startswith(b"P6\n3 2\n255\n")
    assert len(blob) == 11 + 18
    assert blob[11:14] == image[0, 0].tobytes()
    assert blob[11:] == image.tobytes()


def test_render_slabs_concatenate_to_the_image():
    # 37 rows: slabs of 16, 16 and 5
    region, size = Region(-1.0, 3.0, -15.0, 15.0), (5, 37)
    slabs = list(render_slabs(region, size))
    assert [s.shape for s in slabs] == [(16, 5, 3), (16, 5, 3), (5, 5, 3)]
    assert np.array_equal(np.concatenate(slabs),
                          render_domain_coloring(CharEq(), region, size))


@pytest.mark.parametrize("region, size, message", [
    (Region(-1.0, 3.0, -15.0, 15.0), (0, 4), "bad image size"),
    (Region(-1.0, 3.0, -15.0, 15.0), (4, -1), "bad image size"),
    # (k + 0.5) * 1e308 overflows where the pixel centres would not
    (Region(0.0, 1.0, -1e308, 0.0), (1, 3), "pass the float range"),
], ids=["width", "height", "float-range"])
def test_render_slabs_refuses_when_called(monkeypatch, tmp_path, region,
                                          size, message):
    # the call raises, not the first slab: no slab is begun, and the
    # render command opens no file
    def grid_values(*_):
        raise AssertionError("a slab was made")
    monkeypatch.setattr(rootsmod, "_grid_values", grid_values)
    with pytest.raises(ValueError, match=message):
        render_slabs(region, size)
    path = tmp_path / "x.ppm"
    args = SimpleNamespace(region=region, size=size, out=str(path))
    with pytest.raises(ValueError, match=message):
        cli.cmd_render(args, None)
    assert not path.exists()


# --- independent census: Newton from a seed grid ----------------------
#
# The package enumerates the census branch by branch.  This oracle
# knows nothing of branches: 50 Newton steps from every point of a
# uniform seed grid, a two-stage dedupe around a polish, and a
# conjugate closure, the census `roots` printed before the branch
# enumeration, bit for bit at the same density.  It returns (value,
# residual, multiplicity) rows sorted by (Re, Im).

def _np_residual(z):
    # |e^(-max(Re z, 0)) f(z)| on a numpy array, numpy's own exp and
    # expm1 throughout: the array evaluator CharEq was before it moved
    # to libm scalars
    x = np.maximum(z.real, 0.0)
    damp = np.exp(-x)
    with np.errstate(all="ignore"):
        safe = (z * z + z - np.expm1(z)) * damp
        split = (z * z + z + 1.0) * damp - np.exp(z - x)
    return np.abs(np.where(z.real < rootsmod._SCALE_SWITCH, safe, split))


def _oracle_polish(eq, z, res):
    for _ in range(8):
        with np.errstate(all="ignore"):
            f = complex(eq.scaled_value(z))
            x = max(z.real, 0.0)
            fp = (2.0 * z + 1.0) * math.exp(-x) - complex(np.exp(z - x))
        if fp == 0:
            break
        znew = z - f / fp
        rnew = float(eq.residual(znew))
        if not math.isfinite(rnew) or rnew >= res:
            break
        z, res = znew, rnew
    fp_mag = abs(complex(
        (2.0 * z + 1.0) * math.exp(-max(z.real, 0.0))
        - complex(np.exp(z - max(z.real, 0.0)))))
    return complex(z), float(res), 2 if fp_mag < 1e-6 else 1


@functools.lru_cache(maxsize=None)
def _seed_grid_census(eq, region, grid_density=10.0):
    def inside(w):
        return (region.x0 - 1e-9 <= w.real <= region.x1 + 1e-9
                and region.y0 - 1e-9 <= w.imag <= region.y1 + 1e-9)

    nx = max(int(round((region.x1 - region.x0) * grid_density)), 2)
    ny = max(int(round((region.y1 - region.y0) * grid_density)), 2)
    xs = np.linspace(region.x0, region.x1, nx)
    ys = np.linspace(region.y0, region.y1, ny)
    z = (xs[None, :] + 1j * ys[:, None]).ravel().astype(complex)
    with np.errstate(all="ignore"):
        for _ in range(50):
            # eq.scaled_value(z) and the rescaled f', sharing exponentials
            x = np.maximum(z.real, 0.0)
            damp, ezx = np.exp(-x), np.exp(z - x)
            fz = (z * z + z - np.expm1(z)) * damp
            far = ~(z.real < 700.0)
            zf = z[far]
            fz[far] = (zf * zf + zf + 1.0) * damp[far] - ezx[far]
            step = fz / ((2.0 * z + 1.0) * damp - ezx)
            z = z - np.where(np.isfinite(step), step, 0.0)
        res = _np_residual(z)
    good = np.isfinite(z) & np.isfinite(res) & (res < 1e-10)
    zg, rg = z[good], res[good]
    keep = np.array([inside(w) for w in zg], dtype=bool)
    zg, rg = zg[keep], rg[keep]
    coarse = []
    if zg.size:
        key = np.round(zg.real, 8) + 1j * np.round(zg.imag, 8)
        _, first = np.unique(key, return_index=True)
        for idx in first[np.argsort(rg[first], kind="stable")]:
            if all(abs(zg[idx] - u[0]) > 1e-6 for u in coarse):
                coarse.append((complex(zg[idx]), float(rg[idx])))
    polished = []
    # the polish starts from CharEq's residual, as the census does
    for r in sorted((_oracle_polish(eq, w, eq.residual(w))
                     for w, _ in coarse), key=lambda r: r[1]):
        if all(abs(r[0] - u[0]) > 1e-6 for u in polished):
            polished.append(r)
    closed = list(polished)
    for w, res, mult in polished:
        conj = w.conjugate()
        if abs(w.imag) > 1e-6 and inside(conj) and \
                all(abs(conj - q[0]) > 1e-6 for q in closed):
            closed.append((conj, res, mult))
    return tuple(sorted(closed, key=lambda r: (r[0].real, r[0].imag)))


def _assert_census_matches_oracle(rs, oracle, ulps=0):
    # branch k != 0 (|Im z| > pi): bit for bit, or within `ulps` units
    # in the last place; branch 0: the exact origin and
    # dominant_real_root() against Newton's endpoints
    got = [(r.value, r.residual, r.multiplicity) for r in rs.roots]
    assert len(got) == len(oracle)
    for (z, res, mult), (w, wres, wmult) in zip(got, oracle):
        assert mult == wmult
        if abs(w.imag) > math.pi and not ulps:
            assert (z, res) == (w, wres)
        elif abs(w.imag) > math.pi:
            for a, b in ((z.real, w.real), (z.imag, w.imag), (res, wres)):
                assert abs(a - b) <= ulps * np.spacing(abs(b))
        else:
            assert abs(z - w) < 1e-15


def _seam(k):
    return (2 * k + 1) * math.pi


ORACLE_REGIONS = {
    "wide": ((-10.0, 10.0, -100.0, 100.0), 4.0),
    "tall": ((-10.0, 10.0, -30.0, 30.0), 4.0),
    "rest": ((-1.0, 3.0, -1.0, 1.0), 10.0),
    "seam_1": ((-2.0, 8.0, _seam(0) - 1.0, _seam(1) + 1.0), 4.0),
    "seam_3_4": ((2.0, 9.0, _seam(3) - 0.5, _seam(4) + 0.5), 4.0),
    "seam_neg": ((-2.0, 8.0, -_seam(2) - 1.0, -_seam(0) + 1.0), 4.0),
    "seam_across_axis": ((-2.0, 8.0, -_seam(1) - 0.3, _seam(0) + 0.3), 4.0),
    "upper_only": ((-3.0, 9.0, 0.5, 60.0), 4.0),
    "lower_only": ((-3.0, 9.0, -60.0, -0.5), 4.0),
    "upper_from_axis": ((-1.0, 8.0, 0.0, 20.0), 4.0),
    # 0 lies 1e-6 inside every edge: certification moves each edge
    # _CLEARANCE off the double root before the walk counts it
    "micro_origin": ((-1e-6, 1e-6, -1e-6, 1e-6), 4e6),
}


@pytest.mark.parametrize("name", sorted(ORACLE_REGIONS))
def test_census_matches_seed_grid_oracle(name):
    bounds, density = ORACLE_REGIONS[name]
    reg = Region(*bounds)
    rs = find_roots(CharEq(), reg)
    oracle = _seed_grid_census(CharEq(), reg, density)
    assert oracle
    _assert_census_matches_oracle(rs, oracle)


def test_census_matches_oracle_with_an_edge_across_the_ladder():
    # x = 7 runs between ladder roots at Re 7.06 ... 9.16; the oracle is
    # the (cached) wide census cut to the region
    reg = Region(-10.0, 7.0, -100.0, 100.0)
    bounds, density = ORACLE_REGIONS["wide"]
    wide = _seed_grid_census(CharEq(), Region(*bounds), density)
    _assert_census_matches_oracle(find_roots(CharEq(), reg),
                                  [r for r in wide if reg.contains(r[0])])


def test_census_matches_oracle_taller_than_800():
    # both vertical edges cross the ladder (branches 24 ... 64); on so
    # tall a contour 64 walk steps per edge would each turn e^z by ~13
    # rad.  The root at 10.98 + 241.81i lies midway between two doubles
    # in Im (mpmath: 1.42e-14 from each), and the two routes round it
    # to different ones, so this region is compared to one ulp.
    reg = Region(10.0, 12.0, -420.0, 420.0)
    rs = find_roots(CharEq(), reg)
    assert len(rs.roots) == 80
    _assert_census_matches_oracle(
        rs, _seed_grid_census(CharEq(), reg, 4.0), ulps=1)


def test_branch_on_its_neighbours_root_raises(monkeypatch):
    # a branch that converges onto branch 3's root leaves its band
    third = rootsmod._upper_branches(CharEq(), {3})[3].value
    monkeypatch.setattr(rootsmod, "_newton_step", lambda eq, z: third)
    with pytest.raises(RuntimeError, match="band"):
        find_roots(CharEq(), Region(-3.0, 9.0, 10.0, 16.0))


def test_high_branch_roots_are_correctly_rounded():
    # at |z| ~ 16,400 a correctly rounded root leaves a residual of up
    # to ~eps |z| = 3.6e-12, past RESIDUAL_TARGET; the census accepts
    # 4 eps |z|, and each root lies within that of the 200-bit root
    mpmath = pytest.importorskip("mpmath")
    rs = find_roots(CharEq(), Region(19.0, 21.0, 16400.0, 16500.0))
    assert len(rs.roots) == 16
    assert max(r.residual for r in rs.roots) > rootsmod.RESIDUAL_TARGET
    eps = np.finfo(float).eps
    with mpmath.workprec(200):
        for r in rs.roots:
            z = mpmath.mpc(r.value.real, r.value.imag)
            w = mpmath.findroot(lambda u: mpmath.exp(u) - u * u - u - 1, z)
            assert abs(w - z) < 4 * eps * abs(r.value)


def test_branch_failures_name_the_count_and_the_first_five(monkeypatch):
    # Newton steps that walk one unit off every root
    monkeypatch.setattr(rootsmod, "_newton_step", lambda eq, z: z + 1.0)
    with pytest.raises(RuntimeError, match=r"^16 branches \(1, 2, 3, 4, 5, "
                       r"\.\.\.\) found no root in their band$"):
        find_roots(CharEq(), Region(-10.0, 10.0, -100.0, 100.0))


def test_array_polish_matches_the_scalar_oracle():
    # _upper_branches takes every branch's steps on libm scalars; here
    # numpy arrays take the fixed-point and three plain Newton steps for
    # all branches at once, with numpy's own log, exp, expm1 and complex
    # multiply and divide, which differ from libm's and Python's in some
    # last bits, and _oracle_polish polishes one root at a time from
    # CharEq's residual.  On these branches some polish steps are kept
    # (the first at 435), and the arithmetic must not move a root
    eq, two_pi = CharEq(), 2.0 * math.pi
    k = np.arange(1, 3001, dtype=float)
    y = two_pi * k + 2.2
    z = np.log(y * y + 2.0) + 1j * y
    with np.errstate(all="ignore"):
        for _ in range(40):
            z = np.log(z * z + z + 1.0) + 1j * two_pi * k
        for _ in range(3):
            x = np.maximum(z.real, 0.0)
            damp = np.exp(-x)
            z = z - (z * z + z - np.expm1(z)) * damp / (
                (2.0 * z + 1.0) * damp - np.exp(z - x))
    want = [_oracle_polish(eq, w, eq.residual(w))[:2] for w in z.tolist()]
    got = rootsmod._upper_branches(eq, range(1, 3001))
    assert [(got[n].value, got[n].residual) for n in range(1, 3001)] == want
    assert sum(w != complex(v) for (w, _), v in zip(want, z)) >= 10


def test_census_matches_oracle_on_criterion_2_rectangles(wide_rootset):
    # the five sub-rectangles criterion 2 draws, drawn the same way
    rng = np.random.default_rng(20260814)
    done = 0
    while done < 5:
        x0, y0 = rng.uniform(-9.0, 7.0), rng.uniform(-90.0, 70.0)
        reg = Region(x0, x0 + rng.uniform(1.5, 3.0),
                     y0, y0 + rng.uniform(8.0, 20.0))
        edge = min(
            min(abs(z.real - reg.x0), abs(z.real - reg.x1),
                abs(z.imag - reg.y0), abs(z.imag - reg.y1))
            for z in (r.value for r in wide_rootset.roots))
        if edge < 0.05:
            continue
        done += 1
        _assert_census_matches_oracle(
            find_roots(CharEq(), reg),
            _seed_grid_census(CharEq(), reg))


def _frozen_branch_newton(eq, z, iters=60):
    # per-branch reference: 60 plain Newton steps from the branch seed
    for _ in range(iters):
        with np.errstate(all="ignore"):
            f = complex(eq.scaled_value(z))
            x = max(z.real, 0.0)
            fp = (2.0 * z + 1.0) * math.exp(-x) - complex(np.exp(z - x))
        assert math.isfinite(fp.real) and math.isfinite(fp.imag) and fp != 0
        z = z - f / fp
    assert float(eq.residual(z)) < 1e-12
    return z


def test_spectrum_bit_identical_to_branch_newton():
    eq = CharEq()
    want = []
    for n in range(1, 11):
        y = 2.0 * math.pi * n + 2.2
        seed = complex(math.log(y * y + 2.0), y)
        want.append(_frozen_branch_newton(eq, seed))
    assert spectrum(0.0).roots == tuple(want)


# --- certification ----------------------------------------------------

@pytest.mark.parametrize("drop", [0, 1, -2])
def test_census_missing_a_root_raises(monkeypatch, drop):
    full = rootsmod._census

    def lossy(eq, ks):
        census = full(eq, ks)
        census.remove(next(e for e in census if e[0] == drop))
        return census

    monkeypatch.setattr(rootsmod, "_census", lossy)
    with pytest.raises(RuntimeError, match="argument principle counts"):
        find_roots(CharEq(), Region(-10.0, 10.0, -30.0, 30.0))


@pytest.mark.parametrize("bounds", [(0.0, 3.0, -1.0, 1.0),
                                    (-1.0, 3.0, 0.0, 1.0),
                                    (0.0, 3.0, -1.0, 1.5),
                                    (0.0, 3.0, 0.0, 3.0),
                                    (-1.0, dominant_real_root(), -1.0, 0.0)])
def test_roots_on_the_edge_belong_to_the_region(bounds):
    # the winding walk cannot count a zero on its contour; certification
    # grows the contour off the roots instead, far enough for the walk
    # (0,3,0,3 lengthens both edges at the corner through 0).  The last
    # right edge is the root as the census reports it: the true root lies
    # 7.6e-18 past LAMBDA_STAR, so an edge there leaves it outside
    rs = find_roots(CharEq(), Region(*bounds))
    assert [(r.value, r.multiplicity) for r in rs.roots] == \
        [(0j, 2), (complex(dominant_real_root()), 1)]
    assert rs.seeds_total >= rs.seeds_converged == 1


@pytest.mark.parametrize("k", [30, 1000, 15000, 100000, 1000000])
def test_edges_through_a_high_ladder_root_belong_to_the_region(k):
    # certification moves such an edge max(1e-9, 2^-45 |z|) off the
    # root, where the proof must still pass: its rounding allowance is
    # damped as the rescaled f is (e^Re z ~ |z|^2 there), and its floor,
    # 2^-48 (1 + |z|), stays under that clearance at every |z|: 1e-9
    # alone falls under it past |z| ~ 1e5 (branch 100,000, |z| ~ 6.3e5)
    z = rootsmod._upper_branches(CharEq(), {k})[k].value
    for bounds in [(-1.0, z.real, z.imag - 5.0, z.imag + 5.0),
                   (z.real - 1.0, z.real + 1.0, z.imag, z.imag + 3.0)]:
        assert [r.value for r in find_roots(CharEq(),
                                            Region(*bounds)).roots] == [z]


@pytest.mark.parametrize("bounds", [(0.0, 3.0, -1.0, 1.5),
                                    (-1e-3, 3.0, -1.0, 1.5),
                                    (1e-3, 3.0, -1.0, 1.5),
                                    (-3.0, 3.0, -1.0, 0.0),
                                    (-1e-6, 1e-6, -1e-6, 1e-6)])
def test_winding_walk_refuses_the_origin_near_its_contour(bounds):
    # with 0 on or beside an edge no sample need land on it, and the
    # walk read 2 for 0,3,-1,1.5 and -1e-3,3,-1,1.5, which hold 3
    with pytest.raises(ValueError, match="double root at 0"):
        argument_principle_count(CharEq(), Region(*bounds))


def test_winding_walk_counts_the_origin_just_past_its_clearance():
    # 0 lies 2.5/256 (2.3 _CLEARANCE) off the left edge: the walk halves
    # the segments beside the double root until each is proven, and
    # counts it with the rest root
    reg = Region(-2.5 / 64 / 4, 3.0, -1.0, 1.5)
    assert argument_principle_count(CharEq(), reg) == 3


def _segment_proven(za, zb, fa):
    # the winding walk's segment rule: the bound on |f'|, damped as the
    # rescaled f is at za, and the rounding allowances at both ends keep
    # f off 0 along [za, zb]
    def allowance(z):
        return rootsmod._ROUNDING * (
            (1.0 + abs(z)) ** 2 * math.exp(-max(z.real, 0.0)) + 1.0)

    xa = max(za.real, 0.0)
    bound = (max(abs(2.0 * za + 1.0), abs(2.0 * zb + 1.0)) * math.exp(-xa)
             + math.exp(max(za.real, zb.real) - xa))
    return bound * abs(zb - za) + allowance(za) + allowance(zb) < abs(fa)


def _stack_walk_count(eq, region):
    # the winding walk one segment at a time, popped off a stack, with
    # the package's budget, origin clearance, floor and segment rule
    corners = [complex(region.x0, region.y0), complex(region.x1, region.y0),
               complex(region.x1, region.y1), complex(region.x0, region.y1),
               complex(region.x0, region.y0)]
    total = 0.0
    budget = rootsmod._WALK_BUDGET
    for a, b in zip(corners[:-1], corners[1:]):
        n = rootsmod._edge_steps(abs(b - a))
        near = complex(min(max(0.0, min(a.real, b.real)), max(a.real, b.real)),
                       min(max(0.0, min(a.imag, b.imag)), max(a.imag, b.imag)))
        if abs(near) < rootsmod._CLEARANCE:
            raise ValueError("double root at 0 near the contour")
        pts = (a + (b - a) * np.linspace(0.0, 1.0, n + 1)).tolist()
        pts[-1] = b
        vals = [eq.scaled_value(p) for p in pts]
        stack = [(pts[i], pts[i + 1], vals[i], vals[i + 1]) for i in range(n)]
        while stack:
            budget -= 1
            if budget <= 0:
                raise RuntimeError("argument-principle walk did not converge")
            za, zb, fa, fb = stack.pop()
            if _segment_proven(za, zb, fa):
                total += np.angle(fb / fa)
            elif abs(zb - za) < rootsmod._FLOOR * (1.0 + abs(za)):
                raise ValueError("characteristic zero too close to the contour")
            else:
                zm = 0.5 * (za + zb)
                fm = eq.scaled_value(zm)
                stack.append((za, zm, fa, fm))
                stack.append((zm, zb, fm, fb))
    winding = total / (2.0 * math.pi)
    count = int(round(winding))
    if abs(winding - count) > 0.05:
        raise RuntimeError(f"non-integer winding {winding!r}")
    return count


_FIX = 200   # bits after the binary point of _scaled_f_exact's values


def _scaled_f_exact(a, b, m=256):
    # e^(-max(Re a, 0)) f at a + (b - a) k / m, k = 0 .. m, within
    # ~1e-50: the exponentials from mpmath at 60 digits, z^2 + z + 1 and
    # the products in binary fixed point (ints scaled by 2^_FIX), as
    # (re, im) pairs of those ints
    import mpmath
    one = 1 << _FIX

    def fix(v):
        return int(mpmath.mpf(v) * one)

    with mpmath.workdps(60):
        x = max(a.real, 0.0)
        damp = fix(mpmath.exp(-x))
        e = mpmath.exp(mpmath.mpc(a) - x)
        w = mpmath.exp((mpmath.mpc(b) - mpmath.mpc(a)) / m)
        er, ei, wr, wi = fix(e.real), fix(e.imag), fix(w.real), fix(w.imag)
    zr, zi = fix(a.real), fix(a.imag)
    dr, di = (fix(b.real) - zr) // m, (fix(b.imag) - zi) // m
    out = []
    for k in range(m + 1):
        pr, pi = zr + k * dr, zi + k * di
        qr = ((pr * pr - pi * pi) >> _FIX) + pr + one
        qi = ((2 * pr * pi) >> _FIX) + pi
        out.append((((qr * damp) >> _FIX) - er, ((qi * damp) >> _FIX) - ei))
        er, ei = (er * wr - ei * wi) >> _FIX, (er * wi + ei * wr) >> _FIX
    return out


def _proven_segments(rng, per_kind):
    # per_kind segments of each kind that the walk's rule accepts: along
    # an axis, 1e-6 to 0.5 long, from random points, from points 1e-3
    # to 1 off a census root, across Re z = 0, and at Re z in [690, 760]
    eq = CharEq()
    roots = [r.value for r in
             find_roots(eq, Region(-10.0, 10.0, -100.0, 100.0)).roots]
    starts = {
        "random": lambda: complex(rng.uniform(-5.0, 20.0),
                                  rng.uniform(-300.0, 300.0)),
        "root": lambda: roots[rng.integers(len(roots))] + cmath.rect(
            10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(0.0, 2.0 * math.pi)),
        "axis": lambda: complex(0.0, rng.uniform(-50.0, 50.0)),
        "far": lambda: complex(rng.uniform(690.0, 760.0),
                               rng.uniform(-300.0, 300.0)),
    }
    segments = []
    for kind, start in starts.items():
        kept = 0
        for _ in range(50 * per_kind):
            a = start()
            h = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
            if kind == "axis":
                a -= h * rng.uniform(0.0, 1.0)
            step = 1.0 if kind == "axis" else (1.0, -1.0, 1j, -1j)[
                rng.integers(4)]
            b = a + h * step
            if _segment_proven(a, b, eq.scaled_value(a)):
                segments.append((a, b))
                kept += 1
                if kept == per_kind:
                    break
        assert kept == per_kind, kind
    return segments


def test_segment_rule_is_proven_by_exact_values():
    # the rule's premise, checked by an independent route: on every
    # segment it accepts, the exact f at 257 points stays in the disc
    # |f(z) - f(a)| < |f(a)|, which misses 0, and the phase turn summed
    # over those points' steps is the walk's principal angle
    pytest.importorskip("mpmath")
    eq = CharEq()
    segments = _proven_segments(np.random.default_rng(20261020), 500)
    assert len(segments) == 2000
    for a, b in segments:
        vals = _scaled_f_exact(a, b)
        ar, ai = vals[0]
        for vr, vi in vals[1:]:
            assert (vr - ar) ** 2 + (vi - ai) ** 2 < ar * ar + ai * ai
        turn = sum(math.atan2(float(ur * vi - ui * vr),
                              float(ur * vr + ui * vi))
                   for (ur, ui), (vr, vi) in zip(vals, vals[1:]))
        assert abs(turn - cmath.phase(eq.scaled_value(b)
                                      / eq.scaled_value(a))) < 1e-9


def _walk_outcome(walk, bounds):
    try:
        return walk(CharEq(), Region(*bounds))
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def test_level_walk_matches_the_stack_walk():
    # the wide and two tall regions, edges through the real root and
    # beside the origin, and 200 random ones
    rng = np.random.default_rng(20261019)
    lam = dominant_real_root()
    regions = [(-10.0, 10.0, -100.0, 100.0), (-10.0, 10.0, -30.0, 30.0),
               (10.0, 12.0, -420.0, 420.0), (lam, 3.0, -1.0, 1.0),
               (-1.0, lam, -1.0, 1.0), (0.0, 3.0, -1.0, 1.5),
               (-2.5 / 64 / 4, 3.0, -1.0, 1.5), (-1e-6, 1e-6, -1e-6, 1e-6)]
    for _ in range(200):
        x0, y0 = rng.uniform(-5.0, 12.0), rng.uniform(-300.0, 300.0)
        regions.append((x0, x0 + rng.uniform(0.01, 10.0),
                        y0, y0 + rng.exponential(30.0)))
    outcomes = [_walk_outcome(argument_principle_count, bounds)
                for bounds in regions]
    assert outcomes == [_walk_outcome(_stack_walk_count, bounds)
                        for bounds in regions]
    assert outcomes[:8] == [33, 11, 80] + [ValueError] * 3 + [3, ValueError]
    assert len(set(outcomes[8:])) >= 8


@pytest.mark.parametrize("bounds, calls", [
    ((-10.0, 10.0, -100.0, 100.0), 934), ((-1.0, 3.0, -1.0, 1.0), 260)],
    ids=["wide", "rest"])
def test_winding_walk_evaluations(monkeypatch, bounds, calls):
    # a deterministic cost gate: the values of f the walk takes, as
    # measured; a walk that halves its segments otherwise takes more
    taken = [0]
    scaled = CharEq.scaled_value

    def counted(self, z):
        taken[0] += 1
        return scaled(self, z)

    monkeypatch.setattr(CharEq, "scaled_value", counted)
    argument_principle_count(CharEq(), Region(*bounds))
    assert 0 < taken[0] <= calls


def test_winding_walk_stops_at_its_budget(monkeypatch):
    # 2 * (64 + 100,002) first steps, past the budget of 200,000
    # segments.  The last edge's first level is refused before its
    # points are evaluated: the walk takes 100,139 values of f where it
    # took 200,138 when each edge evaluated first and counted after.
    # The proof halves the right edge's six first steps over Im z in
    # [-1, 2], where |f(3 + iy)| is least; the 0.8 rad rule halved two
    # of them (100,135 values)
    taken = [0]
    scaled = CharEq.scaled_value

    def counted(self, z):
        taken[0] += 1
        return scaled(self, z)

    monkeypatch.setattr(CharEq, "scaled_value", counted)
    with pytest.raises(RuntimeError, match="walk did not converge"):
        argument_principle_count(CharEq(), Region(-1.0, 3.0, -1.0, 5e4))
    assert 0 < taken[0] <= 100139


def _counting(monkeypatch):
    taken = [0]
    scaled = CharEq.scaled_value

    def counted(self, z):
        taken[0] += 1
        return scaled(self, z)

    monkeypatch.setattr(CharEq, "scaled_value", counted)
    return taken


@pytest.mark.parametrize("bounds, calls", [
    ((0.0, 3.0, -1.0, 1.0), 1631), ((-1.0, 3.0, 0.0, 1.0), 1371),
    ((0.0, 3.0, -1.0, 1.5), 1553), ((0.0, 3.0, 0.0, 3.0), 2593),
    ((-1.0, dominant_real_root(), -1.0, 0.0), 2259),
    ((-1e-6, 1e-6, -1e-6, 1e-6), 7933)])
def test_census_evaluations_beside_the_origin(monkeypatch, bounds, calls):
    # the walk's work, as measured: the proof walks the contour that
    # certification keeps _CLEARANCE max(side, 1) off 0 in segments that
    # shrink as the square of their distance from 0, at ~1/distance
    # values of f an edge.  A rule that proves more or fewer segments
    # takes another count.  The 0.8 rad rule took 261 to 298 here
    taken = _counting(monkeypatch)
    find_roots(CharEq(), Region(*bounds))
    assert taken[0] == calls


@pytest.mark.parametrize("bounds, calls", [
    ((0.0, 3.0, -1.0, 1.5), 195), ((-3.0, 3.0, -1.0, 0.0), 130),
    ((-1e-6, 1e-6, -1e-6, 1e-6), 0),
    ((dominant_real_root(), 3.0, -1.0, 1.0), 1200),
    ((-1.0, dominant_real_root(), -1.0, 1.0), 1070)])
def test_winding_walk_refusal_evaluations(monkeypatch, bounds, calls):
    # a refusal's work, as measured: an edge within _CLEARANCE of 0 is
    # refused before its points are evaluated.  An edge through the
    # real root halves the segments about it down to the floor, 2^-48
    # (1 + |z|) long; the 0.8 rad rule's 1e-12 guard stopped it at 260
    # and 130 values
    taken = _counting(monkeypatch)
    with pytest.raises(ValueError, match="double root at 0|too close"):
        argument_principle_count(CharEq(), Region(*bounds))
    assert taken[0] == calls


def test_census_counts_branches():
    rs = find_roots(CharEq(), Region(-10.0, 10.0, -100.0, 100.0))
    assert (rs.seeds_total, rs.seeds_converged) == (33, 31)
    assert rs.total_multiplicity() == 33
