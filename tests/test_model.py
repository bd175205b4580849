import copy
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from zitterlab.model import (
    ConstantsError,
    KinematicState,
    PhysicalConstants,
    _fmt,
    _json_line,
    classical_radius,
    effective_radius,
    electron_size,
    lorentz_gamma,
    parse_constants_file,
    zitter_period,
)


# SI oracles: the model's length and time units, d and d/c, and the maps
# of a state in and out of SI built on them.

@dataclass(frozen=True)
class ModelScales:
    d: float
    time_unit: float

    @classmethod
    def from_constants(cls, constants=PhysicalConstants(), d_override=None):
        d = float(d_override) if d_override is not None else electron_size(constants)
        if not (d > 0 and math.isfinite(d)):
            raise ConstantsError(f"model scale d must be finite and positive, got {d!r}")
        return cls(d=d, time_unit=d / constants.c)


def state_to_si(state, scales):
    c = scales.d / scales.time_unit
    return {"t": state.t * scales.time_unit, "x": state.x * scales.d,
            "v": state.beta * c, "a": state.beta_dot * c * c / scales.d}


def state_from_si(t, x, v, a, scales):
    c = scales.d / scales.time_unit
    return KinematicState(t=t / scales.time_unit, x=x / scales.d,
                          beta=v / c, beta_dot=a * scales.d / (c * c))


def test_default_constants_are_codata():
    c = PhysicalConstants()
    assert c.c == 299792458.0
    assert c.hbar == 1.054571817e-34
    assert c.alpha == 7.2973525693e-3
    assert c.m_electron == 9.1093837015e-31


def test_inconsistent_alpha_rejected():
    with pytest.raises(ConstantsError):
        PhysicalConstants(alpha=8.0e-3)


def test_size_ladder():
    # d, d/2, and the classical radius sit in exact ratio 1 : 1/2 : 4.
    d = electron_size()
    assert effective_radius() == pytest.approx(d / 2, rel=1e-15)
    assert classical_radius() == pytest.approx(8 * effective_radius(),
                                               rel=1e-14)
    assert effective_radius() == pytest.approx(3.52e-16, rel=5e-3)
    assert classical_radius() == pytest.approx(2.818e-15, rel=5e-4)


def test_trembling_periods():
    assert zitter_period(classical_radius()) == pytest.approx(1.18e-22,
                                                              rel=1e-2)
    # the model-radius period is 8x faster; both are legitimate readings
    assert zitter_period(effective_radius()) == pytest.approx(
        zitter_period(classical_radius()) / 8, rel=1e-14)


def test_lorentz_gamma():
    assert lorentz_gamma(0.0) == 1.0
    assert lorentz_gamma(0.6) == pytest.approx(1.25, rel=1e-15)
    assert lorentz_gamma(-0.6) == lorentz_gamma(0.6)


def test_lorentz_gamma_arrays():
    betas = np.array([0.0, 0.6, -0.3, 0.999])
    assert lorentz_gamma(betas).tolist() == [lorentz_gamma(float(b))
                                             for b in betas]
    with pytest.raises(ValueError, match="max"):
        lorentz_gamma(np.array([0.5, -1.0]))


def test_kinematic_state_validation():
    s = KinematicState(beta=0.6)
    assert s.gamma == pytest.approx(1.25, rel=1e-15)
    with pytest.raises(ValueError):
        KinematicState(beta=1.0)
    with pytest.raises(ValueError):
        KinematicState(beta=-1.2)


def test_si_roundtrip():
    scales = ModelScales.from_constants()
    s = KinematicState(t=2.0, x=0.3, beta=0.5, beta_dot=0.1)
    si = state_to_si(s, scales)
    back = state_from_si(si["t"], si["x"], si["v"], si["a"], scales)
    assert back.t == pytest.approx(s.t, rel=1e-12)
    assert back.x == pytest.approx(s.x, rel=1e-12)
    assert back.beta == pytest.approx(s.beta, rel=1e-12)
    assert back.beta_dot == pytest.approx(s.beta_dot, rel=1e-12)
    assert si["v"] == pytest.approx(0.5 * 299792458.0, rel=1e-12)


def test_scales_with_override():
    scales = ModelScales.from_constants(d_override=1.0e-15)
    assert scales.d == 1.0e-15
    assert scales.time_unit == pytest.approx(1.0e-15 / 299792458.0,
                                             rel=1e-12)


def _write(tmp_path, text):
    p = tmp_path / "const.cfg"
    p.write_text(text)
    return str(p)


def test_parse_constants_file(tmp_path):
    path = _write(tmp_path, """
# comment line
c = 299792458
hbar = 1.054571817e-34
""")
    constants = parse_constants_file(path)
    assert constants.c == 299792458.0


def test_parse_constants_file_rejects_unknown_key(tmp_path):
    with pytest.raises(ConstantsError, match="unknown key"):
        parse_constants_file(_write(tmp_path, "nonsense = 1\n"))


def test_parse_constants_file_rejects_duplicate(tmp_path):
    with pytest.raises(ConstantsError, match="duplicate"):
        parse_constants_file(_write(tmp_path, "c = 1\nc = 2\n"))


def test_parse_constants_file_rejects_bad_number(tmp_path):
    with pytest.raises(ConstantsError):
        parse_constants_file(_write(tmp_path, "c = fast\n"))


def test_parse_constants_file_rejects_bad_line(tmp_path):
    with pytest.raises(ConstantsError):
        parse_constants_file(_write(tmp_path, "just words\n"))


def test_sommerfeld_guard_spans_overrides(tmp_path):
    # shifting c alone breaks the alpha consistency relation
    with pytest.raises(ConstantsError):
        parse_constants_file(_write(tmp_path, "c = 3.1e8\n"))


def test_zitter_period_formula():
    c = PhysicalConstants()
    r = 2.0e-15
    assert zitter_period(r, c) == pytest.approx(4 * math.pi * r / c.c,
                                                rel=1e-15)


@pytest.mark.parametrize("r", [0.0, -1e-15, math.nan])
def test_zitter_period_needs_a_positive_radius(r):
    with pytest.raises(ValueError, match="radius must be positive"):
        zitter_period(r)


@pytest.mark.parametrize("value, token", [
    (np.int64(-7), "-7"), (np.uint8(200), "200"), (np.float32(0.5), "0.5"),
    (np.float64(0.1), "0.10000000000000001"), (np.float64("inf"), "null"),
    (np.float16("nan"), "null")])
def test_fmt_numpy_scalars(value, token):
    assert _fmt(value) == token


def test_json_line_and_lists():
    assert _fmt([]) == "[]"
    assert _fmt([0.1, None, np.float64(2.0)]) == \
        "[0.10000000000000001, null, 2]"
    assert _json_line({"a": "x", "pass": True, "s": [1.5]}) == \
        '{"a": "x", "pass": true, "s": [1.5]}'


# The records' contract: each is an immutable value built positionally
# or by keyword, with defaults, compared and hashed by its fields and
# shown by a repr that error messages embed.

def _records():
    from zitterlab.dynamics import GrowthRate, SpectralPeak
    from zitterlab.geometry import RetardedGeometry
    from zitterlab.potential import PotentialSample
    from zitterlab.roots import CharEq, Region, Root, RootSet, Spectrum
    from zitterlab.series import KinPoly, SelfForceExpansion, TruncatedSeries
    from zitterlab.trajectory import SeedHistory, SuperluminalError, Trajectory

    region = Region(-1.0, 1.0, -2.0, 2.0)
    coeffs = (KinPoly(), KinPoly.const(1), KinPoly.beta())
    series = TruncatedSeries(coeffs, 2, "d", 1, 2)
    s_text = "<series (1)*d^1 + (1*beta)*d^2 + O(d^3)>"
    knots = (np.array([0.0, 1.0]), np.array([0.0, 0.25]),
             np.array([0.25, 0.25]), np.zeros(2))
    # (class, fields, positional args, defaults of the trailing fields,
    #  repr, hashable, [(args, exception, message)])
    return [
        (PhysicalConstants, ("c", "hbar", "alpha", "eps0", "m_electron"),
         (299792458.0, 1.054571817e-34, 0.0072973525693, 8.8541878128e-12,
          9.1093837015e-31),
         (299792458.0, 1.054571817e-34, 0.0072973525693, 8.8541878128e-12,
          9.1093837015e-31),
         "PhysicalConstants(c=299792458.0, hbar=1.054571817e-34, "
         "alpha=0.0072973525693, eps0=8.8541878128e-12, "
         "m_electron=9.1093837015e-31)", True,
         [((-1,), ConstantsError,
           "constant 'c' must be finite and positive, got -1"),
          ((299792458.0, 2e-34), ConstantsError,
           "constants violate hbar*alpha*c = e^2/(4 pi eps0) beyond 0.001 "
           "relative: 4.375383e-28 vs 2.307078e-28")]),
        (KinematicState, ("t", "x", "beta", "beta_dot"), (0.5, 1.0, 0.3, 0.2),
         (0.0, 0.0, 0.0, 0.0),
         "KinematicState(t=0.5, x=1.0, beta=0.3, beta_dot=0.2)", True,
         [((0.0, 0.0, 1.0), ValueError,
           "superluminal state: |beta| = 1.0 >= 1")]),
        (CharEq, (), (), (), "CharEq()", True, []),
        (Region, ("x0", "x1", "y0", "y1"), (-1.0, 1.0, -2.0, 2.0), (),
         "Region(x0=-1.0, x1=1.0, y0=-2.0, y1=2.0)", True,
         [((1, 0, 0, 1), ValueError,
           "degenerate region Region(x0=1, x1=0, y0=0, y1=1)"),
          ((-1e308, 1e308, 0, 1), ValueError,
           "region Region(x0=-1e+308, x1=1e+308, y0=0, y1=1) needs finite "
           "edges and sides")]),
        (Root, ("value", "residual", "multiplicity"), (1 + 2j, 1e-16, 2),
         (1,), "Root(value=(1+2j), residual=1e-16, multiplicity=2)", True,
         []),
        (RootSet, ("region", "roots", "seeds_total", "seeds_converged"),
         (region, (Root(1 + 2j, 1e-16),), 3, 2), (),
         "RootSet(region=Region(x0=-1.0, x1=1.0, y0=-2.0, y1=2.0), "
         "roots=(Root(value=(1+2j), residual=1e-16, multiplicity=1),), "
         "seeds_total=3, seeds_converged=2)", True, []),
        (Spectrum, ("etas", "roots", "slope", "intercept", "r_squared"),
         ((7.5, 13.9), (2 + 7.5j, 2.6 + 13.9j), 6.4, 1.1, 0.999), (),
         "Spectrum(etas=(7.5, 13.9), roots=((2+7.5j), (2.6+13.9j)), "
         "slope=6.4, intercept=1.1, r_squared=0.999)", True, []),
        (PotentialSample, ("U", "Q", "gamma", "y"), (1.1, -0.05, 1.15, 0.01),
         (), "PotentialSample(U=1.1, Q=-0.05, gamma=1.15, y=0.01)", True,
         [((-1.0, 0, 1, 0), ValueError, "U must be positive, got -1.0"),
          ((1.0, 0.5, 1, 0), ValueError, "Q must be <= 0, got 0.5"),
          ((1.0, 0, 1, -1.0), ValueError, "y must be >= 0, got -1.0")]),
        (TruncatedSeries, ("coeffs", "order", "tag", "beta_order",
                           "kin_order"),
         (coeffs, 2, "d", 1, 2), (None, None), s_text, False, []),
        (SelfForceExpansion, ("series",), (series,), (),
         f"SelfForceExpansion(series={s_text})", False, []),
        (Trajectory, ("t", "x", "beta", "beta_dot", "metadata"),
         knots + ({"run": 1},), ({},),
         "Trajectory(t=array([0., 1.]), x=array([0.  , 0.25]), "
         "beta=array([0.25, 0.25]), beta_dot=array([0., 0.]), "
         "metadata={'run': 1})", False,
         [(([0.0], [0.0], [0.0], [0.0]), ValueError,
           "a trajectory needs at least two knots"),
          (([0.0, 1.0], [0.0], [0.0, 0.0], [0.0, 0.0]), ValueError,
           "knot array x has wrong shape"),
          (([0.0, 1.0], [0.0, np.nan], [0.0, 0.0], [0.0, 0.0]), ValueError,
           "non-finite values in knot array x"),
          (([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]), ValueError,
           "knot times must be strictly increasing"),
          (([0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]),
           SuperluminalError, "|beta| >= 1 at a trajectory knot")]),
        (SeedHistory, ("kind", "amplitude", "beta", "rate"),
         ("mode_kick", 1e-6, 0.3, 1.7), (0.0, 0.0),
         "SeedHistory(kind='mode_kick', amplitude=1e-06, beta=0.3, "
         "rate=1.7)", True,
         [(("rest_kick", 1e-6, 1.0), SuperluminalError,
           "seed drift beta = 1.0")]),
        (GrowthRate, ("rate", "stderr", "n_points", "mode"),
         (1.79, 1e-3, 10, "direct"), (),
         "GrowthRate(rate=1.79, stderr=0.001, n_points=10, mode='direct')",
         True, []),
        (SpectralPeak, ("frequency", "power"), (0.5, 2.0), (),
         "SpectralPeak(frequency=0.5, power=2.0)", True, []),
        (RetardedGeometry, ("r", "l", "t_r"), (1.25, 0.75, -1.25), (),
         "RetardedGeometry(r=1.25, l=0.75, t_r=-1.25)", True,
         [((0.5, 0, 0), ValueError, "delay distance r = 0.5 below d"),
          ((2.0, 0.0, 0.0), ValueError, "r^2 = l^2 + 1 violated")]),
    ]


@pytest.mark.parametrize("case", _records(),
                         ids=lambda case: case[0].__name__)
def test_record_contract(case):
    cls, names, args, defaults, text, hashable, errors = case
    rec = cls(*args)
    assert repr(rec) == text
    for twin in (copy.copy(rec), copy.deepcopy(rec),
                 pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and repr(twin) == text
    assert repr(cls(**dict(zip(names, args)))) == text
    for name, arg in zip(names, args):
        assert getattr(rec, name) is arg or getattr(rec, name) == arg
    required = len(names) - len(defaults)
    short = cls(*args[:required])
    for name, default in zip(names[required:], defaults):
        assert getattr(short, name) == default
    if cls.__name__ == "Trajectory":
        # fields are arrays, so == is elementwise and left out; the
        # metadata default is a fresh dict per trajectory
        assert short.metadata is not cls(*args[:required]).metadata
    else:
        twin = cls(*args)
        assert rec == twin and not rec != twin
        assert (rec == short) == (tuple(args[required:]) == defaults)
        assert rec != args and rec != object()
    if hashable:
        assert hash(rec) == hash(cls(*args))
    else:
        with pytest.raises(TypeError):
            hash(rec)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    for bad, exc, message in errors:
        with pytest.raises(exc) as info:
            cls(*bad)
        assert str(info.value) == message
