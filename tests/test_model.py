import math
from dataclasses import dataclass

import pytest

from zitterlab.model import (
    ConstantsError,
    KinematicState,
    PhysicalConstants,
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
d_override = 7.0e-16
""")
    constants, d = parse_constants_file(path)
    assert constants.c == 299792458.0
    assert d == 7.0e-16


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
