"""Command-line front end.

One dispatcher, six subcommands: roots, render, simulate,
series-verify, potential, report.  Machine outputs are CSV with a
header row, JSON lines, or binary PPM; every float is printed at 17
significant digits so identical invocations produce byte-identical
files.  A CSV streams in row blocks, each computed (the simulate
residual audit included), formatted and written in one pass, with each
distinct value of an array column formatted once per block; a PPM
streams in slabs of image rows, each rendered and written in one pass.
On a failure the blocks before the failing one are written.  Exit
codes: 0 success, 1 a computation failed or a check did not pass, 2 bad
usage.

A constants file (flat `key = value`, see model.CONFIG_KEYS) can be
supplied with --constants or the ZITTERLAB_CONSTANTS variable; it is
validated on every run and handed to every subcommand, but only
`potential --si` reads it.  The report always uses the built-in
constants so its golden output is stable.

The characteristic roots are the same for every drift (see roots), so
`roots --beta` is validated and otherwise ignored, as `roots --grid` is.

Each subcommand imports the layers it runs when it runs, and nothing
else: `series-verify` loads only the series engine and `potential` only
the potential layer; `roots` and `render` load only the roots layer,
and `simulate` never the roots layer, because lambda* and the closed
forms live in model.  `series-verify`, `potential`, `roots` and
`report --only branch_ladder` run without numpy; `render`, `simulate`
and the other report checks load it.  Unless the environment sets
OPENBLAS_NUM_THREADS, numpy's OpenBLAS runs one thread: the CLI's only
BLAS calls are small least-squares fits, which a thread pool does not
speed up, and a pool's threads spend CPU of their own.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

from .model import (
    ConstantsError,
    KinematicState,
    PhysicalConstants,
    _fmt,
    _json_line,
    dominant_real_root,
    lorentz_gamma,
    parse_constants_file,
)


def _finite_arg(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _beta_arg(text: str) -> float:
    v = _finite_arg(text)
    if not abs(v) < 1.0:
        raise argparse.ArgumentTypeError(f"|beta| must be < 1, got {v}")
    return v


# Caps on the sizes argv asks for, refused before anything is computed:
# the render image (3 bytes a pixel), the Duffing samples (each one
# computed and formatted in Python floats) and the potential series
# terms (exact Fractions).
_MAX_SIDE = 2 ** 16
_MAX_PIXELS = 2 ** 26
_MAX_SAMPLES = 2 ** 24
_MAX_TERMS = 10_000


def _count_arg(cap: int):
    """The argparse type of a count from 0 to cap."""
    def count(text: str) -> int:
        try:
            v = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from exc
        if not 0 <= v <= cap:
            raise argparse.ArgumentTypeError(
                f"must be from 0 to {cap:,}, got {text!r}")
        return v
    return count


def _positive_arg(text: str) -> float:
    v = _finite_arg(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return v


def _region_arg(text: str):
    from .roots import Region
    try:
        return Region.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _size_arg(text: str) -> tuple[int, int]:
    try:
        w, h = (int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"size must look like 800x600, got {text!r}") from exc
    if w < 1 or h < 1:
        raise argparse.ArgumentTypeError(f"degenerate size {text!r}")
    if max(w, h) > _MAX_SIDE or w * h > _MAX_PIXELS:
        raise argparse.ArgumentTypeError(
            f"size {text!r} is past {_MAX_SIDE:,} a side or "
            f"{_MAX_PIXELS:,} pixels")
    return w, h


def _pair_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a,b — got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if not a < b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if not math.isfinite(b - a):
        raise argparse.ArgumentTypeError(
            f"range must have finite ends and width, got {text!r}")
    return a, b


def _open_out(path: str, binary: bool = False):
    """The file at path for writing, or stdout when path is '-'."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout.buffer if binary else
                                      sys.stdout)
    return (open(path, "wb") if binary else
            open(path, "w", encoding="utf-8", newline=""))


def _write_text(path: str, text: str) -> None:
    with _open_out(path) as fh:
        fh.write(text)


# Rows per block of _write_csv at most: each block is computed,
# formatted and written in one pass, so no full-length column or
# whole-file text is held.  Fewer would spread the light-cone solve's
# numpy calls over fewer times.
_CSV_BLOCK = 16384


def _write_csv(path: str, header: str, n: int, columns,
               non_finite: str) -> None:
    """Write a CSV to path ('-' = stdout): the header row, then n rows,
    columns(k) giving the float columns of the rows in the slice k, as
    arrays or lists of floats.  Every value prints as _fmt's
    format(v, ".17g") would, and non-finite ones as non_finite.  In each
    block, an array column whose values repeat has each distinct value
    formatted once (_shared_text); the others are formatted per value."""
    width = header.count(",") + 1
    count = -(-n // _CSV_BLOCK)
    size = -(-n // count) if count else 0   # the last block maybe shorter

    def text(j: int) -> str:   # a block's temporaries go as it returns
        cols = columns(slice(j * size, (j + 1) * size))
        values = [0.0] * (width * len(cols[0]))
        spec = ["%.17g"] * width
        for i, col in enumerate(cols):   # in the order the rows print them
            if hasattr(col, "tolist"):
                spec[i], col = _shared_text(col)
            values[i::width] = col
        text = ((",".join(spec) + "\n") * len(cols[0])) % tuple(values)
        # "%.17g" spells a finite value with no letter but "e", so every
        # "inf" and "nan" in the text is a non-finite value.  An "i"
        # marks an infinity: one memchr, where a search for "inf" takes
        # about 40 times as long
        if "i" in text:
            text = text.replace("-inf", "nan").replace("inf", "nan")
        return text.replace("nan", non_finite)

    with _open_out(path) as fh:
        fh.write(header + "\n")
        for j in range(count):
            fh.write(text(j))


def _shared_text(col) -> tuple[str, list]:
    """The row-template field and the values of the float array col.
    Where a bit pattern repeats, it is formatted once with "%.17g" and
    placed by np.unique's inverse, as text for "%s"; keyed on bits, -0.0
    keeps its "-0" apart from 0.0, and each NaN prints "nan" as it would
    alone.  A column with no repeat is handed over as floats for "%.17g",
    since there is nothing to share; one that strictly increases (the t
    column, a uniform run's x) is known to have none without the sort."""
    import numpy as np   # loaded already: col is an array
    if col.size > 1 and (col[1:] > col[:-1]).all():
        return "%.17g", col.tolist()
    bits, place = np.unique(col.view(np.int64), return_inverse=True)
    if bits.size == col.size:
        return "%.17g", col.tolist()
    # one "%" over the distinct values, as the block's own is
    text = ("\n".join(["%.17g"] * bits.size)
            % tuple(bits.view(np.float64).tolist())).split("\n")
    return "%s", np.array(text, dtype=object)[place].tolist()


def _load_constants(path: str | None) -> PhysicalConstants:
    if path is None:
        path = os.environ.get("ZITTERLAB_CONSTANTS")
    if path is None:
        return PhysicalConstants()
    return parse_constants_file(path)


# --- subcommand handlers ----------------------------------------------

def cmd_roots(args, _constants) -> int:
    from .roots import CharEq, find_roots
    roots = find_roots(CharEq(), args.region).roots
    _write_csv(args.out, "re,im,residual", len(roots), lambda k: [
        [r.value.real for r in roots[k]], [r.value.imag for r in roots[k]],
        [r.residual for r in roots[k]]], "null")
    return 0


def cmd_render(args, _constants) -> int:
    from .roots import ppm_header, render_slabs
    # a bad size or region fails here, before the output exists
    slabs = render_slabs(args.region, args.size)
    with _open_out(args.out, binary=True) as fh:
        fh.write(ppm_header(args.size))
        for pixels in slabs:
            fh.write(pixels)
    return 0


def cmd_series_verify(args, _constants) -> int:
    from .series import verify_identities
    all_ok = True
    for check_id, ok, detail in verify_identities():
        print(f"{'PASS' if ok else 'FAIL'} {check_id} {detail}")
        all_ok &= ok
    return 0 if all_ok else 1


def _build_seed(args):
    from .trajectory import SeedHistory
    if args.seed == "rest_kick":
        if args.beta != 0.0:
            raise ValueError("rest_kick does not take a drift; "
                             "use uniform_kick or mode_kick")
        return SeedHistory.rest_kick(args.amp)
    if args.seed == "uniform":
        return SeedHistory.uniform_motion(args.beta)
    if args.seed == "uniform_kick":
        return SeedHistory.uniform_kick(args.beta, args.amp)
    return SeedHistory.mode_kick(args.beta, args.amp)


def _residuals(traj, k):
    """residual_eom_many at samples k where the light cone fits, else nan."""
    import numpy as np
    from .dynamics import residual_eom_many
    ts = traj.t[k]
    res = np.full(ts.size, np.nan)
    x0 = float(traj.position(traj.t0))
    reach = (ts - traj.t0) - np.sqrt((traj.x[k] - x0) ** 2 + 1.0)
    ok = (ts - 1.0 >= traj.t0) & (reach > 1e-6)
    if np.any(ok):
        res[ok] = residual_eom_many(traj, ts[ok])
    return res


def _write_trajectory_csv(path: str, traj) -> None:
    _write_csv(path, "t,x,beta,beta_dot,residual", traj.t.size, lambda k: [
        traj.t[k], traj.x[k], traj.beta[k], traj.beta_dot[k],
        _residuals(traj, k)], "nan")


def _simulate_report(args, traj, drift: float) -> tuple[str, str | None]:
    """The --report records, and why the growth-rate run failed (None
    when it did not); a failed rate run leaves the other records."""
    import numpy as np
    from .dynamics import oscillation_peaks, perturbed_uniform_run
    gamma = lorentz_gamma(drift)
    target = dominant_real_root() / gamma
    kick = args.amp if args.seed != "uniform" else 1e-6
    try:
        rate, failed = perturbed_uniform_run(drift, kick).rate, None
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        rate, failed = None, f"{type(exc).__name__}: {exc}"

    fwd = traj.t >= 0.0
    b = traj.beta[fwd] - drift
    peak = float(np.max(np.abs(b))) if b.size else 0.0
    reached = float(traj.t[-1])
    aborted = traj.metadata.get("aborted")
    state = (f"aborted by {aborted} at t = {_fmt(reached)}"
             if aborted else f"completed to t = {_fmt(reached)}")

    def rec(name, value, target_, detail):
        return _json_line({"record": name, "value": value,
                           "target": target_, "detail": detail})

    lines = [
        rec("growth_rate", rate, target,
            "log-envelope rate of a small kick on this drift, measured on "
            "the exact march; target is the dominant root over gamma"
            + (f" [error: {failed}]" if failed else "")),
        rec("saturation_amplitude", peak, None,
            f"peak |beta - drift| over the forward run; run {state}"),
    ]
    peaks, why_none = oscillation_peaks(traj, drift)
    for p in peaks:
        lines.append(rec("peak_frequency", p.frequency, None,
                         "Hann-window spectral peak, cycles per time unit"))
    if not peaks:
        lines.append(rec("peak_frequency", None, None, why_none))
    return "\n".join(lines) + "\n", failed


# cmd_simulate calls the marches through these two module attributes, so
# a caller can rebind them; perfbench's probe does, to time the march.
def propagate_exact(*args, **kwargs):
    from . import dynamics
    return dynamics.propagate_exact(*args, **kwargs)


def propagate_filtered(*args, **kwargs):
    from . import dynamics
    return dynamics.propagate_filtered(*args, **kwargs)


def cmd_simulate(args, _constants) -> int:
    seed = _build_seed(args)
    drift = seed.beta
    if args.integrator == "exact":
        traj = propagate_exact(seed, args.tend, args.dt)
    else:
        traj = propagate_filtered(seed, args.tend, args.dt,
                                  sigma=args.sigma,
                                  kernel_span=args.kernel_span,
                                  partial=True)
    failed = None
    if args.report:
        text, failed = _simulate_report(args, traj, drift)
        _write_text("-" if args.out is None else args.out, text)
    else:
        _write_trajectory_csv("traj.csv" if args.out is None else args.out,
                              traj)
    aborted = traj.metadata.get("aborted")
    notes = [f"simulate stopped early at t = {traj.metadata['t_reached']:g} "
             f"({aborted}): {traj.metadata['abort_reason']}"
             ] if aborted else []
    if failed:
        notes.append(f"the growth-rate run failed: {failed}")
    if notes:
        print("zitterlab: " + "; ".join(notes), file=sys.stderr)
        return 1
    return 0


def _linspace_at(a: float, b: float, n: int):
    """The function i -> np.linspace(a, b, n)[i], bit for bit, without
    numpy: i * step + a, the last sample b, and linspace's branches for
    a step that underflows to 0 and for n <= 1 taken as it takes them."""
    div = n - 1
    delta = b - a
    step = delta / div if div > 0 else math.nan

    def x(i: int) -> float:
        if div <= 0:
            return i * delta + a
        if i == div:
            return b
        if step == 0:
            return i / div * delta + a
        return i * step + a
    return x


def cmd_potential(args, constants) -> int:
    from . import potential as potmod
    if args.duffing:
        # a power past the float range is an inf, printed as null
        x = _linspace_at(*args.range, args.samples)

        def columns(k):
            xs = [x(i) for i in range(*k.indices(args.samples))]
            return [xs, [potmod.duffing_potential(v) for v in xs],
                    [potmod.duffing_force(v) for v in xs]]
        _write_csv(args.out, "x,Qc,force", args.samples, columns, "null")
        return 0

    state = KinematicState(beta=args.beta, beta_dot=args.betadot)
    p = potmod.sample(state)
    scale = potmod.energy_scale_joules(constants) if args.si else 1.0
    unit = "J" if args.si else "m_e c^2"
    sums = (potmod.self_potential_partial_sums(state, args.series)
            if args.series else [])
    line = _json_line({"U": p.U * scale, "Q": p.Q * scale, "gamma": p.gamma,
                       "y": p.y, "unit": unit,
                       "partial_sums": [s * scale for s in sums]})
    _write_text(args.out, line + "\n")
    return 0


def _print_timing(check_id: str, seconds: float) -> None:
    print(f"zitterlab: timing {check_id} {seconds:.6f}", file=sys.stderr)


def cmd_report(args, _constants) -> int:
    from .report import render_report, run_report
    records = run_report(args.only,
                         on_timing=_print_timing if args.timings else None)
    if not records:
        print(f"zitterlab: no check matches --only {args.only!r}",
              file=sys.stderr)
        return 2
    _write_text(args.out, render_report(records))
    return 0 if all(r["pass"] for r in records) else 1


# --- parser -----------------------------------------------------------

# Rectangle and range values legitimately start with a minus sign
# (--region -1,3,-1,1), which stock argparse reads as a flag.  Widening
# the negative-number matcher on the subparser makes it a value again.
_NEGATIVE_TUPLE = re.compile(r"^-\d+$|^-\d*\.\d+$|^-[\d.eE+-]+(,[\d.eE+-]+)+$")


def _allow_negative_tuples(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = _NEGATIVE_TUPLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zitterlab",
        description="Delay-equation stability, exact series, and "
                    "self-potential tools for the dumbbell charge model.")
    parser.add_argument("--constants", metavar="PATH",
                        help="flat key = value constants file "
                             "(default: $ZITTERLAB_CONSTANTS or built-ins)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root census of the characteristic "
                                     "function over a rectangle")
    p.add_argument("--beta", type=_beta_arg, default=0.0,
                   help="accepted and ignored (the roots are the same "
                        "for every drift)")
    p.add_argument("--region", type=_region_arg, default="-1,3,-1,1",
                   help="x0,x1,y0,y1 rectangle in the complex plane")
    p.add_argument("--grid", type=_positive_arg,
                   help="accepted and ignored (the census has no seed "
                        "grid)")
    p.add_argument("--out", default="-", help="CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_roots)
    _allow_negative_tuples(p)

    p = sub.add_parser("render", help="domain-coloring phase portrait "
                                      "as binary PPM")
    p.add_argument("--region", type=_region_arg, default="-1,3,-15,15")
    p.add_argument("--size", type=_size_arg, default="640x480",
                   help="image size WxH")
    p.add_argument("--out", required=True,
                   help="PPM output path ('-' = stdout)")
    p.set_defaults(func=cmd_render)
    _allow_negative_tuples(p)

    p = sub.add_parser("simulate", help="march the delay equation of "
                                        "motion from a seeded history")
    p.add_argument("--seed", default="rest_kick",
                   choices=("rest_kick", "uniform", "uniform_kick",
                            "mode_kick"))
    p.add_argument("--beta", type=_beta_arg, default=0.0,
                   help="drift speed for the drift-based seeds")
    p.add_argument("--amp", type=_positive_arg, default=1e-6,
                   help="kick amplitude (peak |beta_dot|)")
    p.add_argument("--tend", type=_positive_arg, default=100.0)
    p.add_argument("--dt", type=_positive_arg, default=1e-3)
    p.add_argument("--integrator", default="filtered",
                   choices=("filtered", "exact"),
                   help="filtered = band-limited long-horizon instrument; "
                        "exact = reference march (short horizons only)")
    p.add_argument("--sigma", type=_positive_arg, default=0.45,
                   help="filter width of the filtered march")
    p.add_argument("--kernel-span", type=_positive_arg, default=0.90,
                   dest="kernel_span",
                   help="filter support half-length (must stay inside "
                        "the minimum delay)")
    p.add_argument("--out",
                   help="output path ('-' = stdout); default traj.csv, "
                        "or stdout with --report")
    p.add_argument("--report", action="store_true",
                   help="emit JSON-line summary records instead of the "
                        "trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("series-verify", help="print PASS/FAIL lines for "
                                             "the exact series identities")
    p.set_defaults(func=cmd_series_verify)

    p = sub.add_parser("potential", help="self-potential decomposition at "
                                         "a state, or the Duffing profile")
    p.add_argument("--beta", type=_beta_arg, default=0.0)
    p.add_argument("--betadot", type=_finite_arg, default=0.0)
    p.add_argument("--series", type=_count_arg(_MAX_TERMS), default=0,
                   metavar="N",
                   help="also emit the first N series partial sums")
    # the Duffing profile is in rest-energy units only
    form = p.add_mutually_exclusive_group()
    form.add_argument("--si", action="store_true",
                      help="energies in joules instead of rest-energy units")
    form.add_argument("--duffing", action="store_true",
                      help="emit the conservative double-well profile as "
                           "CSV")
    p.add_argument("--range", type=_pair_arg, default="-1.5,1.5",
                   help="x range a,b for --duffing")
    p.add_argument("--samples", type=_count_arg(_MAX_SAMPLES), default=301,
                   help="sample count for --duffing")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=cmd_potential)
    _allow_negative_tuples(p)

    p = sub.add_parser("report", help="run every reproduction check and "
                                      "emit one JSON line per check")
    p.add_argument("--only", default=None, metavar="SUBSTR",
                   help="run only checks whose id contains SUBSTR")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--timings", action="store_true",
                   help="write each check's wall time in seconds to stderr")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the exit status.

    Sets OPENBLAS_NUM_THREADS to 1 in os.environ unless it is set
    already, so for the rest of the process and for its children; it
    takes effect only if numpy is not yet imported.
    """
    # before any numpy import; a value the caller set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        constants = _load_constants(args.constants)
    except (ConstantsError, OSError) as exc:
        print(f"zitterlab: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, constants)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"zitterlab: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, MemoryError) as exc:
        print(f"zitterlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
