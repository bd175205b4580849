"""In-process probes, run by run.py in fresh child processes.

    python3 probe.py cli RESULT.json [--spans SPANS.jsonl] -- ARGS...
    python3 probe.py layers RESULT.json

`cli` imports zitterlab.cli, times the import and `cli.main(ARGS)`,
and exits with main's exit code, so stdout, stderr and the exit code
are exactly the CLI's.  It also times the one `propagate_*` call a
`simulate` makes, so run.py can split march from emission.  With
--spans it first wraps every public function and method of each layer
module and writes one span per call, [id, parent, layer, name, start,
end], when main returns.

`layers` times each layer's public functions on fixed inputs, one
call each unless a rate needs more, and writes the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import math
import sys
import time
import types

LAYERS = ("series", "roots", "geometry", "trajectory", "dynamics",
          "potential", "report", "cli")


def install_tracer(spans: list) -> None:
    """Wrap the layer modules' public functions and methods in spans.

    A module-level function is rebound in every zitterlab module that
    imported it by name, so `from .dynamics import propagate_exact`
    call sites are traced too.  Dataclass __post_init__ counts as
    public: it is where a Trajectory builds its splines.
    """
    mods = {layer: importlib.import_module(f"zitterlab.{layer}")
            for layer in LAYERS}
    package = [m for n, m in sys.modules.items()
               if n == "zitterlab" or n.startswith("zitterlab.")]
    stack = [0]
    ids = itertools.count(1)
    clock = time.perf_counter

    def wrap(layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, layer, name, start, clock()))
                stack.pop()
        return traced

    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                traced = wrap(layer, f"{layer}.{attr}", obj)
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, key, traced)
            elif isinstance(obj, type):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_") and meth != "__post_init__":
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    if isinstance(member, types.FunctionType):
                        setattr(obj, meth, wrap(layer, name, member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, meth,
                                type(member)(wrap(layer, name, member.__func__)))


def probe_cli(result_path: str, spans_path: str | None, argv: list[str]) -> int:
    spans: list = []
    t0 = time.perf_counter()
    import zitterlab.cli as cli
    t1 = time.perf_counter()
    if spans_path is not None:
        spans.append((-1, 0, "import", "import zitterlab.cli", t0, t1))
        install_tracer(spans)
    march = [0.0]

    def timed(fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                march[0] += time.perf_counter() - start
        return call

    cli.propagate_exact = timed(cli.propagate_exact)
    cli.propagate_filtered = timed(cli.propagate_filtered)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:        # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_s": t1 - t0, "main_s": main_s,
                   "march_s": march[0]}, fh)
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return rc


# --- layer probes ----------------------------------------------------

def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _states(n: int, seed: int = 20260814):
    """Kinematic states with |beta| <= 0.95 and y up to 10."""
    import numpy as np
    from zitterlab.model import KinematicState
    gen = np.random.default_rng(seed)
    beta = gen.uniform(-0.95, 0.95, n)
    y = np.exp(gen.uniform(math.log(1e-6), math.log(10.0), n))
    sign = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
    gam = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    beta_dot = sign * np.sqrt(y) / gam ** 3
    return [KinematicState(beta=float(b), beta_dot=float(bd))
            for b, bd in zip(beta, beta_dot)]


def layer_metrics() -> dict[str, float]:
    import numpy as np
    from zitterlab import (dynamics, geometry, potential, report, roots,
                           series)
    from zitterlab.model import KinematicState
    from zitterlab.trajectory import SeedHistory

    m: dict[str, float] = {}

    # report first, so its lru caches start cold as in a fresh CLI call
    check_s: dict[str, float] = {}

    def timed_check(check):
        def run():
            out, dt = _timed(check.run)
            check_s[check.check_id] = dt
            return out
        return dataclasses.replace(check, run=run)

    registry = report.REGISTRY
    report.REGISTRY = tuple(timed_check(c) for c in registry)
    try:
        records, m["report.run_s"] = _timed(report.run_report)
    finally:
        report.REGISTRY = registry
    for check in registry:
        m[f"report.check.{check.check_id}_s"] = check_s[check.check_id]
    m["report.checks_passed"] = sum(1 for r in records if r["pass"])

    results, m["series.verify_identities_s"] = _timed(series.verify_identities)
    m["series.identities_passed"] = sum(1 for _, ok, _ in results if ok)
    _, m["series.linear_chain_s"] = _timed(series.linear_chain_coeffs, 8)
    eom, m["series.eom_expansion_o11_s"] = _timed(series.eom_expansion, 11, 0)
    m["series.eom_terms"] = sum(len(c.terms) for c in eom.coeffs)
    _, m["series.self_force_s"] = _timed(series.self_force_series, 6)
    _, m["series.reversion_s"] = _timed(series.r_of_d_series, 5, 1)

    wide = roots.Region(-10.0, 10.0, -100.0, 100.0)
    rs, m["roots.census_wide_s"] = _timed(roots.find_roots, roots.CharEq(),
                                          wide, grid_density=4.0)
    m["roots.seeds"] = rs.seeds_total
    m["roots.seeds_converged"] = rs.seeds_converged
    m["roots.found"] = len(rs.roots)
    m["roots.useful_ratio"] = len(rs.roots) / rs.seeds_total
    _, m["roots.winding_s"] = _timed(roots.argument_principle_count,
                                     roots.CharEq(), wide)
    _, m["roots.spectrum_s"] = _timed(roots.spectrum, 0.0, 10)
    reps = 20
    _, dt = _timed(lambda: [roots.dominant_real_root() for _ in range(reps)])
    m["roots.real_root_s"] = dt / reps
    w, h = 800, 600
    _, dt = _timed(roots.render_domain_coloring, roots.CharEq(),
                   roots.Region(-1.0, 3.0, -15.0, 15.0), (w, h))
    m["roots.render_s_per_mpix"] = dt / (w * h / 1e6)

    exact, dt = _timed(dynamics.propagate_exact,
                       SeedHistory.uniform_motion(0.3), 50.0)
    m["dynamics.exact_knots"] = exact.t.size
    m["dynamics.exact_s_per_10k_knots"] = dt / exact.t.size * 1e4
    filtered, dt = _timed(dynamics.propagate_filtered,
                          SeedHistory.uniform_motion(0.3), 100.0, partial=True)
    m["dynamics.filtered_rows"] = filtered.t.size
    m["dynamics.filtered_s_per_10k_rows"] = dt / filtered.t.size * 1e4
    ts = np.linspace(5.0, 49.0, 10_000)
    _, m["dynamics.residual_s_per_10k"] = _timed(dynamics.residual_eom_many,
                                                 exact, ts)
    _, m["dynamics.growth_rate_s"] = _timed(dynamics.perturbed_uniform_run,
                                            0.0, 1e-6)
    _, m["dynamics.truncated_s"] = _timed(dynamics.integrate_truncated,
                                          KinematicState(beta_dot=1e-8),
                                          5.0, 1e-3)
    kicked = dynamics.propagate_filtered(SeedHistory.rest_kick(1e-6), 100.0,
                                         partial=True)
    m["dynamics.rest_kick_t_reached"] = float(kicked.t[-1])

    _, m["geometry.retarded_many_s_per_10k"] = _timed(
        geometry.solve_retarded_time_many, exact, ts)
    scalar_ts = np.linspace(5.0, 49.0, 50)
    _, dt = _timed(lambda: [geometry.solve_retarded_time(exact, float(t))
                            for t in scalar_ts])
    m["geometry.retarded_scalar_s"] = dt / scalar_ts.size
    states = _states(10_000)

    def closed_forms():
        for s in states:
            geometry.retarded_r_closed(s)
            geometry.retarded_l_closed(s)
            geometry.potential_denominator(s)
            geometry.y_parameter(s)
    _, m["geometry.closed_forms_s_per_10k"] = _timed(closed_forms)

    evals = np.linspace(exact.t0, exact.t1, 250_000)
    _, dt = _timed(lambda: (exact.position(evals), exact.velocity(evals),
                            exact.acceleration(evals)))
    m["trajectory.eval_s_per_1m"] = dt / (3 * evals.size / 1e6)

    _, m["potential.sample_s_per_10k"] = _timed(
        lambda: [potential.sample(s) for s in states])
    xs = np.linspace(-1.5, 1.5, 1000)
    _, m["potential.duffing_s_per_1k"] = _timed(
        lambda: [(potential.duffing_potential(float(x)),
                  potential.duffing_force(float(x))) for x in xs])
    return m


def main(argv: list[str]) -> int:
    mode, result_path, rest = argv[0], argv[1], argv[2:]
    if mode == "layers":
        metrics = layer_metrics()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh)
        return 0
    spans_path = None
    if rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: probe.py cli RESULT [--spans PATH] -- ARGS...")
    return probe_cli(result_path, spans_path, rest[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
