"""The benchmark's four workloads.

Each workload turns a seed into a fixed pool of requests, runs a request
through swingcert's public API (``run``), checks the outputs (``check``),
and reduces them to an answer that goes into the run's digest
(``answer``).  ``replay`` re-runs a request with spans around every public
call and returns the same answer, so a traced run can be compared with an
untraced one.  A request holds one or more items: a certificate verdict,
a classified trajectory, or a cross-validated initial state.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

import swingcert as sc
from swingcert import certificate, simulator

from spans import CountingRhs

# Acceptance-05 cross-check setting and its bound on the angle deviation.
XCHECK_T_END = 10.0
XCHECK_REL_TOL = 1e-9
XCHECK_ABS_TOL = 1e-11
XCHECK_BOUND_RAD = 1e-4

# Acceptance-04a pole-slip orbit of the doubled-resistor variant.
SLIP_PERIOD_S = 0.16
SLIP_PERIOD_TOL_S = 0.02

# basin_sample's default classification tolerance.
CONVERGENCE_TOL = 1e-3

# The library's disclosed relative-margin threshold for a certified verdict.
REL_MARGIN_THRESHOLD = 1e-3

NSCR_CHECK_POINTS = 3


class Context:
    """Per-run state built during set-up from the workload's config."""

    def __init__(self, spec, params, seed):
        self.spec = spec
        self.params = params
        self.seed = seed
        self.box = simulator.default_basin_box(params)


def size_design(spec):
    """Machine parameters for a nominal spec, as ``swingcert design`` sizes them."""
    params = sc.size_parameters(spec)
    if spec.n > 1.0:
        params = sc.apply_virtual_inductor(params, spec.n)
    return params


def paper_spec(spec, n: float):
    """The paper's 500 kW design at the config's ratings, with factor n."""
    return sc.NominalSpec(P_n=spec.P_n, V=spec.V, omega_g=spec.omega_g, d_p=3.0,
                          H_seconds=2.0, L_drop_pct=4.0, R_drop_pct=0.5, n=n)


def digest(answers) -> str:
    return hashlib.sha256(repr(list(answers)).encode()).hexdigest()[:16]


class Stats:
    """Per-layer counts gathered by the traced replays."""

    def __init__(self):
        self.grid_points = []
        self.band_ok = []
        self.certified = []
        self.nfev = []
        self.samples = []
        self.useful_horizon = []
        self.verdicts = []
        self.xcheck_nfev = []
        self.deviations = []


# certify-sweep ---------------------------------------------------------------

class CertifySweep:
    """Sweeps of seeded NominalSpec draws, each sized and certified at the CLI grid.

    A request certifies ``SWEEP`` designs one after another, as ``swingcert
    sweep`` does, so an item's latency is averaged over a sweep of a few
    seconds: a single check is short enough that its median would follow
    the host's sub-second speed changes rather than the program.  Each sweep spans
    the range of the virtual-inductor factor n, which decides whether the
    band fallback runs, so sweeps cost about the same.
    """

    config = "500kw_n30.json"
    SWEEP = 80

    def __init__(self, ctx: Context, tiny: bool):
        rng = np.random.default_rng([ctx.seed, 0])
        specs = [("paper-n1", paper_spec(ctx.spec, 1.0)),
                 ("paper-n30", paper_spec(ctx.spec, 30.0))]
        for i in range(2 if tiny else 158):
            spec = sc.NominalSpec(**{
                **ctx.spec.to_dict(),
                "d_p": rng.uniform(1.0, 6.0),
                "H_seconds": rng.uniform(1.0, 10.0),
                "L_drop_pct": rng.uniform(2.0, 6.0),
                "R_drop_pct": rng.uniform(0.2, 1.0),
                "n": math.exp(rng.uniform(0.0, math.log(100.0))),
            })
            specs.append((f"draw-{i}", spec))
        # Grid points at which each report is compared with the public nscr.
        designs = [
            (label, spec, rng.integers(0, certificate.DEFAULT_GRID_POINTS, NSCR_CHECK_POINTS))
            for label, spec in specs
        ]
        designs.sort(key=lambda design: design[1].n)
        sweeps = -(-len(designs) // self.SWEEP)
        self.pool = [tuple(designs[j::sweeps]) for j in range(sweeps)]

    @staticmethod
    def probe_request(ctx):
        # Certified design: every grid point takes the closed-form path.
        spec = paper_spec(ctx.spec, 30.0)
        return (("probe", spec, np.array([0, certificate.DEFAULT_GRID_POINTS - 1])),)

    @staticmethod
    def items(request) -> int:
        return len(request)

    @staticmethod
    def run(ctx, request):
        outs = []
        for _, spec, _ in request:
            params = size_design(spec)
            report = sc.check_certificate(params)
            outs.append((params, report, sc.certificate_csv(report)))
        return outs

    @classmethod
    def check(cls, ctx, request, outs) -> int:
        return sum(0 if cls.design_ok(design, out) else 1 for design, out in zip(request, outs))

    @staticmethod
    def design_ok(design, out) -> bool:
        label, _, points = design
        params, report, csv_text = out
        dc = sc.derive_constants(params)
        d, v = report.d_grid, report.nscr_values
        ok = bool(
            (label != "paper-n1" or not report.certified)
            and (label != "paper-n30" or report.certified)
            and all(math.isclose(sc.nscr(dc, float(d[i])), v[i], rel_tol=1e-9,
                                 abs_tol=1e-12 * dc.Gamma) for i in points)
            and math.isclose(report.margin, float(np.min(d - v)), rel_tol=1e-9,
                             abs_tol=1e-12 * dc.Gamma)
            and csv_text.count("\n") == len(d) + 1
        )
        holds = bool(np.all(report.band_ok) and np.all(v < d) and report.hyperbolicity_ok)
        if report.certified:
            return ok and holds and report.margin > 0.0
        return ok and not (holds and report.rel_margin >= REL_MARGIN_THRESHOLD)

    @staticmethod
    def answer(request, outs):
        return tuple((design[0], out[1].verdict) for design, out in zip(request, outs))

    @classmethod
    def replay(cls, ctx, request, tracer, stats, item):
        outs = []
        for k, (_, spec, _) in enumerate(request):
            with tracer.span("bench.item", f"{item}:{k}"):
                with tracer.span("design.size"):
                    params = size_design(spec)
                with tracer.span("certificate.check"):
                    report = sc.check_certificate(params)
                with tracer.span("certificate.csv"):
                    csv_text = sc.certificate_csv(report)
                # Replay of the per-point path check_certificate takes inside.
                with tracer.span("core.derive_constants"):
                    dc = sc.derive_constants(params)
                with tracer.span("certificate.velocity_band") as s:
                    bands = [sc.velocity_band(dc, float(d)) for d in report.d_grid]
                    s["count"] = len(bands)
                ok_bands = [b for b in bands if b.band_ok]
                if ok_bands:
                    with tracer.span("certificate.p_bounds") as s:
                        for b in ok_bands:
                            certificate.p_bounds_for_band(dc.p * dc.rho, b.omega_min_d,
                                                          b.omega_max_d)
                        s["count"] = len(ok_bands)
            stats.grid_points.append(len(report.d_grid))
            stats.band_ok.append(float(np.mean(report.band_ok)))
            stats.certified.append(report.certified)
            outs.append((params, report, csv_text))
        return cls.answer(request, outs), cls.check(ctx, request, outs)


# basin-sync / basin-slip -----------------------------------------------------

class Basin:
    """Requests of ``SLICES`` basin_sample calls with ``BATCH`` states each.

    The default box is cut into equal slices along the initial rotor
    speed, the coordinate that decides pole slip, and every request makes
    one call per slice.  Together the calls cover the box uniformly, as
    basin_sample's own draws do, but the share of slipping orbits, and
    with it the work in a request and in a pass, varies far less between
    requests and seeds.
    """

    SLICES = 8
    BATCH = 5

    def __init__(self, ctx: Context, tiny: bool):
        slices, batch, requests = (2, 1, 1) if tiny else (self.SLICES, self.BATCH, self.REQUESTS)
        lo, hi = ctx.box[2]
        step = (hi - lo) / slices
        boxes = [(ctx.box[0], ctx.box[1], (lo + k * step, lo + (k + 1) * step), ctx.box[3])
                 for k in range(slices)]
        # Call seeds of different run seeds never overlap.
        self.pool = [
            tuple(((ctx.seed * requests + j) * slices + k, batch, box)
                  for k, box in enumerate(boxes))
            for j in range(requests)
        ]

    @staticmethod
    def probe_request(ctx):
        return ((ctx.seed, 1, ctx.box),)

    @staticmethod
    def items(request) -> int:
        return sum(n for _, n, _ in request)

    @staticmethod
    def run(ctx, request):
        return [sc.basin_sample(ctx.params, n=n, box=box, seed=seed)
                for seed, n, box in request]

    @classmethod
    def check(cls, ctx, request, results) -> int:
        return sum(cls.call_failed(n, stats) for (_, n, _), stats in zip(request, results))

    @staticmethod
    def answer(request, results):
        return tuple((s.converged_stable, s.converged_unstable, s.periodic, s.undecided)
                     for s in results)

    @classmethod
    def replay(cls, ctx, request, tracer, stats, item):
        """sample_initial_state -> integrate -> detect_convergence, as basin_sample runs it."""
        answers = []
        failed = 0
        for k, (seed, n, box) in enumerate(request):
            tally, bad = cls.replay_call(ctx, seed, n, box, tracer, stats, f"{item}:{k}")
            answers.append(tally)
            failed += bad
        return tuple(answers), failed

    @classmethod
    def replay_call(cls, ctx, seed, n, box, tracer, stats, item):
        params = ctx.params
        with tracer.span("equilibria.solve", item):
            equilibria = sc.solve_equilibria(params)
        t_end = simulator.default_horizon(params, equilibria)
        config = sc.IntegratorConfig(
            rel_tol=1e-6, abs_tol=1e-8, t_end=t_end,
            n_samples=int(min(20000, max(2000, 2000.0 * t_end))) + 1,
        )
        tally = Counter()
        failed = 0
        for i in range(n):
            with tracer.span("bench.item", f"{item}:{i}"):
                initial = simulator.sample_initial_state(box, seed, i)
                rhs = CountingRhs(sc.full_rhs(params))
                with tracer.span("simulator.integrate"):
                    traj = sc.integrate(rhs, initial.as_array(), config)
                with tracer.span("simulator.classify"):
                    verdict = sc.detect_convergence(traj, equilibria, tol=CONVERGENCE_TOL,
                                                    params=params)
            key = verdict.kind
            if isinstance(verdict, sc.ConvergedToEquilibrium):
                stable = verdict.equilibrium.classification is sc.Stability.STABLE
                key = "converged_stable" if stable else "converged_unstable"
                stats.useful_horizon.append(
                    settle_time(traj, verdict.equilibrium, equilibria) / t_end)
                stats.verdicts.append((key, verdict.equilibrium.branch, verdict.sheet))
            else:
                stats.verdicts.append((key, None, None))
            tally[key] += 1
            failed += 0 if cls.item_ok(verdict, key) else 1
            stats.nfev.append(rhs.calls)
            stats.samples.append(len(traj.times))
        return (tally["converged_stable"], tally["converged_unstable"],
                tally["periodic"], tally["undecided"]), failed


def settle_time(traj, point, equilibria) -> float:
    """First time after which the state stays in the classifier's window.

    The window is detect_convergence's: each component within
    CONVERGENCE_TOL of the equilibrium, scaled by the largest equilibrium
    current and rotor speed, with delta compared modulo 2*pi.
    """
    cur = max([1.0] + [max(abs(p.state.i_d), abs(p.state.i_q)) for p in equilibria])
    omega = max([1.0] + [abs(p.state.omega) for p in equilibria])
    scales = np.array([cur, cur, omega, 1.0])
    target = point.state.as_array()
    err = np.abs(traj.states - target) / scales
    err[:, 3] = np.abs(sc.wrap_angle(traj.states[:, 3] - target[3]))
    outside = np.nonzero(err.max(axis=1) >= CONVERGENCE_TOL)[0]
    return float(traj.times[outside[-1] + 1]) if len(outside) else 0.0


class BasinSync(Basin):
    """Certified n=30 design: every sample converges to the stable point."""

    config = "500kw_n30.json"
    REQUESTS = 3

    @staticmethod
    def call_failed(n, stats) -> int:
        return n - stats.converged_stable

    @staticmethod
    def item_ok(verdict, key) -> bool:
        return key == "converged_stable"


class BasinSlip(Basin):
    """Doubled-resistor n=1 design: converged samples and pole-slip orbits."""

    config = "500kw_n1_r1pct.json"
    REQUESTS = 2

    @staticmethod
    def call_failed(n, stats) -> int:
        return stats.undecided

    @staticmethod
    def item_ok(verdict, key) -> bool:
        if isinstance(verdict, sc.PeriodicOrbit):
            return (abs(verdict.period - SLIP_PERIOD_S) <= SLIP_PERIOD_TOL_S
                    and verdict.omega_below_grid is True)
        return key != "undecided"


# cross-check -----------------------------------------------------------------

class CrossCheck:
    """cross_validate of seeded box states at the acceptance-05 tolerances."""

    config = "500kw_n30.json"

    def __init__(self, ctx: Context, tiny: bool):
        self.pool = [simulator.sample_initial_state(ctx.box, ctx.seed, i)
                     for i in range(2 if tiny else 60)]

    @staticmethod
    def probe_request(ctx):
        return simulator.sample_initial_state(ctx.box, ctx.seed, 0)

    @staticmethod
    def items(request) -> int:
        return 1

    @staticmethod
    def run(ctx, request):
        return sc.cross_validate(ctx.params, request, t_end=XCHECK_T_END,
                                 rel_tol=XCHECK_REL_TOL, abs_tol=XCHECK_ABS_TOL)

    @staticmethod
    def check(ctx, request, deviation) -> int:
        return 0 if deviation < XCHECK_BOUND_RAD else 1

    @staticmethod
    def answer(request, deviation):
        return deviation < XCHECK_BOUND_RAD

    @classmethod
    def replay(cls, ctx, request, tracer, stats, item):
        with tracer.span("bench.item", item):
            with tracer.span("simulator.cross_validate"):
                deviation = cls.run(ctx, request)
            # Same stacked system and settings as cross_validate, counted.
            rhs, y0 = simulator.combined_full_ese_rhs(ctx.params, request)
            counted = CountingRhs(rhs)
            config = sc.IntegratorConfig(rel_tol=XCHECK_REL_TOL, abs_tol=XCHECK_ABS_TOL,
                                         t_end=XCHECK_T_END, n_samples=2001)
            with tracer.span("simulator.xcheck_integrate"):
                sc.integrate(counted, y0, config)
        stats.xcheck_nfev.append(counted.calls)
        stats.deviations.append(deviation)
        return cls.answer(request, deviation), cls.check(ctx, request, deviation)


WORKLOADS = {
    "certify-sweep": CertifySweep,
    "basin-sync": BasinSync,
    "basin-slip": BasinSlip,
    "cross-check": CrossCheck,
}

# Spans that only the traced replay makes; they are left out of the
# traced throughput so that the tracing overhead counts bookkeeping only.
REPLAY_ONLY_SPANS = (
    "core.derive_constants", "certificate.velocity_band", "certificate.p_bounds",
    "simulator.xcheck_integrate",
)
