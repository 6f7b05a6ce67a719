"""symbolic_ladder: dense quadratic Lagrangians from (m,n,k) = (2,2,2) to (3,3,3).

On each rung L carries a seeded coefficient on every product of two jet
coordinates z^a_I with 1 <= |I| <= k (1653 monomials at (3,3,3)), so forms,
expressions and dedonder do the work.  The verify stage contracts large
forms with sparse basis vectors and the Noether stage with dense prolonged
fields, so a contraction kernel tuned for one must not slow the other.

One operation is one rung through its three stages; op_s is one pass over
all five rungs, with the build, verify and Noether stages also summed
separately (ladder.build_s, ladder.verify_s, ladder.noether_s).
"""
from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import harness
from tracing import Tracer, layer_of

RUNGS = ((2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 2, 3), (3, 3, 3))
# Coefficients are drawn below 2**30: with small integers, sums of terms
# cancel by accident on some seeds (the Lagrange derivative at (2,2,2) had
# 34 to 40 monomials over six seeds), and the size counts must not depend
# on the seed.  Positive values keep the non-solution's residual and the
# boost's symmetry defect nonzero.
COEFF_MAX = 2**30 - 1
# sympy's euler_equations takes about 1 s at (2,2,2), 3 s at (3,2,2) and
# (2,2,3), 21 s at (3,2,3) and 70 s at (3,3,3): every run checks (2,2,2)
# and one of the next two, chosen by the seed; the larger rungs would not
# fit the run time.
ORACLE_ALWAYS = (2, 2, 2)
ORACLE_ROTATION = ((3, 2, 2), (2, 2, 3))
SIZES_FILE = harness.BENCH_DIR / "expected_sizes.json"
# One pass takes about 22 s on a 2.1 GHz Xeon vCPU, longer than a run's
# --seconds, so a run times two passes whatever --seconds says.
MIN_PASSES = 2


def label_of(shape) -> str:
    return "-".join(map(str, shape))


def load_api():
    """The jetforms functions the stages call, bound before any tracer
    rebinds module attributes."""
    from jetforms import dedonder, expressions, forms, jets, prolongations

    names = {
        dedonder: ("phi_from_lagrangian", "symmetric_boundary_coefficients",
                   "assemble_boundary_form", "dedonder_form", "lagrange_derivative",
                   "perturbed_coefficients", "verify_condition3", "dedonder_residual",
                   "compare_boundary_forms", "double_vertical_contraction_vanishes"),
        forms: ("is_semibasic", "holonomic_reduce", "holonomic_pullback",
                "interior_product", "basis_vector", "DifferentialForm"),
        expressions: ("Expr", "PolynomialSection", "total_derivative",
                      "substitute_section", "x_var"),
        jets: ("JetConfig", "jet_coord", "multiindices", "splittings",
               "enumerate_coordinates"),
        prolongations: ("ProjectableField", "prolong", "is_symmetry", "noether_current"),
    }
    return SimpleNamespace(**{
        name: getattr(module, name) for module, group in names.items() for name in group
    })


@dataclass
class Rung:
    label: str
    cfg: object
    lagrangian: object
    delta: dict  # top-level skew perturbation for the alternative boundary form
    solution: object
    non_solution: object
    fields: tuple  # (translation, boost)


def make_rung(api, shape, rng) -> Rung:
    cfg = api.JetConfig(*shape)
    Expr = api.Expr
    coords = [api.jet_coord(a, I) for a in range(1, cfg.n + 1)
              for level in range(1, cfg.k + 1) for I in api.multiindices(cfg.m, level)]
    terms = {}
    for u, cu in enumerate(coords):
        for cv in coords[u:]:
            powers = {cu: 2} if cu == cv else {cu: 1, cv: 1}
            terms.update(Expr.monomial(powers, rng.randint(1, COEFF_MAX)).terms())
    lagrangian = Expr(terms)
    # +q and -q on two splittings of each top-level index: the splitting sums
    # stay zero, which is the homogeneous top-level relation
    delta = {}
    for a in range(1, cfg.n + 1):
        for I in api.multiindices(cfg.m, cfg.k):
            parts = api.splittings(I)
            if len(parts) < 2:
                continue
            q = Expr.variable(api.jet_coord(rng.randint(1, cfg.n), (rng.randint(1, cfg.m),)))
            q = q * rng.randint(1, 9)
            (i1, t1), (i2, t2) = parts[0], parts[1]
            delta[(a, i1, t1)] = delta.get((a, i1, t1), Expr.zero()) + q
            delta[(a, i2, t2)] = delta.get((a, i2, t2), Expr.zero()) - q
    x = [api.x_var(i) for i in range(1, cfg.m + 1)]

    def affine():
        out = Expr.constant(rng.randint(-9, 9))
        for xi in x:
            out = out + xi * rng.randint(-9, 9)
        return out

    # L has no y and no explicit x, so every affine section is critical; a
    # positive x1^2 term makes every level-one term of dL/dy^a the same sign
    solution = api.PolynomialSection(cfg, [affine() for _ in range(cfg.n)])
    non_solution = api.PolynomialSection(
        cfg, [affine() + x[0] * x[0] * rng.randint(1, 9) for _ in range(cfg.n)])
    zero = Expr.zero()
    vertical = tuple(zero for _ in range(cfg.n))
    translation = api.ProjectableField(
        cfg, tuple(Expr.one() if i == 0 else zero for i in range(cfg.m)), vertical)
    boost = api.ProjectableField(
        cfg, (x[1], x[0]) + tuple(zero for _ in range(cfg.m - 2)), vertical)
    return Rung(label_of(shape), cfg, lagrangian, delta, solution, non_solution,
                (translation, boost))


def make_rungs(api, seed: int, shapes=RUNGS) -> list:
    return [make_rung(api, shape, random.Random(seed * len(RUNGS) + index))
            for index, shape in enumerate(shapes)]


def untraced(fn, *args):
    return fn(*args)


def traced_by(tracer: Tracer):
    def call(fn, *args):
        return tracer.call(f"{layer_of(fn)}.{fn.__name__}", fn, *args)

    return call


def build(api, rung, outputs, call) -> dict:
    cfg, L = rung.cfg, rung.lagrangian
    _, dec = call(api.phi_from_lagrangian, cfg, L)
    coeffs = call(api.symmetric_boundary_coefficients, dec)
    xi = call(api.assemble_boundary_form, coeffs, dec)
    theta = call(api.dedonder_form, cfg, L, xi)
    el = call(api.lagrange_derivative, cfg, L)
    alt = call(api.assemble_boundary_form,
               call(api.perturbed_coefficients, dec, rung.delta), dec)
    return dict(dec=dec, coeffs=coeffs, xi=xi, theta=theta, el=el, alt=alt)


def verify(api, rung, outputs, call) -> dict:
    built = outputs["build"]
    cfg, xi = rung.cfg, built["xi"]
    return dict(
        semibasic=call(api.is_semibasic, xi.form, ("forgetful", cfg.k - 1)),
        double_vertical=call(api.double_vertical_contraction_vanishes, xi.form, cfg),
        pullback=call(api.holonomic_reduce, xi.form, cfg),
        condition3=call(api.verify_condition3, built["dec"], xi),
        comparison=call(api.compare_boundary_forms, xi, built["alt"]),
        residual_solution=call(api.dedonder_residual, built["theta"], rung.solution),
        residual_non_solution=call(api.dedonder_residual, built["theta"], rung.non_solution),
    )


def noether(api, rung, outputs, call) -> list:
    built, out = outputs["build"], []
    for field in rung.fields:
        prolonged = call(api.prolong, field, rung.cfg.working_order)
        symmetric, residual = call(api.is_symmetry, field, rung.lagrangian)
        current = call(api.noether_current, field, built["theta"], rung.solution)
        out.append((prolonged, symmetric, residual, current))
    return out


STAGES = (("build", build), ("verify", verify), ("noether", noether))


def run_rung(api, rung, call, clock=None):
    """The three stages of one rung, each a segment of ``clock`` when one is
    given; (seconds per stage, outputs per stage)."""
    times, outputs = {}, {}
    for name, stage in STAGES:
        if clock is None:
            start = perf_counter()
            outputs[name] = stage(api, rung, outputs, call)
            times[name] = perf_counter() - start
        else:
            outputs[name], times[name] = clock.time(stage, api, rung, outputs, call)
    return times, outputs


def sizes(rung, outputs) -> dict:
    built = outputs["build"]

    def count(e):
        return len(e.terms())

    return {
        "dedonder.coefficients": len(built["coeffs"].table),
        "dedonder.coefficient_monomials": sum(map(count, built["coeffs"].table.values())),
        "dedonder.xi_terms": count(built["xi"].form),
        "dedonder.theta_terms": count(built["theta"].form),
        "dedonder.el_monomials": sum(map(count, built["el"])),
        "forms.dtheta_terms": count(built["theta"].form.d()),
        "expressions.lagrangian_monomials": count(rung.lagrangian),
    }


def problems_of(rung, outputs, expected_sizes: dict, measured_sizes: dict) -> list:
    """Every check on one rung's outputs; empty when all hold.  The rung's
    size counts go into ``measured_sizes``."""
    problems = []
    checks = outputs["verify"]
    for name in ("semibasic", "double_vertical"):
        if not checks[name]:
            problems.append(f"boundary form fails the {name} check")
    if not checks["pullback"].is_zero:
        problems.append("boundary form does not pull back to zero")
    if not checks["condition3"].ok:
        problems.append(f"condition 3 fails at {checks['condition3'].failures[0][:2]}")
    if not checks["comparison"].ok:
        problems.append("boundary-form comparison is not ok")
    if any(not form.is_zero for form in checks["residual_solution"].values()):
        problems.append("De Donder residual is nonzero on the solution")
    if all(form.is_zero for form in checks["residual_non_solution"].values()):
        problems.append("De Donder residual vanishes on the non-solution")
    (_, t_sym, t_res, t_current), (_, b_sym, b_res, _) = outputs["noether"]
    if not t_sym or not t_res.is_zero:
        problems.append("the translation is not reported as a symmetry")
    elif not t_current.d().is_zero:
        problems.append("the translation's Noether current is not closed on the solution")
    if b_sym or b_res.is_zero:
        problems.append("the boost is reported as a symmetry of a non-invariant L")
    measured = measured_sizes[rung.label] = sizes(rung, outputs)
    if measured != expected_sizes:
        problems.append(f"size counts {measured} differ from expected {expected_sizes}")
    return problems


def layer_probes(api, rung, outputs, call):
    """Direct calls of single-layer functions on the rung's objects."""
    cfg, built = rung.cfg, outputs["build"]
    d_theta = call(api.DifferentialForm.d, built["theta"].form)
    for coord in api.enumerate_coordinates(cfg, cfg.working_order):
        if coord[0] == "x":
            continue
        contracted = call(api.interior_product, api.basis_vector(coord), d_theta)
        call(api.holonomic_reduce, contracted, cfg)
        call(api.holonomic_pullback, contracted, rung.solution)
    for coord in rung.lagrangian.variables():
        call(api.Expr.partial, rung.lagrangian, coord)
    for coeff in built["coeffs"].table.values():
        for i in range(1, cfg.m + 1):
            call(api.total_derivative, coeff, i, cfg, cfg.expression_order)
        call(api.substitute_section, coeff, rung.solution)


def prepare(checkout, seed: int):
    """Imports, the seeded rungs, and one warm-up rung from another seed."""
    checkout.import_jetforms()
    api = load_api()
    rungs = make_rungs(api, seed)
    run_rung(api, make_rungs(api, seed + 1, RUNGS[:1])[0], untraced)
    return api, rungs


def run(checkout, args, results, prepared):
    api, rungs = prepared
    expected = json.loads(SIZES_FILE.read_text())
    stage_samples = {name: [] for name, _ in STAGES}
    lagrange_derivatives, measured_sizes = {}, {}

    clock = harness.Clock(in_process=True)

    def one_pass():
        totals = dict.fromkeys(stage_samples, 0.0)
        for rung in rungs:
            times, outputs = run_rung(api, rung, untraced, clock)
            for name, seconds in times.items():
                totals[name] += seconds
            results.op(f"{rung.label}#{len(stage_samples['build'])}",
                       problems_of(rung, outputs, expected[rung.label], measured_sizes))
            lagrange_derivatives[rung.label] = outputs["build"]["el"]
        for name, seconds in totals.items():
            stage_samples[name].append(seconds)
        return clock.op()

    samples = harness.measure(args.seconds, one_pass, MIN_PASSES)
    op_s = results.timing(samples, clock, f"one pass over the {len(rungs)} rungs, "
                                          "build plus verify plus Noether")
    results.metrics["peak_rss_mb"] = clock.peak_rss_mb()
    results.note(f"peak_rss_mb = {results.metrics['peak_rss_mb']:.6g} MB")
    for name, values in stage_samples.items():
        results.metrics[f"ladder.{name}_s"] = statistics.median(values)
        results.note(f"ladder.{name}_s = {statistics.median(values):.6g} s "
                     f"(median of n={len(values)}, summed over {len(rungs)} rungs)")
    for label, counts in measured_sizes.items():
        results.note(f"sizes {label}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        for name, value in counts.items():
            results.metrics[f"{name}.{label}"] = value

    import el_oracle

    oracle_labels = (label_of(ORACLE_ALWAYS),
                     label_of(ORACLE_ROTATION[args.seed % len(ORACLE_ROTATION)]))
    oracle_rungs = [rung for rung in rungs if rung.label in oracle_labels]

    for rung in oracle_rungs:
        start = perf_counter()
        problems = el_oracle.problems(rung.cfg, rung.lagrangian,
                                      lagrange_derivatives[rung.label])
        results.op(f"{rung.label} sympy oracle", problems)
        results.note(f"sympy euler_equations oracle on {rung.label}: "
                     f"{'FAILED' if problems else 'ok'} ({perf_counter() - start:.3g} s)")

    if args.trace:
        tracer = Tracer()
        call = traced_by(tracer)
        tracer.install()
        try:
            traced_s = 0.0
            traced_outputs = {}
            for rung in rungs:
                times, traced_outputs[rung.label] = run_rung(api, rung, call)
                traced_s += sum(times.values())
        finally:
            tracer.uninstall()
        op_spans = list(tracer.spans)
        for rung in rungs:
            results.op(f"{rung.label} traced",
                       problems_of(rung, traced_outputs[rung.label], expected[rung.label],
                                   measured_sizes))
            layer_probes(api, rung, traced_outputs[rung.label], call)
        results.trace(op_s, traced_s, op_spans, tracer.spans)
        results.metrics.update(harness.startup_probes(checkout))
