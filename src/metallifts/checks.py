"""The check catalog executed by scenario runs.

A check is its function: the line ``check KIND ARG ...`` runs
``check_KIND(ctx, ARG, ...)``, so the function's name gives the kind and
its parameters give the arity and the argument names (a ``*args``
parameter takes any number).  Every check resolves its arguments against
the scenario's declarations, calls the library function that computes the
identity's residual (``component`` and ``mean_value`` subtract a declared
value from the scenario's expression instead), and returns a
:class:`CheckOutcome` whose
``residuals`` carry the exact expressions that decide the verdict:
an ``expect="zero"`` residual must be identically zero, an
``expect="nonzero"`` residual must not be.  The outcome's ``facts`` state
only what is not a zero test, such as ``sigma > 0``.  The runner later
corroborates each residual numerically at seeded random points.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from .cross_section import (CrossSection, induced_structure, invariance_check,
                            lift_decomposition_check, section_nijenhuis_check)
from .geometry import (Connection, Tensor11Field, Tensor12Field, VectorField, _Field,
                       _index_label)
from .integrability import (affine_invariance, distributions_integrable, nijenhuis_t11,
                            np_relation, projector_criterion)
from .lifts import (complete_lift_t11, composition_lift, horizontal_lift_t11,
                    horizontal_square, jtilde_printed, jtilde_structure)
from .metallic import (MetallicStructure, composite_relation, mean_defining,
                       metallic_from_product, metallic_residual, minimal_polynomial_check,
                       product_from_metallic, product_roundtrip, projector_algebra,
                       projector_expansions, square_residual)
from .scenario import Scenario, parse_once
from .symexpr import ExprError, RatFunc, _excerpt, parse_integer


class CheckError(ValueError):
    """A check could not run against the declared objects."""


@dataclass(frozen=True)
class Residual:
    label: str
    expr: RatFunc
    expect: str  # "zero" | "nonzero"


@dataclass
class CheckOutcome:
    claim: str
    name: str = ""
    verdict: str = "pass"  # pass | fail | error
    residuals: list[Residual] = field(default_factory=list)
    facts: list[tuple[str, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    error: str | None = None

    def settle(self):
        if self.error is not None:
            self.verdict = "error"
            return self
        ok = all(f for _, f in self.facts)
        for r in self.residuals:
            if r.expect == "zero":
                ok = ok and r.expr.is_zero
            else:
                ok = ok and not r.expr.is_zero
        self.verdict = "pass" if ok else "fail"
        return self


def _lookup(table: dict, what: str, name: str):
    try:
        return table[name]
    except KeyError:
        raise CheckError(f"unknown {what} {name!r}") from None


class Context:
    """Resolution of scenario names and expression arguments.  An
    expression is read through the scenario's parse memo
    (``scenario.parse_once``), so a check argument that restates a declared
    entry is that entry's value, parsed once.  Lifts, frame-swap products,
    Nijenhuis tensors, section invariance, metallic forms and residuals are
    memoised by the library itself (``geometry.per_run``) inside the
    ``run_memo()`` scope of a scenario run."""

    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.params = scenario.params
        self.chart = scenario.chart

    def structure(self, name: str) -> tuple[str, Tensor11Field]:
        return _lookup(self.s.structures, "structure", name)

    def metallic(self, name: str) -> MetallicStructure:
        """The named structure as a metallic structure (products are
        converted through the half-trace recipe first)."""
        kind, T = self.structure(name)
        if kind == "metallic":
            return MetallicStructure(self.params, T)
        if kind == "product":
            return metallic_from_product(T, self.params)
        raise CheckError(f"structure {name!r} has kind {kind!r}; "
                         "a product or metallic structure is required")

    def product(self, name: str) -> Tensor11Field:
        kind, T = self.structure(name)
        if kind == "product":
            return T
        return product_from_metallic(self.metallic(name))

    def vector(self, name: str) -> VectorField:
        return _lookup(self.s.fields, "field", name)

    def connection(self, name: str) -> Connection:
        return _lookup(self.s.connections, "connection", name)

    def distribution(self, name: str) -> tuple[VectorField, ...]:
        return _lookup(self.s.distributions, "distribution", name)

    def expr(self, tokens: tuple[str, ...]) -> RatFunc:
        text = " ".join(tokens)
        if not text:
            raise CheckError("missing expression argument")
        try:
            return parse_once(self.s.exprs, text, self.chart, self.params)
        except ExprError as exc:
            raise CheckError(f"in expression {_excerpt(text)}: {exc}") from exc


def _tensor_residuals(out: CheckOutcome, label: str, T: _Field, expect: str = "zero"):
    for index, c in T._entries():
        out.residuals.append(Residual(label + _index_label(index), c, expect))


def _nonzero_witness(out: CheckOutcome, label: str, T: _Field):
    """Record that a tensor is not identically zero via its first nonzero
    component; verdicts on 'nonzero' expectations are existential."""
    bad = T.first_nonzero()
    if bad is None:
        out.facts.append((f"{label} has a nonzero component", False))
    else:
        *index, c = bad
        out.residuals.append(Residual(label + _index_label(index), c, "nonzero"))


def _vector_residuals(out: CheckOutcome, label: str, comps, expect: str = "zero"):
    for h, c in enumerate(comps):
        out.residuals.append(Residual(f"{label}[{h + 1}]", c, expect))


def _pair_residuals(out: CheckOutcome, label: str, N: Tensor12Field):
    """N(e_i, e_j) for i < j; the other components follow by antisymmetry."""
    n = N.chart.dimension
    for i in range(n):
        for j in range(i + 1, n):
            _vector_residuals(out, f"{label}(e{i + 1},e{j + 1})",
                              [N.components[h][i][j] for h in range(n)])


def _one_residual(claim: str, label: str, T: _Field, record=_tensor_residuals) -> CheckOutcome:
    """The outcome of a check whose identity is one residual tensor."""
    out = CheckOutcome(claim)
    record(out, label, T)
    return out


def _base_and_lifted(out: CheckOutcome, identity, base, lifted):
    """Residuals of an identity on the base chart and on TM; ``lifted()``
    gives the lifted argument once the base residual is in."""
    _pair_residuals(out, "base", identity(base))
    _pair_residuals(out, "lifted", identity(lifted()))


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

def check_mean_defining(ctx: Context) -> CheckOutcome:
    p = ctx.params
    out = CheckOutcome("sigma solves x^2 - alpha*x - beta = 0 and is the positive root")
    out.residuals.append(Residual("sigma^2 - alpha*sigma - beta",
                                  mean_defining(ctx.chart, p), "zero"))
    out.facts.append(("sigma > 0 numerically", p.sigma.to_float() > 0))
    out.notes.append(f"sigma = {p.sigma}")
    return out


def check_mean_value(ctx: Context, *expr) -> CheckOutcome:
    value = ctx.expr(expr)
    out = CheckOutcome(f"sigma equals {' '.join(expr)} exactly")
    out.residuals.append(Residual("sigma - claimed", value - RatFunc.constant(
        ctx.chart, ctx.params.sigma), "zero"))
    return out


def check_almost_product(ctx: Context, name) -> CheckOutcome:
    return _one_residual(f"{name}^2 = I", "P^2 - I",
                         square_residual(ctx.structure(name)[1], 1))


def check_metallic(ctx: Context, name) -> CheckOutcome:
    return _one_residual(f"{name} satisfies Psi^2 = alpha*Psi + beta*I",
                         "Psi^2 - alpha*Psi - beta*I",
                         metallic_residual(ctx.metallic(name).tensor, ctx.params))


def check_metallic_from_product(ctx: Context, name) -> CheckOutcome:
    M = metallic_from_product(ctx.structure(name)[1], ctx.params)
    return _one_residual(f"(alpha*I + sqrtD*{name})/2 is metallic",
                         "Psi^2 - alpha*Psi - beta*I", metallic_residual(M.tensor, ctx.params))


def check_roundtrip(ctx: Context, name) -> CheckOutcome:
    return _one_residual(f"product -> metallic -> product returns {name} exactly", "P' - P",
                         product_roundtrip(ctx.structure(name)[1], ctx.params))


def check_projector_algebra(ctx: Context, name) -> CheckOutcome:
    out = CheckOutcome("r + s = I, rs = sr = 0, r^2 = r, s^2 = s, "
                       "Psi r = sigma r, Psi s = (alpha - sigma) s")
    for label, T in projector_algebra(ctx.metallic(name)).items():
        _tensor_residuals(out, label, T)
    return out


def check_projector_expansions(ctx: Context, name) -> CheckOutcome:
    derived, printed = projector_expansions(ctx.metallic(name))
    out = CheckOutcome(
        "sign-corrected expansions: sigma*r = (sigma/sqrtD)*Psi + (beta/sqrtD)*I "
        "and (alpha-sigma)*s = ((sigma-alpha)/sqrtD)*Psi - (beta/sqrtD)*I")
    for label, T in derived.items():
        _tensor_residuals(out, label, T)
    _nonzero_witness(out, "sigma*r - printed", printed)
    out.notes.append("printed identity-term coefficient -beta/sqrtD; derived +beta/sqrtD")
    out.notes.append("printed Psi-term coefficient (sigma+alpha)/sqrtD; "
                     "derived (sigma-alpha)/sqrtD")
    return out


def check_complete_lift_metallic(ctx: Context, name) -> CheckOutcome:
    return _one_residual(f"the complete lift of {name} is metallic on TM",
                         "(Psi^C)^2 - alpha*Psi^C - beta*I", metallic_residual(
                             complete_lift_t11(ctx.metallic(name).tensor), ctx.params))


def check_composition_lift(ctx: Context, left, right) -> CheckOutcome:
    return _one_residual(f"({left} {right})^C = {left}^C {right}^C", "(S T)^C - S^C T^C",
                         composition_lift(ctx.structure(left)[1], ctx.structure(right)[1]))


def _polynomial_outcome(ctx, name, kind, claim, expect_agreement: bool) -> CheckOutcome:
    _, T = ctx.structure(name)
    out = CheckOutcome(claim)
    rep = minimal_polynomial_check(T, kind, ctx.params)
    c0 = rep.computed_c0.constant_value()
    out.notes.append(f"computed annihilator: X^{rep.degree} "
                     f"{f'+ ({rep.computed_c1.constant_value()})*X ' if rep.degree == 2 else ''}"
                     f"+ ({c0})")
    out.residuals.append(Residual("computed c1 - claimed c1",
                                  rep.computed_c1 - rep.claimed_c1, "zero"))
    if expect_agreement:
        out.residuals.append(Residual("computed c0 - claimed c0",
                                      rep.computed_c0 - rep.claimed_c0, "zero"))
    else:
        out.residuals.append(Residual("computed c0 - printed c0",
                                      rep.computed_c0 - rep.claimed_c0, "nonzero"))
        out.notes.append(f"printed constant term {rep.claimed_c0.constant_value()}; "
                         f"computed {c0}")
    out.facts.append(("degree == 2", rep.degree == 2))
    return out


def check_tangent_polynomial(ctx: Context, name) -> CheckOutcome:
    return _polynomial_outcome(
        ctx, name, "tangent",
        "the tangent-derived structure satisfies X^2 - alpha*X + alpha^2/4",
        expect_agreement=True)


def check_complex_polynomial(ctx: Context, name) -> CheckOutcome:
    return _polynomial_outcome(
        ctx, name, "complex",
        "the complex-derived structure's exact constant term differs from the "
        "printed alpha^2/4 + beta",
        expect_agreement=False)


def check_composite_relation(ctx: Context, p, f) -> CheckOutcome:
    return _one_residual("sqrtD*Psi_J = 2 Psi_P Psi_F - alpha*Psi_P - alpha*Psi_F "
                         "+ alpha*sigma*I for J = P F", "lhs - rhs", composite_relation(
                             ctx.structure(p)[1], ctx.structure(f)[1], ctx.params))


def check_nijenhuis_zero(ctx: Context, name) -> CheckOutcome:
    return _one_residual(f"N_Psi of {name} vanishes identically", "N",
                         nijenhuis_t11(ctx.metallic(name).tensor), _pair_residuals)


def check_nijenhuis_zero_lifted(ctx: Context, name) -> CheckOutcome:
    return _one_residual(f"N of the complete lift of {name} vanishes identically", "N",
                         nijenhuis_t11(complete_lift_t11(ctx.metallic(name).tensor)),
                         _pair_residuals)


def check_np_relation(ctx: Context, name) -> CheckOutcome:
    out = CheckOutcome("D*N_P = 4*N_Psi on the base chart and for the complete lifts")
    P = ctx.product(name)
    _base_and_lifted(out, lambda P: np_relation(P, ctx.params),
                     P, lambda: complete_lift_t11(P))
    return out


def check_affine_invariance(ctx: Context, name, a, b) -> CheckOutcome:
    _, T = ctx.structure(name)
    try:
        a, b = parse_integer(a), parse_integer(b)
    except ValueError:
        raise CheckError("affine_invariance needs integer coefficients a b") from None
    return _one_residual(f"N of {a}*I + {b}*{name} equals {b}^2 * N of {name}", "diff",
                         affine_invariance(T, a, b), _pair_residuals)


def check_projector_criterion(ctx: Context, name, which) -> CheckOutcome:
    if which not in ("r_on_s", "s_on_r"):
        raise CheckError("second argument must be r_on_s or s_on_r")
    out = CheckOutcome(f"{'r N(sX,sY)' if which == 'r_on_s' else 's N(rX,rY)'} = 0 "
                       "on the base chart and for the lifted structure")
    M = ctx.metallic(name)
    _base_and_lifted(out, lambda M: projector_criterion(M, which), M,
                     lambda: MetallicStructure(ctx.params, complete_lift_t11(M.tensor)))
    return out


def check_distributions_integrable(ctx: Context, name, dist_r, dist_s) -> CheckOutcome:
    M = ctx.metallic(name)
    results = distributions_integrable(M, ctx.distribution(dist_r), ctx.distribution(dist_s))
    out = CheckOutcome("both eigendistributions are integrable and contain "
                       "their declared generators")
    for label, (frobenius, fixed) in zip((dist_r, dist_s), results):
        _pair_residuals(out, f"{label} Frobenius", frobenius)
        for k, residual in enumerate(fixed):
            _vector_residuals(out, f"{label} generator {k + 1} fixed", residual.components)
    return out


def check_horizontal_metallic(ctx: Context, name, connection) -> CheckOutcome:
    return _one_residual(
        f"the horizontal lift of {name} along {connection} is metallic",
        "(Psi^H)^2 - alpha*Psi^H - beta*I", metallic_residual(horizontal_lift_t11(
            ctx.metallic(name).tensor, ctx.connection(connection)), ctx.params))


def check_horizontal_square(ctx: Context, name, connection) -> CheckOutcome:
    return _one_residual("(Psi^2)^H = (Psi^H)^2", "(Psi^2)^H - (Psi^H)^2", horizontal_square(
        ctx.metallic(name).tensor, ctx.connection(connection)))


def check_jtilde(ctx: Context, connection) -> CheckOutcome:
    J = jtilde_structure(ctx.connection(connection), ctx.params)
    return _one_residual("the frame-swap structure (alpha*I + sqrtD*Ptilde)/2 is metallic",
                         "Jtilde^2 - alpha*Jtilde - beta*I", metallic_residual(J, ctx.params))


def check_jtilde_printed(ctx: Context, connection) -> CheckOutcome:
    p = ctx.params
    residuals = jtilde_printed(ctx.connection(connection), p)
    coincide = p.alpha == 1
    out = CheckOutcome(
        "the printed coefficients (X^H + sqrtD*X^V)/2 coincide with the derived "
        "(alpha*X^H + sqrtD*X^V)/2 exactly when alpha = 1")
    for label, T in residuals.items():
        (_tensor_residuals if coincide else _nonzero_witness)(out, label, T)
    out.notes.append(f"alpha = {p.alpha}: printed and derived forms "
                     f"{'coincide' if coincide else 'differ'}")
    return out


def check_section_lifts(ctx: Context, section, x, y) -> CheckOutcome:
    cs = CrossSection(ctx.vector(section))
    rep = lift_decomposition_check(ctx.vector(x), ctx.vector(y), cs)
    out = CheckOutcome("[BX,BY] = B[X,Y], [CX,CY] = 0, X^C|section = BX + C(L_V X), "
                       "X^V = CX")
    _vector_residuals(out, "[BX,BY] - B[X,Y]", rep.b_bracket.components)
    _vector_residuals(out, "[CX,CY]", rep.c_bracket.components)
    _vector_residuals(out, "X^C - (BX + C(L_V X))", rep.complete)
    _vector_residuals(out, "X^V - CX", rep.vertical.components)
    return out


def _section_invariance(ctx: Context, name, section, claim: str, record) -> CheckOutcome:
    """The decomposition residuals, then L_V Psi through ``record``."""
    rep = invariance_check(ctx.metallic(name), CrossSection(ctx.vector(section)))
    out = CheckOutcome(claim)
    for i, comps in enumerate(rep.decomposition):
        _vector_residuals(out, f"decomposition(e{i + 1})", comps)
    record(out, "L_V Psi", rep.lie_derivative)
    return out


def check_section_invariant(ctx: Context, name, section) -> CheckOutcome:
    return _section_invariance(
        ctx, name, section, "Psi^C(BX) = B(Psi X) + C((L_V Psi) X) and L_V Psi = 0",
        _tensor_residuals)


def check_section_not_invariant(ctx: Context, name, section) -> CheckOutcome:
    return _section_invariance(
        ctx, name, section, "the decomposition holds but L_V Psi != 0, so the section "
        "is not invariant", _nonzero_witness)


def check_induced_metallic(ctx: Context, name, section) -> CheckOutcome:
    induced = induced_structure(ctx.metallic(name), CrossSection(ctx.vector(section)))
    return _one_residual("the tensor induced on the invariant section is metallic",
                         "induced residual", metallic_residual(induced.tensor, ctx.params))


def check_section_nijenhuis(ctx: Context, name, section) -> CheckOutcome:
    rep = section_nijenhuis_check(ctx.metallic(name), CrossSection(ctx.vector(section)))
    out = CheckOutcome(
        "N_{Psi^C}(BX,BY) = B(N_Psi(X,Y)) + C((L_V N_Psi)(X,Y)); on invariant "
        "sections the section Nijenhuis vanishes iff the base one does")
    section_zero = all(c.is_zero for comps in rep.section.values() for c in comps)
    out.facts.append(("equivalence on invariant sections", rep.equivalence_ok))
    out.notes.append(f"L_V Psi = 0: {rep.lie_derivative.is_zero}; base N = 0: "
                     f"{rep.nijenhuis.is_zero}; section N = 0: {section_zero}")
    for (i, j), comps in rep.decomposition.items():
        _vector_residuals(out, f"decomposition(e{i + 1},e{j + 1})", comps)
    return out


def check_component(ctx: Context, *args) -> CheckOutcome:
    if len(args) < 4:
        raise CheckError("component needs NAME ROW COL EXPR")
    _, T = ctx.structure(args[0])
    try:
        h, i = parse_integer(args[1]), parse_integer(args[2])
    except ValueError:
        raise CheckError("component indices must be integers") from None
    n = T.chart.dimension
    if not (1 <= h <= n and 1 <= i <= n):
        raise CheckError(f"component indices must lie in 1..{n}")
    expr = ctx.expr(args[3:])
    out = CheckOutcome(f"{args[0]}[{h}][{i}] equals the given expression exactly")
    out.residuals.append(Residual(f"{args[0]}[{h}][{i}] - claimed",
                                  T.components[h - 1][i - 1] - expr, "zero"))
    return out


def check_errata_projector_signs(ctx: Context, name) -> CheckOutcome:
    out = check_projector_expansions(ctx, name)
    out.claim = ("erratum: the printed projector expansions carry a sign error; "
                 "the derived forms hold exactly")
    return out


def check_errata_complex_constant(ctx: Context, name) -> CheckOutcome:
    out = check_complex_polynomial(ctx, name)
    out.claim = ("erratum: the complex-derived structure's constant term is "
                 "alpha^2/2 + beta, not the printed alpha^2/4 + beta")
    return out


def check_errata_frame_swap_lift(ctx: Context, connection) -> CheckOutcome:
    out = check_jtilde_printed(ctx, connection)
    out.claim = ("erratum: the printed lift coefficients (X^H + sqrtD*X^V)/2 miss "
                 "a factor alpha on the first term; the derived "
                 "(alpha*X^H + sqrtD*X^V)/2 is metallic for every alpha, beta")
    return out


# Check kind -> check function; the kind is the function's name without
# its ``check_`` prefix.
CHECKS = {fn.__name__.removeprefix("check_"): fn for fn in (
    check_mean_defining, check_mean_value, check_almost_product, check_metallic,
    check_metallic_from_product, check_roundtrip, check_projector_algebra,
    check_projector_expansions, check_complete_lift_metallic, check_composition_lift,
    check_tangent_polynomial, check_complex_polynomial, check_composite_relation,
    check_nijenhuis_zero, check_nijenhuis_zero_lifted, check_np_relation,
    check_affine_invariance, check_projector_criterion, check_distributions_integrable,
    check_horizontal_metallic, check_horizontal_square, check_jtilde, check_jtilde_printed,
    check_section_lifts, check_section_invariant, check_section_not_invariant,
    check_induced_metallic, check_section_nijenhuis, check_component,
    check_errata_projector_signs, check_errata_complex_constant,
    check_errata_frame_swap_lift)}


def run_check(ctx: Context, kind: str, args: tuple[str, ...],
              raw: str) -> CheckOutcome:
    fn = CHECKS.get(kind)
    try:
        if fn is None:
            raise CheckError(f"unknown check type {kind!r}")
        # A check takes the context and then one parameter per scenario
        # argument, unless it collects them with *args.  Wrapped checks
        # (functools.wraps) report the arity of the function they wrap.
        code = inspect.unwrap(fn).__code__
        if not code.co_flags & inspect.CO_VARARGS and len(args) != code.co_argcount - 1:
            raise CheckError(f"expected {code.co_argcount - 1} argument(s), got {len(args)}")
        out = fn(ctx, *args)
    except Exception as exc:
        # A failing check never aborts the run.  Problems with the declared
        # objects (the ValueError family) read as plain messages; anything
        # else keeps its type name.
        out = CheckOutcome(raw)
        out.error = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
    out.name = kind
    return out.settle()
