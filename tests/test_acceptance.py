"""Acceptance gate: the eight end-to-end criteria for the library.

Criteria 1-6 establish every identity exactly (zero tolerance, symbolic).
Each exact verdict also records its residual expressions in a ledger;
criterion 7 then corroborates the whole ledger numerically at seeded
random points, and criterion 8 pins down byte-level determinism of the
bundled scenario reports.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from metallifts.cli import builtin_names, load_builtin
from metallifts.cross_section import (CrossSection, b_lift, c_lift,
                                      induced_structure, invariance_check,
                                      restrict_to_section,
                                      section_nijenhuis_check)
from metallifts.geometry import (Connection, Tensor11Field, VectorField,
                                 apply_t11, compose_t11, invert_t11,
                                 lie_derivative)
from metallifts.integrability import (example_41_structure, frobenius_criterion,
                                      nijenhuis_apply, nijenhuis_t11,
                                      np_relation, projector_criterion)
from metallifts.lifts import (complete_lift_t11, complete_lift_vf,
                              frame_matrix, frame_swap_product,
                              horizontal_lift_t11, jtilde_structure,
                              tangent_bundle, vertical_lift_vf)
from metallifts.metallic import (MetallicStructure, composite_relation,
                                 metallic_from_product, metallic_residual,
                                 minimal_polynomial_check,
                                 product_from_metallic,
                                 projectors_from_metallic)
from metallifts.numfield import QuadScalar, make_params
from metallifts.report import run_scenario, render_structured
from metallifts.symexpr import Chart, RatFunc, ResampleNeeded, parse_expr

from conftest import (chart_over, involutive_product, params_constants, rand_poly, rand_t11,
                      rand_vector)

CH = Chart(("x", "y"))  # over QQ
GOLDEN = make_params(1, 1)
CH5 = chart_over(GOLDEN)  # over Q(sqrt 5)
THREE_PARAMS = [make_params(1, 1), make_params(2, 1), make_params(1, 2)]
SIX_PAIRS = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (1, 3)]

# Every exact verdict deposits (label, expression, "zero"|"nonzero") here;
# criterion 7 replays the whole ledger numerically.
LEDGER: list[tuple[str, RatFunc, str]] = []


def _components(obj):
    if isinstance(obj, RatFunc):
        return [obj]
    if isinstance(obj, VectorField):
        return list(obj.components)
    if isinstance(obj, Tensor11Field):
        return [c for row in obj.components for c in row]
    if isinstance(obj, (tuple, list)):
        out = []
        for item in obj:
            out.extend(_components(item))
        return out
    raise TypeError(type(obj))


def _t12_components(N):
    return tuple(c for plane in N.components for row in plane for c in row)


def expect_zero(label, obj):
    comps = _components(obj)
    for k, c in enumerate(comps):
        assert c.is_zero, f"{label}[{k}] = {c!r}"
        LEDGER.append((f"{label}[{k}]", c, "zero"))


def expect_nonzero(label, obj):
    comps = _components(obj)
    witness = next((c for c in comps if not c.is_zero), None)
    assert witness is not None, f"{label}: unexpectedly zero everywhere"
    LEDGER.append((label, witness, "nonzero"))


def products_20(chart, seed=424242):
    """20 involutive almost product structures on ``chart``: constant and
    position-dependent."""
    rng = random.Random(seed)
    out = [Tensor11Field.diagonal(chart, [1, -1]),
           Tensor11Field.make(chart, [[0, 1], [1, 0]]),
           Tensor11Field.make(chart, [[1, 0], [3, -1]]),
           Tensor11Field.make(chart, [[5, -4], [6, -5]])]
    while len(out) < 20:
        out.append(involutive_product(rng, chart))
    return out


# -- criterion 1: the metallic means table ----------------------------------

def test_criterion_1_means_table():
    expected = {
        (1, 1): QuadScalar(Fraction(1, 2), Fraction(1, 2), 5),
        (2, 1): QuadScalar(1, 1, 2),
        (3, 1): QuadScalar(Fraction(3, 2), Fraction(1, 2), 13),
        (4, 1): QuadScalar(2, 1, 5),
        (1, 2): QuadScalar(2),
        (1, 3): QuadScalar(Fraction(1, 2), Fraction(1, 2), 13),
    }
    for pair in SIX_PAIRS:
        params = make_params(*pair)
        assert params.sigma == expected[pair]
        sigma = RatFunc.constant(chart_over(params), params.sigma)
        residual = sigma * sigma - params.alpha * sigma - params.beta
        assert residual == 0
        LEDGER.append((f"mean{pair}: sigma^2 - alpha*sigma - beta", residual, "zero"))


# -- criterion 2: structures, projectors, expansions ------------------------

def test_criterion_2_product_metallic_suite():
    for params in THREE_PARAMS:
        tag = f"(a={params.alpha},b={params.beta})"
        sigma, conjugate, sqrt_d = params_constants(params, chart_over(params))
        inv = sqrt_d.reciprocal()
        I = Tensor11Field.identity(chart_over(params))
        for k, P in enumerate(products_20(chart_over(params))):
            M = metallic_from_product(P, params)
            expect_zero(f"{tag} P{k}: defining relation",
                        metallic_residual(M.tensor, params))
            expect_zero(f"{tag} P{k}: roundtrip",
                        product_from_metallic(M) - P)
            pair = projectors_from_metallic(M)
            r, s = pair.r, pair.s
            expect_zero(f"{tag} P{k}: r+s-I", r + s - I)
            expect_zero(f"{tag} P{k}: r idempotent", compose_t11(r, r) - r)
            expect_zero(f"{tag} P{k}: s idempotent", compose_t11(s, s) - s)
            expect_zero(f"{tag} P{k}: rs", compose_t11(r, s))
            expect_zero(f"{tag} P{k}: sr", compose_t11(s, r))
            expect_zero(f"{tag} P{k}: Psi r = sigma r",
                        compose_t11(M.tensor, r) - r.scale(sigma))
            expect_zero(f"{tag} P{k}: Psi s = (alpha-sigma) s",
                        compose_t11(M.tensor, s)
                        - s.scale(conjugate))
            # Derived (sign-corrected) expansions of the scaled projectors.
            expect_zero(f"{tag} P{k}: sigma r expansion",
                        r.scale(sigma)
                        - M.tensor.scale(sigma * inv)
                        - I.scale(params.beta * inv))
            expect_zero(f"{tag} P{k}: (alpha-sigma) s expansion",
                        s.scale(conjugate)
                        - M.tensor.scale((sigma - params.alpha) * inv)
                        + I.scale(params.beta * inv))
            if k == 0:
                # The printed variants (flipped identity-term sign; alpha+sigma
                # numerator) disagree: keep one nonzero witness per params.
                printed_r = (M.tensor.scale(sigma * inv)
                             - I.scale(params.beta * inv))
                expect_nonzero(f"{tag}: printed sigma r variant",
                               r.scale(sigma) - printed_r)


def test_criterion_2_errata_report_flags_printed_signs():
    report = run_scenario(load_builtin("errata"))
    by_kind = {c.outcome.name: c for c in report.checks}
    check = by_kind["errata_projector_signs"]
    assert check.verdict == "pass"
    notes = " ".join(check.outcome.notes)
    assert "-beta/sqrtD" in notes and "+beta/sqrtD" in notes
    assert "(sigma+alpha)/sqrtD" in notes and "(sigma-alpha)/sqrtD" in notes


# -- criterion 3: complete lifts and derived-structure polynomials ----------

def test_criterion_3_complete_lift_metallic():
    for params in THREE_PARAMS:
        tag = f"(a={params.alpha},b={params.beta})"
        for k, P in enumerate(products_20(chart_over(params))):
            lifted = complete_lift_t11(metallic_from_product(P, params).tensor)
            expect_zero(f"{tag} P{k}: lifted defining relation",
                        metallic_residual(lifted, params))


def test_criterion_3_lift_is_multiplicative():
    rng = random.Random(31415)
    for k in range(5):
        S, G = rand_t11(rng, CH), rand_t11(rng, CH)
        expect_zero(f"pair {k}: (S G)^C - S^C G^C",
                    complete_lift_t11(compose_t11(S, G))
                    - compose_t11(complete_lift_t11(S),
                                  complete_lift_t11(G)))


def test_criterion_3_tangent_polynomial():
    for params in THREE_PARAMS:
        T = Tensor11Field.make(chart_over(params), [[0, 1], [0, 0]])
        rep = minimal_polynomial_check(T, "tangent", params)
        assert (rep.degree, rep.computed_c1, rep.computed_c0) == (2, rep.claimed_c1, rep.claimed_c0)
        assert rep.computed_c1 == -params.alpha
        assert rep.computed_c0 == Fraction(params.alpha ** 2, 4)


def test_criterion_3_complex_constant_discrepancy():
    for params in THREE_PARAMS:
        J = Tensor11Field.make(chart_over(params), [[0, -1], [1, 0]])
        rep = minimal_polynomial_check(J, "complex", params)
        assert (rep.degree, rep.computed_c1, rep.computed_c0) != (2, rep.claimed_c1, rep.claimed_c0)
        derived = Fraction(params.alpha ** 2, 2) + params.beta
        printed = Fraction(params.alpha ** 2, 4) + params.beta
        assert rep.computed_c0 == derived
        assert rep.claimed_c0 == printed
        expect_nonzero(f"(a={params.alpha},b={params.beta}): "
                       "complex constant, derived - printed",
                       RatFunc.constant(CH, derived - printed))


def test_criterion_3_composite_relation_on_10_pairs():
    rng = random.Random(27182)
    silver = make_params(2, 1)
    for k in range(10):
        P, F = rand_t11(rng, chart_over(silver)), rand_t11(rng, chart_over(silver))
        expect_zero(f"pair {k}: composite relation",
                    composite_relation(P, F, silver))


# -- criterion 4: Nijenhuis calculus and the worked example -----------------

def test_criterion_4_product_metallic_nijenhuis_relation():
    """D * N_P = 4 * N_Psi, on the base chart and for the complete lifts."""
    rng = random.Random(16180)
    for params in THREE_PARAMS:
        tag = f"(a={params.alpha},b={params.beta})"
        P = involutive_product(rng, chart_over(params))
        psi = metallic_from_product(P, params).tensor
        for label, prod, met in [
                ("base", P, psi),
                ("lifted", complete_lift_t11(P),
                 complete_lift_t11(psi))]:
            chart = prod.chart
            n = chart.dimension
            for i in range(n):
                for j in range(i + 1, n):
                    ei = VectorField.basis(chart, i)
                    ej = VectorField.basis(chart, j)
                    vp = nijenhuis_apply(prod, ei, ej)
                    vm = nijenhuis_apply(met, ei, ej)
                    expect_zero(
                        f"{tag} {label} ({i},{j}): D*N_P - 4*N_Psi",
                        vp.scale(params.discriminant) - vm.scale(4))
            assert np_relation(prod, params).is_zero


def test_criterion_4_affine_invariance():
    rng = random.Random(2718)
    T = rand_t11(rng, CH)
    for a, b in [(3, 2), (Fraction(1, 2), -1), (1, 5)]:
        S = Tensor11Field.identity(CH).scale(a) + T.scale(b)
        lhs = nijenhuis_t11(S)
        rhs = nijenhuis_t11(T).scale(Fraction(b) ** 2)
        diff = lhs - rhs
        expect_zero(f"affine ({a},{b})",
                    tuple(c for plane in diff.components
                          for row in plane for c in row))


def test_criterion_4_worked_example():
    M = example_41_structure(GOLDEN)
    chart = M.chart
    # The reconstructed structure is exactly metallic with vanishing
    # Nijenhuis tensor, on the base and on the tangent bundle.
    expect_zero("example: defining relation",
                metallic_residual(M.tensor, GOLDEN))
    n_base = nijenhuis_t11(M.tensor)
    expect_zero("example: N_Psi",
                tuple(c for plane in n_base.components
                      for row in plane for c in row))
    lifted = complete_lift_t11(M.tensor)
    n_lift = nijenhuis_t11(lifted)
    expect_zero("example: N_{Psi^C}",
                tuple(c for plane in n_lift.components
                      for row in plane for c in row))
    # Eigendistribution criteria (projector-composed Nijenhuis) and
    # Frobenius integrability, base and lifted.
    lifted_m = MetallicStructure(GOLDEN, lifted)
    for which in ("r_on_s", "s_on_r"):
        expect_zero(f"example: {which} criterion",
                    _t12_components(projector_criterion(M, which)))
        expect_zero(f"example: lifted {which} criterion",
                    _t12_components(projector_criterion(lifted_m, which)))
    pair = projectors_from_metallic(M)
    expect_zero("example: R integrable", _t12_components(
        frobenius_criterion(pair.r, pair.s)))
    expect_zero("example: S integrable", _t12_components(
        frobenius_criterion(pair.s, pair.r)))
    # The diagonal entries match the printed closed forms verbatim.
    top = parse_expr("((alpha - sigma)*(x + y)^2 + sigma) / ((x + y)^2 + 1)",
                     chart, GOLDEN)
    bottom = parse_expr("(sigma*(x + y)^2 + (alpha - sigma)) / ((x + y)^2 + 1)",
                        chart, GOLDEN)
    expect_zero("example: diagonal (1,1)", M.tensor.components[0][0] - top)
    expect_zero("example: diagonal (2,2)", M.tensor.components[1][1] - bottom)


def test_criterion_4_lift_preserves_vanishing_nijenhuis():
    """Whenever N_Psi = 0 the complete lift has N_{Psi^C} = 0 too; a
    constant structure gives a second, independent instance."""
    M = metallic_from_product(Tensor11Field.make(CH5, [[0, 1], [1, 0]]), GOLDEN)
    assert nijenhuis_t11(M.tensor).is_zero
    lifted = complete_lift_t11(M.tensor)
    expect_zero("constant example: N_{Psi^C}",
                tuple(c for plane in nijenhuis_t11(lifted).components
                      for row in plane for c in row))


# -- criterion 5: horizontal lifts and the frame-swap structure -------------

def _rand_connection(rng, chart):
    n = chart.dimension
    return Connection(chart, tuple(
        tuple(tuple(rand_poly(rng, chart) for _ in range(n)) for _ in range(n))
        for _ in range(n)))


def test_criterion_5_horizontal_lift_metallic():
    rng = random.Random(5151)
    for params in THREE_PARAMS:
        tag = f"(a={params.alpha},b={params.beta})"
        conn = _rand_connection(rng, chart_over(params))
        psi = metallic_from_product(involutive_product(rng, conn.chart), params).tensor
        TH = horizontal_lift_t11(psi, conn)
        expect_zero(f"{tag}: horizontal defining relation",
                    metallic_residual(TH, params))
        expect_zero(f"{tag}: (Psi^2)^H - (Psi^H)^2",
                    horizontal_lift_t11(compose_t11(psi, psi), conn)
                    - compose_t11(TH, TH))


def test_criterion_5_frame_swap_structure():
    for pair in [(1, 1), (2, 1), (1, 2)]:
        params = make_params(*pair)
        # the same connection each time, on the chart over params' field
        conn = _rand_connection(random.Random(5252), chart_over(params))
        J = jtilde_structure(conn, params)
        expect_zero(f"J~ (a={params.alpha},b={params.beta})",
                    metallic_residual(J, params))


def test_criterion_5_printed_form_at_unit_alpha():
    for params, expect in ((make_params(1, 1), expect_zero),
                           (make_params(2, 1), expect_nonzero)):
        # the same connection each time, on the chart over params' field
        conn = _rand_connection(random.Random(5353), chart_over(params))
        tb = tangent_bundle(conn.chart)
        n = tb.n
        F = frame_matrix(conn)
        swap = Tensor11Field.make(tb.chart, [
            [1 if (i == h + n or i == h - n) else 0 for i in range(2 * n)]
            for h in range(2 * n)])
        p_swap = compose_t11(compose_t11(F, swap), invert_t11(F))
        expect_zero(f"P~ = F S F^-1 over sqrt({params.radicand})",
                    frame_swap_product(conn) - p_swap)
        I = Tensor11Field.identity(tb.chart)
        half = RatFunc.constant(tb.chart, Fraction(1, 2))
        printed = (I + p_swap.scale(params.sqrtD)).scale(half)
        expect(f"printed J~ at alpha={params.alpha}",
               printed - jtilde_structure(conn, params))


# -- criterion 6: cross-sections --------------------------------------------

def test_criterion_6_lift_decompositions():
    rng = random.Random(6161)
    V = rand_vector(rng, CH5)
    cs = CrossSection(V)
    X, Y = rand_vector(rng, CH5), rand_vector(rng, CH5)
    # [BX, BY] = B[X, Y] and [CX, CY] = 0.
    expect_zero("[BX,BY] - B[X,Y]",
                lie_derivative(b_lift(X, cs), b_lift(Y, cs))
                - b_lift(lie_derivative(X, Y), cs))
    expect_zero("[CX,CY]", lie_derivative(c_lift(X), c_lift(Y)))
    # X^C = BX + C(L_V X) along the section; X^V = CX everywhere.
    lhs = restrict_to_section(complete_lift_vf(X), cs)
    rhs = restrict_to_section(
        b_lift(X, cs) + c_lift(lie_derivative(V, X)), cs)
    expect_zero("X^C - (BX + C[V,X]) on section",
                tuple(a - b for a, b in zip(lhs, rhs)))
    expect_zero("X^V - CX", vertical_lift_vf(X) - c_lift(X))
    # Psi^C(BX) = B(Psi X) + C((L_V Psi) X) along the section.
    M = metallic_from_product(involutive_product(rng, CH5), GOLDEN)
    lie = lie_derivative(V, M.tensor)
    psi_c = complete_lift_t11(M.tensor)
    lhs = restrict_to_section(apply_t11(psi_c, b_lift(X, cs)), cs)
    rhs = restrict_to_section(
        b_lift(apply_t11(M.tensor, X), cs)
        + c_lift(apply_t11(lie, X)), cs)
    expect_zero("Psi^C(BX) decomposition",
                tuple(a - b for a, b in zip(lhs, rhs)))
    # N_{Psi^C}(BX, BY) = B(N_Psi(X,Y)) + C((L_V N_Psi)(X,Y)) along it.
    n_base = nijenhuis_t11(M.tensor)
    lie_n = lie_derivative(V, n_base)
    lhs = restrict_to_section(nijenhuis_apply(psi_c, b_lift(X, cs),
                                              b_lift(Y, cs)), cs)
    rhs = restrict_to_section(
        b_lift(n_base.evaluate(X, Y), cs)
        + c_lift(lie_n.evaluate(X, Y)), cs)
    expect_zero("N_{Psi^C}(BX,BY) decomposition",
                tuple(a - b for a, b in zip(lhs, rhs)))


def test_criterion_6_invariance_both_directions():
    M = metallic_from_product(Tensor11Field.make(CH5, [[0, 1], [1, 0]]), GOLDEN)
    euler = VectorField.make(CH5, [parse_expr("x", CH5), parse_expr("y", CH5)])
    report = invariance_check(M, CrossSection(euler))
    expect_zero("decomposition (invariant case)", report.decomposition)
    expect_zero("L_V Psi (invariant case)", report.lie_derivative)
    skew = VectorField.make(CH5, [parse_expr("x*y", CH5), parse_expr("0", CH5)])
    report = invariance_check(M, CrossSection(skew))
    expect_nonzero("L_V Psi (non-invariant case)", report.lie_derivative)


def test_criterion_6_induced_structure_metallic():
    for params in THREE_PARAMS:
        ch = chart_over(params)
        M = metallic_from_product(Tensor11Field.make(ch, [[0, 1], [1, 0]]),
                                  params)
        euler = VectorField.make(ch, [parse_expr("x", ch),
                                      parse_expr("y", ch)])
        induced = induced_structure(M, CrossSection(euler))
        expect_zero(f"(a={params.alpha},b={params.beta}): induced relation",
                    metallic_residual(induced.tensor, params))


def test_criterion_6_section_nijenhuis_equivalence():
    M = metallic_from_product(Tensor11Field.make(CH5, [[0, 1], [1, 0]]), GOLDEN)
    euler = VectorField.make(CH5, [parse_expr("x", CH5), parse_expr("y", CH5)])
    report = section_nijenhuis_check(M, CrossSection(euler))
    assert report.lie_derivative.is_zero
    expect_zero("section Nijenhuis decomposition",
                tuple(report.decomposition.values()))
    section_zero = all(c.is_zero for v in report.section.values() for c in v)
    assert report.nijenhuis.is_zero == section_zero
    assert report.equivalence_ok


# -- criterion 7: numeric cross-validation of the ledger --------------------

def test_criterion_7_numeric_cross_validation():
    assert LEDGER, "criteria 1-6 must run first to populate the ledger"
    rng = random.Random(20230831)
    for label, expr, expect in LEDGER:
        values = []
        attempts = 0
        while len(values) < 10 and attempts < 200:
            attempts += 1
            point = [rng.uniform(-2.0, 2.0) for _ in expr.chart.variables]
            try:
                values.append(abs(expr.eval_numeric(point)))
            except ResampleNeeded:
                continue
        assert len(values) == 10, f"{label}: could not sample 10 points"
        if expect == "zero":
            assert max(values) < 1e-9, f"{label}: max |value| = {max(values)}"
        else:
            assert max(values) > 1e-12, f"{label}: max |value| = {max(values)}"


# -- criterion 8: determinism of the bundled scenario set -------------------

# sha256 of the structured report of every builtin at two sampler seeds.
# Any change that alters a report byte (verdict, residual text, sampled
# value) changes one of these.
PINNED_REPORTS = {
    ("errata", 20230831): "0611e30ea9089682c3cfc7075b57ee10fbde1d1f7fa251d5c750bb06e3b55875",
    ("example_3_1", 20230831): "2983a0d5d636e62c447ad736c593f4a630940cda4135aa81ea0b1d997dbe77e4",
    ("example_4_1", 20230831): "8601bcdc88bbdd3a7f28e4a042ec229b388c8009464d1347364b1a09e4a75834",
    ("gold_diag", 20230831): "30250f17f4795d6cd5d426ca34aaae0bf2dbac83135f5fde304479fb3a06a6b4",
    ("horizontal_curved", 20230831): "d2ffd973cc5e818f3e63ca8e2e12c52c63affbe87c02bf5d7db630276bbacf8c",
    ("horizontal_flat", 20230831): "fc37566071a549cbb860a3bdc9ed2fcb6ac8eeb56470ba17fd367f503b60bf31",
    ("means_bronze", 20230831): "a8e1a2ccbb8e51c347c5242a92f2f8032f715821a3b1f4eaf69b8e8d215b6ba0",
    ("means_copper", 20230831): "08a837a8790569769533e33a23cc84fccb01b478aac5494a8e9a81d2abef4339",
    ("means_gold", 20230831): "d8dcb503968fce0c95ad76e70b5598858deea4182588887a7efaed0e7c765112",
    ("means_nickel", 20230831): "db2ae609144d50da8168349878e57e0966af9cad7b1ff5f0600776b76bbc6715",
    ("means_silver", 20230831): "f9ff3f5b55cdd4711fa9e1cec93b737f764ffd7a1dc1b5b73d1d9875aa16170e",
    ("means_subtle", 20230831): "8f00a0c77f3d5207e24769f1de271c261a00fac40c911d22116594d4bfde7a4d",
    ("section_linear", 20230831): "e7e5a2686ab08b4c19817bbdf3f5613b852ff68e1c61de954662c1e28e2cb09b",
    ("section_zero", 20230831): "070b595254a01b1fc02fc4b853dd80c80f346c19ea90ff7a22a641dd2b304a5e",
    ("errata", 7): "256611d711c9802c1a9d4c34967a46a451f34a0e5dfa414c0f6601c722b2f723",
    ("example_3_1", 7): "7372c08feb2ef4601b4b0510cb8bc99336c14e2dc79b263540d3bfe3044d9cc6",
    ("example_4_1", 7): "fdbd012588c83b2e590f77653f60dd69b6950fee34687fbddb811e18008de444",
    ("gold_diag", 7): "4d0ad87835639b01960e4e55bcb52a62763c5c7969bfa7f6364e86d6701348a4",
    ("horizontal_curved", 7): "1f0aa31fb72caf7f8b2914e5c1437c4d357089a22c489b0fd710c7d44f6679f9",
    ("horizontal_flat", 7): "2e2c8f03b440a95bab5e64946009dedeec935b8ccce3a77cd30f0733729739ee",
    ("means_bronze", 7): "a5ef5d5b3d300790145b267398f94a8d643c444e2c7a279337b31941d9676f99",
    ("means_copper", 7): "ef0f572acd88b03482b1bbd297ca7358cefaa34d0f522ccb17d8b0d5da6d9295",
    ("means_gold", 7): "68a32f653861b2c58e59aac9dab2b9eb08774d2b15985e3f759dbce4c4e68f62",
    ("means_nickel", 7): "bbe2f185ed66309438a6372f818138308ea5db2c8265c018679ef98e4ffc1740",
    ("means_silver", 7): "d5dcab19e7263442931fa998ee6ab55807f46eb6078b07560c43535534a1561f",
    ("means_subtle", 7): "6bd1016d7399ae17a0d6b01fc1c4317e9828f1191a5b2e0165a05e947c93a6c8",
    ("section_linear", 7): "6ec2d1bf743811efb1a8f893a3788cf46899699c083bb5fba1aeb5f8e90238a1",
    ("section_zero", 7): "10b5186fe1c5f2d8c2b87e65ed830886866e0329c643b627113d164684dea98b",
}


def test_criterion_8_determinism():
    first, second = {}, {}
    for seed in (20230831, 7):
        for name in builtin_names():
            scenario = load_builtin(name)
            report = run_scenario(scenario, seed=seed)
            assert report.ok, name
            first[name, seed] = render_structured(report, scenario.params)
    for name in builtin_names():
        scenario = load_builtin(name)
        second[name, 20230831] = render_structured(
            run_scenario(scenario, seed=20230831), scenario.params)
    assert all(first[key] == doc for key, doc in second.items())
    digests = {key: hashlib.sha256(doc.encode()).hexdigest()
               for key, doc in first.items()}
    assert digests == PINNED_REPORTS
