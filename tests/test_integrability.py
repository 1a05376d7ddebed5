import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from metallifts.cli import load_builtin
from metallifts.cross_section import invariance_check
from metallifts.geometry import Tensor11Field, VectorField, apply_t11, run_memo
from metallifts.integrability import (affine_invariance,
                                      example_41_distribution_generators,
                                      example_41_structure, frobenius_criterion,
                                      nijenhuis_apply, nijenhuis_t11,
                                      np_relation, projector_criterion)
from metallifts.lifts import complete_lift_t11, frame_swap_product, horizontal_lift_t11
from metallifts.metallic import (MetallicStructure, StructureError,
                                 metallic_from_product, projectors_from_metallic,
                                 square_residual)
from metallifts.numfield import make_params
from metallifts.report import render_structured, run_scenario
from metallifts.scenario import parse_scenario
from metallifts.symexpr import Chart, RatFunc, parse_expr

from conftest import (chart_over, involutive_product, params_constants, rand_poly, rand_t11,
                      rand_vector)

CH = Chart(("x", "y"))
GOLDEN = make_params(1, 1)


# -- Nijenhuis basics -------------------------------------------------------

def test_nijenhuis_of_identity_vanishes(rng):
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    I = Tensor11Field.identity(CH)
    assert nijenhuis_apply(I, X, Y).is_zero
    assert nijenhuis_t11(I).is_zero


def test_nijenhuis_antisymmetry(rng):
    T = rand_t11(rng, CH)
    X, Y = rand_vector(rng, CH), rand_vector(rng, CH)
    assert (nijenhuis_apply(T, X, Y) + nijenhuis_apply(T, Y, X)).is_zero


def test_nijenhuis_t11_matches_direct_evaluation(rng):
    """The assembled (1,2)-tensor must reproduce N_T(X, Y) for arbitrary
    fields, which exercises its function-linearity."""
    for sparse in (False, True):  # sparse: each entry zero with probability 1/2
        T = rand_t11(rng, CH, sparse)
        X, Y = rand_vector(rng, CH, sparse), rand_vector(rng, CH, sparse)
        N = nijenhuis_t11(T)
        assert (N.evaluate(X, Y) - nijenhuis_apply(T, X, Y)).is_zero


def _quad_t11(rng, params) -> Tensor11Field:
    """Random entries a + b*sqrtD with a, b affine in each variable."""
    chart = chart_over(params)
    sqrt_d = RatFunc.constant(chart, params.sqrtD)
    return Tensor11Field(chart, tuple(
        tuple(rand_poly(rng, chart) + sqrt_d * rand_poly(rng, chart) for _ in range(2))
        for _ in range(2)))


def _assert_formula_matches_definition(T: Tensor11Field):
    chart, n = T.chart, T.chart.dimension
    N = nijenhuis_t11(T)
    for i in range(n):
        for j in range(n):
            direct = nijenhuis_apply(T, VectorField.basis(chart, i),
                                     VectorField.basis(chart, j))
            assert [N.components[h][i][j] for h in range(n)] == list(direct.components)
    return N


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nijenhuis_formula_matches_definition(seed):
    """The coordinate formula in ``nijenhuis_t11`` equals N_T(e_i, e_j) from
    the bracket definition, for every h, i, j, on a random non-integrable
    tensor over Q(sqrt 5), on its complete lift, and on the tensor divided
    by a polynomial containing sqrt 5 (its lift is left out: the bracket
    definition takes seconds there)."""
    rng = random.Random(seed)
    T = _quad_t11(rng, GOLDEN)
    den = parse_expr("x^2 + sqrtD*y + 3", T.chart, GOLDEN)
    for case in (T, complete_lift_t11(T), T.scale(1 / den)):
        assert not _assert_formula_matches_definition(case).is_zero


def test_nijenhuis_formula_on_the_integrable_example():
    M = example_41_structure(GOLDEN)
    for case in (M.tensor, complete_lift_t11(M.tensor)):
        assert _assert_formula_matches_definition(case).is_zero


def test_affine_invariance(rng):
    """N_{a*I + b*T} = b^2 N_T: the Nijenhuis tensor only sees T through
    its non-scalar part."""
    for a, b in [(3, 2), (Fraction(1, 2), -1), (5, 4)]:
        T = rand_t11(rng, CH)
        S = Tensor11Field.identity(CH).scale(a) + T.scale(b)
        lhs = nijenhuis_t11(S)
        rhs = nijenhuis_t11(T).scale(Fraction(b) ** 2)
        assert (lhs - rhs).is_zero
        assert affine_invariance(T, a, b).is_zero


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (1, 2)])
def test_np_relation_random_products(pair, rng):
    params = make_params(*pair)
    P = involutive_product(rng, chart_over(params))
    assert np_relation(P, params).is_zero
    assert np_relation(complete_lift_t11(P), params).is_zero


def test_np_relation_rejects_non_involutive(rng):
    with pytest.raises(StructureError):
        np_relation(rand_t11(rng, CH), make_params(1, 1))


# -- the worked example on the plane ---------------------------------------


def test_example_structure_diagonals_match_printed_forms():
    M = example_41_structure(GOLDEN)
    chart = M.chart
    top = parse_expr(
        "((alpha - sigma)*(x + y)^2 + sigma) / ((x + y)^2 + 1)", chart, GOLDEN)
    bottom = parse_expr(
        "(sigma*(x + y)^2 + (alpha - sigma)) / ((x + y)^2 + 1)", chart, GOLDEN)
    assert M.tensor.components[0][0] == top
    assert M.tensor.components[1][1] == bottom


def test_example_structure_off_diagonals_are_symmetric():
    """Both off-diagonal entries equal -sqrtD*(x+y)/((x+y)^2+1); the matrix
    is symmetric, as conjugating diag(1,-1) by the rotation-like basis
    forces."""
    M = example_41_structure(GOLDEN)
    chart = M.chart
    off = parse_expr("-sqrtD*(x + y) / ((x + y)^2 + 1)", chart, GOLDEN)
    assert M.tensor.components[0][1] == off
    assert M.tensor.components[1][0] == off


def test_example_eigendistributions():
    M = example_41_structure(GOLDEN)
    pair = projectors_from_metallic(M)
    gen_r, gen_s = example_41_distribution_generators(M.chart)
    # Psi acts as sigma on R and alpha - sigma on S.
    sigma, conjugate, _ = params_constants(GOLDEN, M.chart)
    assert (apply_t11(M.tensor, gen_r) - gen_r.scale(sigma)).is_zero
    assert (apply_t11(M.tensor, gen_s)
            - gen_s.scale(conjugate)).is_zero
    assert (apply_t11(pair.r, gen_r) - gen_r).is_zero
    assert apply_t11(pair.r, gen_s).is_zero


def test_example_nijenhuis_vanishes_base_and_lifted():
    M = example_41_structure(GOLDEN)
    assert nijenhuis_t11(M.tensor).is_zero
    lifted = complete_lift_t11(M.tensor)
    assert nijenhuis_t11(lifted).is_zero


def test_example_distributions_integrable():
    pair = projectors_from_metallic(example_41_structure(GOLDEN))
    assert frobenius_criterion(pair.r, pair.s).is_zero
    assert frobenius_criterion(pair.s, pair.r).is_zero


def test_example_projector_criteria():
    M = example_41_structure(GOLDEN)
    lifted = MetallicStructure(GOLDEN, complete_lift_t11(M.tensor))
    for which in ("r_on_s", "s_on_r"):
        assert projector_criterion(M, which).is_zero
        assert projector_criterion(lifted, which).is_zero


def test_projector_criterion_rejects_unknown_side():
    with pytest.raises(ValueError):
        projector_criterion(example_41_structure(GOLDEN), "r_on_r")


def test_example_with_other_params():
    silver = make_params(2, 1)
    M = example_41_structure(silver)
    assert nijenhuis_t11(M.tensor).is_zero
    P = (M.tensor.scale(2) - Tensor11Field.identity(M.chart).scale(
        silver.alpha)).scale(RatFunc.constant(M.chart, silver.sqrtD).reciprocal())
    assert np_relation(P, silver).is_zero
    assert np_relation(complete_lift_t11(P), silver).is_zero


# -- distribution plumbing --------------------------------------------------

def test_distribution_rejects_bad_projector():
    # 2I and -I sum to I, so only the idempotency of 2I is at fault.
    with pytest.raises(StructureError, match="not idempotent"):
        frobenius_criterion(Tensor11Field.identity(CH).scale(2),
                            Tensor11Field.identity(CH).scale(-1))


def test_false_generator_claim_fails_with_its_residual():
    """R declared with S's generator: the check names the distribution in a
    nonzero residual and fails, instead of ending in an error."""
    text = (resources.files("metallifts") / "scenarios" / "example_4_1.scn").read_text()
    head = text[:text.index("check ")].replace("generator 1 , -(x+y)", "generator x+y , 1")
    scenario = parse_scenario(head + "check distributions_integrable PSI R S\n")
    (check,) = run_scenario(scenario).checks
    assert check.verdict == "fail"
    residuals = {r.label: r.expr for r in check.outcome.residuals}
    assert all(residuals[f"{d} Frobenius(e1,e2)[{h}]"].is_zero for d in "RS" for h in (1, 2))
    assert not all(residuals[f"R generator 1 fixed[{h}]"].is_zero for h in (1, 2))
    assert all(residuals[f"S generator 1 fixed[{h}]"].is_zero for h in (1, 2))


def test_integrability_requires_complementary_projectors():
    pair = projectors_from_metallic(example_41_structure(GOLDEN))
    with pytest.raises(StructureError, match="not complementary"):
        frobenius_criterion(pair.r, pair.r)


def test_non_integrable_distribution_detected():
    """On a 3-chart, span{d/dx, d/dy + x d/dz} is the standard contact-type
    non-integrable plane field."""
    ch3 = Chart(("x", "y", "z"))
    x = parse_expr("x", ch3)
    g1 = VectorField.make(ch3, [1, 0, 0])
    g2 = VectorField.make(ch3, [0, 1, x])
    proj = Tensor11Field.make(ch3, [[1, 0, 0], [0, 1, 0], [0, x, 0]])
    comp = Tensor11Field.identity(ch3) - proj
    assert (apply_t11(proj, g1) - g1).is_zero and (apply_t11(proj, g2) - g2).is_zero
    assert not frobenius_criterion(proj, comp).is_zero


def test_non_integrable_distribution_fails_its_check():
    """P = 2r - I for the projector r above: distributions_integrable fails,
    and each nonzero residual of the structured report is a Frobenius
    residual of R."""
    scenario = parse_scenario(
        "scenario contact\nchart x y z\nparams alpha=1 beta=1\n"
        "structure P kind=product\n  row 1 , 0 , 0\n  row 0 , 1 , 0\n  row 0 , 2*x , -1\n"
        "distribution R\n  generator 1 , 0 , 0\n  generator 0 , 1 , x\n"
        "distribution S\n  generator 0 , 0 , 1\n"
        "check distributions_integrable P R S\n")
    report = run_scenario(scenario)
    (entry,) = json.loads(render_structured(report, scenario.params))["checks"]
    assert entry["verdict"] == "fail"
    nonzero = [r["label"] for r in entry["residuals"] if not r["exact_zero"]]
    assert nonzero == ["R Frobenius(e1,e2)[3]"]


# -- denominators containing sqrt(D) ----------------------------------------

SQRTD_KINDS = ("metallic", "component", "nijenhuis_zero",
               "distributions_integrable", "affine_invariance")


def sqrtd_example():
    """The worked example with x + y replaced by x + sqrtD*y: every entry of
    Psi then divides by (x + sqrtD*y)^2 + 1, a polynomial containing
    sqrt(D), which the kernel rationalises by its conjugate."""
    text = (resources.files("metallifts") / "scenarios" / "example_4_1.scn").read_text()
    lines = [line for line in text.replace("x+y", "x+sqrtD*y").splitlines()
             if not line.startswith("check ") or line.split()[1] in SQRTD_KINDS]
    return parse_scenario("\n".join(lines) + "\n", "example_4_1_sqrtD")


def test_sqrtd_denominators_end_to_end():
    report = run_scenario(sqrtd_example())
    assert [c.outcome.name for c in report.checks] == [
        "metallic", "component", "component", "component", "component",
        "nijenhuis_zero", "distributions_integrable", "affine_invariance"]
    assert [c.verdict for c in report.checks] == ["pass"] * 8


def _direct_projector_criterion(M, outer, inner):
    """outer N_Psi(inner e_i, inner e_j) by evaluating N_Psi on the
    projected fields, for every basis pair i < j."""
    n = M.chart.dimension
    cols = [apply_t11(inner, VectorField.basis(M.chart, i)) for i in range(n)]
    return {(i, j): apply_t11(outer, nijenhuis_apply(M.tensor, cols[i], cols[j]))
            for i in range(n) for j in range(i + 1, n)}


def _assert_matches_direct(M):
    pair = projectors_from_metallic(M)
    n = M.chart.dimension
    for which, outer, inner in (("r_on_s", pair.r, pair.s), ("s_on_r", pair.s, pair.r)):
        N = projector_criterion(M, which)
        for (i, j), value in _direct_projector_criterion(M, outer, inner).items():
            assert [N.components[h][i][j] for h in range(n)] == list(value.components)
            assert [N.components[h][j][i] for h in range(n)] == list((-value).components)


def test_projector_criterion_matches_direct_evaluation_with_sqrtd_denominators():
    scenario = sqrtd_example()
    M = MetallicStructure(scenario.params, scenario.structures["PSI"][1])
    _assert_matches_direct(M)


def test_projector_criterion_detects_non_integrable_eigendistribution():
    """P = 2r - I for the contact-type projector r of
    span{d/dx, d/dy + x d/dz}: s N(rX, rY) = s[rX, rY] up to a nonzero
    factor, so the s_on_r criterion is nonzero, and it agrees exactly with
    N_Psi evaluated on the projected fields."""
    ch3 = chart_over(GOLDEN, ("x", "y", "z"))
    x = parse_expr("x", ch3)
    r = Tensor11Field.make(ch3, [[1, 0, 0], [0, 1, 0], [0, x, 0]])
    P = r.scale(2) - Tensor11Field.identity(ch3)
    M = MetallicStructure(GOLDEN, (Tensor11Field.identity(ch3).scale(GOLDEN.alpha)
                                   + P.scale(GOLDEN.sqrtD)).scale(Fraction(1, 2)))
    assert (projectors_from_metallic(M).r - r).is_zero
    assert not projector_criterion(M, "s_on_r").is_zero
    assert projector_criterion(M, "r_on_s").is_zero
    _assert_matches_direct(M)


# -- the per-run memo of lifts and Nijenhuis tensors ------------------------

@pytest.fixture
def builds(monkeypatch):
    """Counts of the Nijenhuis and complete-lift builds that actually run:
    memo misses inside a run, every call outside one."""
    counts = {"nijenhuis": 0, "lift": 0}

    def count(memoised, key):
        build = memoised.__wrapped__

        def counted(*args):
            counts[key] += 1
            return build(*args)
        monkeypatch.setattr(memoised, "__wrapped__", counted)

    count(nijenhuis_t11, "nijenhuis")
    count(complete_lift_t11, "lift")
    return counts


def test_example_run_builds_each_nijenhuis_tensor_once(builds):
    """N(Psi), N(P), N(3I + 2Psi), N(Psi^C) and N(P^C); the lifts Psi^C and
    P^C.  A second run of the same parsed scenario builds them all again."""
    scenario = load_builtin("example_4_1")
    assert run_scenario(scenario).ok
    assert builds == {"nijenhuis": 5, "lift": 2}
    assert run_scenario(scenario).ok
    assert builds == {"nijenhuis": 10, "lift": 4}


@pytest.mark.parametrize("name, lifts", [
    ("section_linear", 1),     # Psi^C, shared by the three section checks
    ("horizontal_curved", 2),  # Psi^C and (Psi^2)^C, under Psi^H and (Psi^2)^H
])
def test_run_builds_each_complete_lift_once(builds, name, lifts):
    assert run_scenario(load_builtin(name)).ok
    assert builds["lift"] == lifts


def test_run_converts_each_product_once(monkeypatch):
    """gold_diag uses P as a metallic structure in four checks and converts
    it explicitly in two more; the run converts it once."""
    calls = []
    convert = metallic_from_product.__wrapped__
    monkeypatch.setattr(metallic_from_product, "__wrapped__",
                        lambda *args: calls.append(args) or convert(*args))
    assert run_scenario(load_builtin("gold_diag")).ok
    assert len(calls) == 1


def test_example_run_builds_each_projector_pair_once(monkeypatch):
    """example_4_1 asks for the projectors of Psi in three checks and of
    Psi^C in the two lifted projector criteria; the run builds two pairs."""
    built = []
    build = projectors_from_metallic.__wrapped__
    monkeypatch.setattr(projectors_from_metallic, "__wrapped__",
                        lambda M: built.append(M.chart.dimension) or build(M))
    assert run_scenario(load_builtin("example_4_1")).ok
    assert sorted(built) == [2, 4]


@pytest.mark.parametrize("name, expected", [
    # (PSI, V), shared by section_invariant and induced_metallic; (PSI, W)
    ("section_linear", {"invariance_check": 2}),
    # P~, shared by jtilde and jtilde_printed; Psi^H, shared by
    # horizontal_metallic and horizontal_square, and (Psi^2)^H
    ("horizontal_curved", {"frame_swap_product": 1, "horizontal_lift_t11": 2}),
    # P^2 - I, shared by four checks, and (P^C)^2 - I under np_relation
    ("gold_diag", {"square_residual": 2}),
])
def test_run_builds_each_shared_derived_object_once(monkeypatch, name, expected):
    """A second run of the same parsed scenario builds them all again."""
    shared = (invariance_check, frame_swap_product, horizontal_lift_t11, square_residual)
    calls = {fn.__name__: [] for fn in shared}

    def record(memoised):
        build = memoised.__wrapped__
        monkeypatch.setattr(memoised, "__wrapped__",
                            lambda *args: calls[memoised.__name__].append(args)
                            or build(*args))

    for fn in shared:
        record(fn)
    scenario = load_builtin(name)
    assert run_scenario(scenario).ok
    assert {k: len(calls[k]) for k in expected} == expected
    assert run_scenario(scenario).ok
    assert {k: len(calls[k]) for k in expected} == {k: 2 * n for k, n in expected.items()}
    if name == "section_linear":
        (psi, v), (psi_again, w) = calls["invariance_check"][:2]
        assert psi == psi_again and v != w


def test_calls_outside_a_run_build_every_time(builds):
    T = example_41_structure(GOLDEN).tensor
    assert nijenhuis_t11(T) is not nijenhuis_t11(T)
    assert complete_lift_t11(T) is not complete_lift_t11(T)
    assert builds == {"nijenhuis": 2, "lift": 2}


def test_memo_hits_only_exactly_equal_tensors(builds):
    _, T = load_builtin("example_4_1").structures["PSI"]
    shifted = T + Tensor11Field.identity(T.chart).scale(parse_expr("x", T.chart))
    with run_memo():
        n_t, n_shifted = nijenhuis_t11(T), nijenhuis_t11(shifted)
        assert builds["nijenhuis"] == 2
        builds["nijenhuis"] = 0
        # An equal tensor built another way is found; the stored results stay apart.
        rebuilt = shifted - Tensor11Field.identity(T.chart).scale(parse_expr("x", T.chart))
        assert rebuilt is not T
        assert nijenhuis_t11(rebuilt) is n_t
        assert nijenhuis_t11(shifted) is n_shifted
        assert builds["nijenhuis"] == 0
    assert n_t.is_zero and not n_shifted.is_zero
    assert (n_shifted - nijenhuis_t11(shifted)).is_zero


def _reflection_scenario(names, v) -> str:
    """The almost product structure P = I - 2 v v^T/(v.v) on the chart
    ``names``, for polynomial entries v: a reflection at every point."""
    norm = "+".join(f"({e})^2" for e in v)
    rows = "\n".join("  row " + " , ".join(
        f"{int(i == j)}-2*({v[i]})*({v[j]})/({norm})" for j in range(len(v)))
        for i in range(len(v)))
    return (f"scenario reflection\nchart {' '.join(names)}\nparams alpha=1 beta=1\n"
            f"structure P kind=product\n{rows}\n"
            "check np_relation P\ncheck affine_invariance P 3 2\n"
            "check nijenhuis_zero_lifted P\n")


def test_curved_product_structure_in_dimension_3():
    # A curved structure in dimension 3, larger than any workload's: every
    # component has the quartic denominator v.v, and N_P does not vanish.
    sc = parse_scenario(_reflection_scenario(("x", "y", "z"), ("1", "y+z^2", "z+x^2")))
    report = run_scenario(sc)
    assert [c.verdict for c in report.checks] == ["pass", "pass", "fail"]
