"""Seeded scenario generator for the benchmark workloads.

Every generated scenario is plain scenario-file text plus the verdict each
of its checks must receive.  The known verdicts follow from how the inputs
are built, never from running the verifier:

* curved family: ``Psi = sigma*r + (alpha - sigma)*s`` with the orthogonal
  projectors ``r``, ``s`` onto ``R = (1, -u)`` and ``S = (u, 1)``.  This is
  the closed form of ``example_4_1.scn`` with ``x+y`` replaced by ``u``.
  Its eigendistributions are line fields on the plane, so they are
  integrable, every Nijenhuis tensor involved vanishes, and all 12 checks
  pass.
* constant structures are built from exact 2x2 matrices with ``P^2 = I``
  (trace 0, determinant -1), ``T^2 = 0`` or ``J^2 = -I``.
* cross-sections: for constant ``Psi`` one has ``L_V Psi = Psi J - J Psi``
  with ``J`` the Jacobian of ``V``, so ``V`` is invariant exactly when
  ``J`` commutes with ``Psi``.
* false claims: a perturbed closed form differs from the true one by a
  nonzero function; a product-kind matrix whose square has an ``x^2`` term
  is not an involution, which the library rejects as a load of the
  structure (verdict ``error``).

The generator imports nothing from the verifier.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class GenScenario:
    name: str
    text: str
    sampler_seed: int
    expected: tuple[str, ...]  # one known verdict per check line, in order


# (alpha, beta) pairs with D = alpha^2 + 4*beta not a square, and pairs
# with D a square, where the coefficients collapse to QQ.  Within each
# group the cost of a curved scenario does not depend on the pair.
IRRATIONAL = ((1, 1), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2), (3, 3))
RATIONAL = ((1, 2), (2, 3), (1, 6), (3, 4), (4, 5))
# Curved draws per pass.  Short passes give a run more of them, so each
# check's median time rests on more samples.
CURVED_PER_PASS = {"curved_irrational": 1, "curved_rational": 2}
# The fixed (alpha, beta) of instance i of a catalog variant, even i with D
# not a square and odd i with D a square: every seed gives the same mix of
# coefficient fields, and only the shapes' coefficients vary with the seed.
CATALOG_PARAMS = ((1, 1), (1, 2))

WORKLOADS = ("curved_irrational", "curved_rational", "catalog")


def _params(i: int) -> tuple[int, int]:
    return CATALOG_PARAMS[i % len(CATALOG_PARAMS)]


# ---------------------------------------------------------------------------
# Text helpers
# ---------------------------------------------------------------------------

def _num(q) -> str:
    """An exact rational as grammar text (the grammar has no decimals)."""
    q = Fraction(q)
    text = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"({text})" if q < 0 or q.denominator != 1 else text


def _lin(coeffs: dict[str, int]) -> str:
    """Integer linear combination of monomials, e.g. {'x': 2, 'y': -1}."""
    parts = []
    for mono, c in coeffs.items():
        if c == 0:
            continue
        term = str(abs(c)) if mono == "1" else (mono if abs(c) == 1 else f"{abs(c)}*{mono}")
        parts.append(("-" if c < 0 else "+") + term)
    if not parts:
        return "0"
    text = "".join(parts)
    return text[1:] if text[0] == "+" else text


def _matrix_block(head: str, rows) -> list[str]:
    return [head] + [f"  row {' , '.join(r)}" for r in rows]


def _header(name: str, chart: str, alpha: int, beta: int) -> list[str]:
    return [f"scenario {name}", f"chart {chart}", f"params alpha={alpha} beta={beta}"]


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v != 0])


# ---------------------------------------------------------------------------
# Curved family (example 4.1 with x+y replaced by u)
# ---------------------------------------------------------------------------

def _curved_entries(u: str) -> dict[tuple[int, int], str]:
    return {
        (1, 1): f"((alpha-sigma)*({u})^2+sigma)/(({u})^2+1)",
        (2, 2): f"(sigma*({u})^2+(alpha-sigma))/(({u})^2+1)",
        (1, 2): f"-sqrtD*({u})/(({u})^2+1)",
        (2, 1): f"-sqrtD*({u})/(({u})^2+1)",
    }


def _curved_decl(u: str) -> list[str]:
    e = _curved_entries(u)
    return (_matrix_block("structure PSI kind=metallic",
                          [(e[1, 1], e[1, 2]), (e[2, 1], e[2, 2])])
            + ["distribution R", f"  generator 1 , -({u})",
               "distribution S", f"  generator {u} , 1"])


CURVED_CHECKS = (
    "metallic PSI",
    "component PSI 1 1 {e11}",
    "component PSI 2 2 {e22}",
    "component PSI 1 2 {e12}",
    "component PSI 2 1 {e21}",
    "nijenhuis_zero PSI",
    "nijenhuis_zero_lifted PSI",
    "np_relation PSI",
    "projector_criterion PSI r_on_s",
    "projector_criterion PSI s_on_r",
    "distributions_integrable PSI R S",
    "affine_invariance PSI 3 2",
)


def _draw_u(rng: random.Random) -> str:
    """u = c1*x + c2*y with c1, c2 in +-{1, 2}: a two-variable linear form
    like example 4.1's x+y, so Psi depends on both coordinates."""
    return _lin({"x": _nonzero(rng, -2, 2), "y": _nonzero(rng, -2, 2)})


def curved(name: str, alpha: int, beta: int, u: str) -> tuple[str, tuple[str, ...]]:
    e = _curved_entries(u)
    fmt = {"e11": e[1, 1], "e22": e[2, 2], "e12": e[1, 2], "e21": e[2, 1]}
    lines = _header(name, "x y", alpha, beta) + _curved_decl(u)
    lines += ["check " + c.format(**fmt) for c in CURVED_CHECKS]
    return "\n".join(lines) + "\n", ("pass",) * len(CURVED_CHECKS)


def curved_claims(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    """The curved structure with one true and two perturbed component
    claims: a perturbed closed form is off by a nonzero function."""
    alpha, beta = _params(i)
    u = _draw_u(rng)
    e = _curved_entries(u)
    k = rng.randint(2, 7)
    lines = _header(name, "x y", alpha, beta) + _curved_decl(u) + [
        "check metallic PSI",
        f"check component PSI 1 1 {e[1, 1]}",
        f"check component PSI 1 2 {e[1, 2]} + {k}*x/(({u})^2+1)",
        f"check component PSI 2 2 {e[2, 2]} - 1/{k}",
    ]
    return "\n".join(lines) + "\n", ("pass", "pass", "fail", "fail")


# ---------------------------------------------------------------------------
# Constant structures
# ---------------------------------------------------------------------------

def _square_root_matrix(rng: random.Random, square: int) -> list[list[Fraction]]:
    """[[a, b], [c, -a]] with a^2 + b*c = square, so M^2 = square * I and
    M is not a multiple of the identity (b != 0)."""
    a = Fraction(rng.randint(-3, 3))
    b = Fraction(_nonzero(rng, -3, 3))
    return [[a, b], [(square - a * a) / b, -a]]


def _rows(m) -> list[tuple[str, ...]]:
    return [tuple(_num(v) for v in row) for row in m]


def constant_product(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    alpha, beta = _params(i)
    checks = ("almost_product", "metallic_from_product", "roundtrip",
              "projector_algebra", "projector_expansions",
              "complete_lift_metallic", "nijenhuis_zero", "np_relation")
    lines = (_header(name, "x y", alpha, beta)
             + _matrix_block("structure P kind=product", _rows(_square_root_matrix(rng, 1)))
             + [f"check {c} P" for c in checks])
    return "\n".join(lines) + "\n", ("pass",) * len(checks)


def derived_structures(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    """Example-3.1 shape: the composite relation and (ST)^C = S^C T^C are
    identities; the tangent-derived structure satisfies
    X^2 - alpha*X + alpha^2/4; the complex-derived one has constant term
    alpha^2/2 + beta, which differs from the printed alpha^2/4 + beta."""
    alpha, beta = _params(i)
    lines = (_header(name, "x y", alpha, beta)
             + _matrix_block("structure P kind=product", _rows(_square_root_matrix(rng, 1)))
             + _matrix_block("structure F kind=product", _rows(_square_root_matrix(rng, 1)))
             + _matrix_block("structure T kind=tangent", _rows(_square_root_matrix(rng, 0)))
             + _matrix_block("structure J kind=complex", _rows(_square_root_matrix(rng, -1)))
             + ["check composite_relation P F", "check composition_lift P F",
                "check tangent_polynomial T", "check complex_polynomial J",
                "check complete_lift_metallic P"])
    return "\n".join(lines) + "\n", ("pass",) * 5


def means(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    alpha, beta = _params(i)
    disc = alpha * alpha + 4 * beta
    root = math.isqrt(disc)
    closed = f"({alpha}+{root})/2" if root * root == disc else f"({alpha}+sqrtD)/2"
    k = rng.randint(2, 9)
    lines = _header(name, "x", alpha, beta) + [
        "check mean_defining",
        f"check mean_value {closed}",
        f"check mean_value {closed} + 1/{k}",
    ]
    return "\n".join(lines) + "\n", ("pass", "pass", "fail")


def non_product(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    """Q = [[a*x + e, b], [c, d]] with a != 0: (Q^2)[1][1] has the term
    a^2 x^2, so Q^2 != I.  almost_product fails; every check that needs Q
    as a product or metallic structure cannot load it and errors."""
    alpha, beta = _params(i)
    q = [(_lin({"x": _nonzero(rng, -3, 3), "1": rng.randint(-2, 2)}),
          str(rng.randint(-2, 2))),
         (str(rng.randint(-2, 2)), _lin({"1": rng.randint(-2, 2)}))]
    lines = (_header(name, "x y", alpha, beta)
             + _matrix_block("structure Q kind=product", q)
             + ["check almost_product Q", "check metallic_from_product Q",
                "check roundtrip Q", "check metallic Q"])
    return "\n".join(lines) + "\n", ("fail", "error", "error", "error")


# ---------------------------------------------------------------------------
# Connections and horizontal lifts
# ---------------------------------------------------------------------------

def horizontal(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    """Horizontal lifts along a torsion-free connection with polynomial
    coefficients: (FG)^H = F^H G^H makes Psi^H metallic and gives the
    square law; the frame-swap structure is metallic for every connection,
    and its printed form coincides with the derived one iff alpha = 1
    (jtilde_printed claims exactly that)."""
    alpha, beta = _params(i)
    # Gamma^1 = [[a*x, b], [b, 0]], Gamma^2 = [[0, c*y], [c*y, d*x*y]]:
    # symmetric in the lower indices, with nonzero coefficients.
    a, b, c, d = (_nonzero(rng, -2, 2) for _ in range(4))
    lines = (_header(name, "x y", alpha, beta)
             + _matrix_block("structure P kind=product", _rows(_square_root_matrix(rng, 1)))
             + ["connection G",
                "  block", f"    row {a}*x , {b}", f"    row {b} , 0",
                "  block", f"    row 0 , {c}*y", f"    row {c}*y , {d}*x*y"])
    lines += ["check horizontal_metallic P G", "check horizontal_square P G",
              "check jtilde G", "check jtilde_printed G"]
    return "\n".join(lines) + "\n", ("pass",) * 4


# ---------------------------------------------------------------------------
# Cross-sections
# ---------------------------------------------------------------------------

def _poly2(rng: random.Random, var: str) -> str:
    """c1*t + c2*t^2 with t = var and c1, c2 nonzero."""
    return _lin({f"({var})": _nonzero(rng, -2, 2), f"({var})^2": _nonzero(rng, -1, 1)})


def _small_field(rng: random.Random) -> tuple[str, str]:
    """(c1*x*y + c2, c3*y^2 + c4*x) with nonzero coefficients."""
    c = [_nonzero(rng, -2, 2) for _ in range(4)]
    return _lin({"x*y": c[0], "1": c[1]}), _lin({"y^2": c[2], "x": c[3]})


def sections(name: str, rng: random.Random, i: int) -> tuple[str, tuple[str, ...]]:
    """P is the swap or diag(1, -1).  V's Jacobian commutes with P, so V is
    invariant: for the swap V = (f(x+y) + g(x-y), f(x+y) - g(x-y)), for the
    diagonal V = (f(x), g(y)).  W = (c*x*y + d*y, 0) with c != 0 has a
    Jacobian that commutes with neither, so W is not invariant."""
    alpha, beta = _params(i)
    if i % 2 == 0:
        p = [("0", "1"), ("1", "0")]
        f, g = _poly2(rng, "x+y"), _poly2(rng, "x-y")
        v = (f"{f}+({g})", f"{f}-({g})")
    else:
        p = [("1", "0"), ("0", "-1")]
        v = (_poly2(rng, "x"), _poly2(rng, "y"))
    w = (_lin({"x*y": _nonzero(rng, -2, 2), "y": rng.randint(-2, 2)}), "0")
    X, Y = _small_field(rng), _small_field(rng)
    lines = (_header(name, "x y", alpha, beta)
             + _matrix_block("structure PSI kind=product", p)
             + [f"field V\n  row {v[0]} , {v[1]}", f"field W\n  row {w[0]} , {w[1]}",
                f"field X\n  row {X[0]} , {X[1]}", f"field Y\n  row {Y[0]} , {Y[1]}",
                "check section_lifts V X Y", "check section_invariant PSI V",
                "check induced_metallic PSI V", "check section_nijenhuis PSI V",
                "check section_not_invariant PSI W",
                "check section_invariant PSI W", "check induced_metallic PSI W"])
    return "\n".join(lines) + "\n", ("pass",) * 5 + ("fail", "error")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def builtin_texts(src: Path) -> list[tuple[str, str]]:
    """The bundled scenarios, read as text from the package source."""
    root = src / "metallifts" / "scenarios"
    return [(p.stem, p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.scn"))]


def count_checks(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line.split("#", 1)[0].split()[:1] == ["check"])


_VARIANTS = (
    ("const", constant_product, 2),
    ("derived", derived_structures, 2),
    ("means", means, 2),
    ("horizontal", horizontal, 2),
    ("section", sections, 2),
    ("claims", curved_claims, 2),
    ("nonproduct", non_product, 2),
)


def generate(workload: str, seed: int, src: Path) -> list[GenScenario]:
    """The scenarios of one pass of ``workload`` for ``seed``.  ``src`` is
    the package source directory; only ``catalog`` reads it (for the
    bundled scenarios, all of whose checks are documented to pass)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out: list[tuple[str, str, tuple[str, ...]]] = []
    if workload in ("curved_irrational", "curved_rational"):
        group = IRRATIONAL if workload == "curved_irrational" else RATIONAL
        pairs = rng.sample(group, CURVED_PER_PASS[workload])
        for i, (alpha, beta) in enumerate(pairs):
            name = f"{workload}_{i}"
            out.append((name, *curved(name, alpha, beta, _draw_u(rng))))
    else:
        for name, text in builtin_texts(src):
            out.append((name, text, ("pass",) * count_checks(text)))
        for tag, make, count in _VARIANTS:
            for i in range(count):
                name = f"gen_{tag}_{i}"
                out.append((name, *make(name, rng, i)))
    return [GenScenario(name, text, rng.randrange(2 ** 31), expected)
            for name, text, expected in out]
