"""The cross-section of TM determined by a vector field V: x -> (x, V(x)).

"Along the section" means substituting every fiber coordinate by the
matching component of V, which turns TM-chart expressions back into
base-chart expressions.  BX is the push-forward of X tangent to the
section, CX the fiber-tangent assignment (componentwise the vertical
lift).
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (Tensor11Field, Tensor12Field, VectorField, _contract, _index_label,
                       _same_chart, apply_t11, lie_derivative, per_run)
from .integrability import nijenhuis_t11
from .lifts import complete_lift_t11, complete_lift_vf, tangent_bundle, vertical_lift_vf
from .metallic import MetallicStructure, StructureError
from .symexpr import RatFunc


@dataclass(frozen=True)
class CrossSection:
    V: VectorField

    @property
    def chart(self):
        return self.V.chart

    def bindings(self) -> dict[str, RatFunc]:
        tb = tangent_bundle(self.chart)
        return dict(zip(tb.fiber_variables, self.V.components))


def b_lift(X: VectorField, cs: CrossSection) -> VectorField:
    """BX = (X^h, X^i d_i V^h); tangent to the section, x-only components."""
    _same_chart(X, cs)
    tb = tangent_bundle(cs.chart)
    names = cs.chart.variables
    lower = tuple(_contract(X.components, [v.diff(name) for name in names])
                  for v in cs.V.components)
    return VectorField(tb.chart, tuple(tb.up(c) for c in X.components + lower))


def c_lift(X: VectorField) -> VectorField:
    """CX = (0, X^h); componentwise the vertical lift."""
    tb = tangent_bundle(X.chart)
    zero = RatFunc.constant(tb.chart, 0)
    return VectorField(tb.chart, tuple([zero] * tb.n + [tb.up(c) for c in X.components]))


def restrict_to_section(obj, cs: CrossSection):
    """Substitute y^h := V^h(x).  A RatFunc maps to a base-chart RatFunc,
    a vector field on TM to the tuple of its base-chart components."""
    binds = cs.bindings()

    def sub(f: RatFunc) -> RatFunc:
        return f.substitute(binds)

    if isinstance(obj, RatFunc):
        return sub(obj)
    if isinstance(obj, VectorField):
        return tuple(sub(c) for c in obj.components)
    raise TypeError(f"cannot restrict {type(obj).__name__}")


def _zero(values) -> bool:
    return all(c.is_zero for c in values)


@dataclass(frozen=True)
class LiftDecomposition:
    """Residuals of the bracket and lift identities along the section:

    [BX, BY] - B[X, Y],   [CX, CY],
    X^C - (BX + C(L_V X))   (restricted to the section),   X^V - CX.
    """

    b_bracket: VectorField
    c_bracket: VectorField
    complete: tuple[RatFunc, ...]
    vertical: VectorField


def lift_decomposition_check(X: VectorField, Y: VectorField,
                             cs: CrossSection) -> LiftDecomposition:
    bx = b_lift(X, cs)
    return LiftDecomposition(
        b_bracket=lie_derivative(bx, b_lift(Y, cs)) - b_lift(lie_derivative(X, Y), cs),
        c_bracket=lie_derivative(c_lift(X), c_lift(Y)),
        complete=restrict_to_section(
            complete_lift_vf(X) - bx - c_lift(lie_derivative(cs.V, X)), cs),
        vertical=vertical_lift_vf(X) - c_lift(X))


@dataclass(frozen=True)
class Invariance:
    """L_V Psi, which vanishes exactly when the section is invariant; the
    images Psi^C(B e_i) along the section; and, per basis field e_i, the
    residual of Psi^C(B e_i) = B(Psi e_i) + C((L_V Psi) e_i) there."""

    lie_derivative: Tensor11Field
    images: tuple[tuple[RatFunc, ...], ...]
    decomposition: tuple[tuple[RatFunc, ...], ...]


@per_run
def invariance_check(M: MetallicStructure, cs: CrossSection) -> Invariance:
    _same_chart(M, cs)
    lie = lie_derivative(cs.V, M.tensor)
    psi_c = complete_lift_t11(M.tensor)
    images, decomposition = [], []
    for i in range(cs.chart.dimension):
        e = VectorField.basis(cs.chart, i)
        image = restrict_to_section(apply_t11(psi_c, b_lift(e, cs)), cs)
        rhs = restrict_to_section(
            b_lift(apply_t11(M.tensor, e), cs) + c_lift(apply_t11(lie, e)), cs)
        images.append(image)
        decomposition.append(tuple(a - b for a, b in zip(image, rhs)))
    return Invariance(lie, tuple(images), tuple(decomposition))


def induced_structure(M: MetallicStructure, cs: CrossSection) -> MetallicStructure:
    """The tensor on the section sending BX to Psi^C(BX), in the section's
    intrinsic (base-chart) coordinates; requires invariance."""
    inv = invariance_check(M, cs)
    bad = inv.lie_derivative.first_nonzero()
    if bad is not None:
        raise StructureError(
            f"section is not invariant: (L_V Psi){_index_label(bad[:-1])} != 0")

    chart = cs.chart
    n = chart.dimension
    columns = [image[:n] for image in inv.images]
    for image, col in zip(inv.images, columns):
        # Tangency: the image must be B of its base part.
        if restrict_to_section(b_lift(VectorField(chart, col), cs), cs) != image:
            raise StructureError("image of BX is not tangent to the section")
    return MetallicStructure(M.params, Tensor11Field(chart, tuple(zip(*columns))))


@dataclass(frozen=True)
class SectionNijenhuis:
    """Along the section, per basis pair (i, j) with i < j: the values
    N_{Psi^C}(B e_i, B e_j) and the residuals of their decomposition
    B(N_Psi(e_i, e_j)) + C((L_V N_Psi)(e_i, e_j)); also N_Psi, L_V N_Psi
    and L_V Psi on the base."""

    section: dict[tuple[int, int], tuple[RatFunc, ...]]
    decomposition: dict[tuple[int, int], tuple[RatFunc, ...]]
    nijenhuis: Tensor12Field
    lie_nijenhuis: Tensor12Field
    lie_derivative: Tensor11Field

    @property
    def equivalence_ok(self) -> bool:
        """On invariant sections the section Nijenhuis vanishes iff the
        base one does."""
        return (not self.lie_derivative.is_zero
                or all(map(_zero, self.section.values())) == self.nijenhuis.is_zero)


def section_nijenhuis_check(M: MetallicStructure, cs: CrossSection) -> SectionNijenhuis:
    _same_chart(M, cs)
    chart = cs.chart
    n = chart.dimension
    n_lift = nijenhuis_t11(complete_lift_t11(M.tensor))
    n_base = nijenhuis_t11(M.tensor)
    lie_n = lie_derivative(cs.V, n_base)
    basis = [VectorField.basis(chart, i) for i in range(n)]
    lifted = [b_lift(e, cs) for e in basis]
    section, decomposition = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            lhs = restrict_to_section(n_lift.evaluate(lifted[i], lifted[j]), cs)
            rhs = restrict_to_section(b_lift(n_base.evaluate(basis[i], basis[j]), cs)
                                      + c_lift(lie_n.evaluate(basis[i], basis[j])), cs)
            section[i, j] = lhs
            decomposition[i, j] = tuple(a - b for a, b in zip(lhs, rhs))
    return SectionNijenhuis(section, decomposition, n_base, lie_n,
                            lie_derivative(cs.V, M.tensor))
