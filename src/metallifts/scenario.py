"""Line-oriented scenario files.

A scenario declares a chart, the (alpha, beta) pair, named tensors /
fields / connections / distributions whose entries use the expression
grammar of :mod:`.symexpr`, and an ordered list of checks.  Format::

    # comment (anywhere; '#' to end of line)
    scenario NAME
    chart VAR VAR ...               # identifiers, not alpha, beta, sigma or sqrtD
    params alpha=A beta=B

    structure NAME kind=KIND        # KIND: product|metallic|tangent|complex
      row EXPR , EXPR , ...         # one line per matrix row
      ...

    field NAME
      row EXPR , EXPR , ...         # the components, one line

    connection NAME                 # coefficients Gamma[h][l][i]
      block                         # one block per output index h
        row EXPR , EXPR , ...       # the matrix Gamma[h][.][.]
      ...

    distribution NAME
      generator EXPR , EXPR , ...   # one line per generator field

    check TYPE ARG ...              # ARGs are names, integers, or one
                                    # trailing expression, per check type

Commas separate entries; the expression grammar itself contains no
commas.  Indentation is cosmetic.  A scenario parses each expression text
once: an entry or check argument that repeats an earlier text, up to runs
of whitespace, is that text's value (``Scenario.exprs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Connection, Tensor11Field, VectorField
from .numfield import MetallicParams, make_params
from .symexpr import (PARAM_NAMES, Chart, ExprError, RatFunc, _excerpt, _tokenize, parse_expr,
                      parse_integer)

STRUCTURE_KINDS = ("product", "metallic", "tangent", "complex")


class ScenarioError(ValueError):
    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        if line is not None:
            path = f"line {line}" if path is None else f"{path}:{line}"
        super().__init__(message if path is None else f"{path}: {message}")


@dataclass(frozen=True)
class CheckSpec:
    raw: str
    kind: str
    args: tuple[str, ...]


@dataclass
class Scenario:
    name: str
    chart: Chart
    params: MetallicParams
    structures: dict[str, tuple[str, Tensor11Field]] = field(default_factory=dict)
    fields: dict[str, VectorField] = field(default_factory=dict)
    connections: dict[str, Connection] = field(default_factory=dict)
    distributions: dict[str, tuple[VectorField, ...]] = field(default_factory=dict)
    checks: list[CheckSpec] = field(default_factory=list)
    # The value of each expression text parsed on this scenario, keyed by the
    # text with its runs of whitespace collapsed (see ``parse_once``).
    exprs: dict[str, RatFunc] = field(default_factory=dict, compare=False, repr=False)


def parse_once(memo: dict, text: str, chart: Chart, params: MetallicParams) -> RatFunc:
    """``parse_expr(text, chart, params)``, kept in ``memo`` under the text
    with its runs of whitespace collapsed, and read from there when a text
    comes again.  A text that fails is not kept, so it raises its own error
    every time."""
    key = " ".join(text.split())
    value = memo.get(key)
    if value is None:
        value = memo[key] = parse_expr(text, chart, params)
    return value


def _split_kv(token: str, key: str) -> str:
    if not token.startswith(key + "="):
        raise ValueError(f"expected {key}=..., found {token!r}")
    return token[len(key) + 1:]


def _header(head: str, rest: str):
    """The value of a scenario, chart or params line."""
    if head == "scenario":
        if not rest:
            raise ValueError("scenario needs a name")
        return rest
    if head == "chart":  # the names; the Chart is built once params are in
        names = tuple(rest.split())
        if not names:
            raise ValueError("chart needs at least one variable name")
        for n in names:
            if n in PARAM_NAMES:
                raise ValueError(f"chart variable {n!r} would shadow the parameter of that name")
            try:  # one identifier token, or no expression could name it
                kinds = [kind for kind, _, _ in _tokenize(n)]
            except ExprError:
                kinds = None
            if kinds != ["ident", "end"]:
                raise ValueError(f"chart variable {_excerpt(n)} is not a name an expression "
                                 f"can use")
        if len(set(names)) != len(names):
            raise ValueError("chart variable names must be distinct")
        return names
    parts = rest.split()
    if len(parts) != 2:
        raise ValueError("params needs alpha=A beta=B")
    alpha, beta = _split_kv(parts[0], "alpha"), _split_kv(parts[1], "beta")
    try:
        return make_params(parse_integer(alpha), parse_integer(beta))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid params: {exc}") from exc


def _entry(piece: str, chart: Chart, params: MetallicParams, memo: dict) -> RatFunc:
    piece = piece.strip()
    if not piece:
        raise ValueError("empty entry in comma-separated list")
    try:
        return parse_once(memo, piece, chart, params)
    except ExprError as exc:
        raise ValueError(f"in expression {_excerpt(piece)}: {exc}") from exc


def _structure(chart, name, skind, rows):
    n = chart.dimension
    if len(rows) != n or any(len(r) != n for r in rows):
        return f"structure {name!r} needs a {n}x{n} matrix"
    return skind, Tensor11Field(chart, tuple(map(tuple, rows)))


def _field(chart, name, _, rows):
    n = chart.dimension
    if len(rows) != 1 or len(rows[0]) != n:
        return f"field {name!r} needs one row of {n} components"
    return VectorField(chart, tuple(rows[0]))


def _connection(chart, name, _, blocks):
    n = chart.dimension
    if len(blocks) != n or any(len(b) != n or any(len(r) != n for r in b) for b in blocks):
        return f"connection {name!r} needs {n} blocks of {n}x{n} rows"
    return Connection(chart, tuple(tuple(map(tuple, b)) for b in blocks))


def _distribution(chart, name, _, rows):
    n = chart.dimension
    if not rows:
        return f"distribution {name!r} needs at least one generator"
    if any(len(r) != n for r in rows):
        return f"distribution {name!r} needs generators of {n} components"
    return tuple(VectorField(chart, tuple(r)) for r in rows)


# The declaration kinds, each Scenario's field of its plural: the keyword of
# their body lines, and the builder that returns the value, or the message
# that refuses the shape of the parsed body lines.
_DECLARATIONS = {"structure": ("row", _structure), "field": ("row", _field),
                 "connection": ("row", _connection),
                 "distribution": ("generator", _distribution)}


def parse_scenario(text: str, path: str | None = None) -> Scenario:
    given: dict = {}  # the values of the scenario, chart and params lines
    declared: dict = {kind: {} for kind in _DECLARATIONS}
    checks: list[CheckSpec] = []
    exprs: dict = {}  # Scenario.exprs
    kind = name = extra = at = None  # the open declaration, if any,
    body: list = []  # and its parsed lines

    def close():
        if kind is None:
            return
        if name in declared[kind]:
            raise ScenarioError(f"{kind} {name!r} is declared twice", path, at)
        value = _DECLARATIONS[kind][1](given["chart"], name, extra, body)
        if isinstance(value, str):
            raise ScenarioError(value, path, at)
        declared[kind][name] = value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, rest = (line.split(None, 1) + [""])[:2]
        body_line = head in ("row", "generator", "block")
        if not body_line:
            close()
            kind = None
        try:
            if body_line:
                if kind is None:
                    raise ValueError(f"{head!r} outside of a declaration")
                if head == "block":
                    if kind != "connection":
                        raise ValueError("'block' only belongs to a connection")
                    if rest:
                        raise ValueError(f"'block' takes nothing after it, found {_excerpt(rest)}")
                    body.append([])
                    continue
                if head != (keyword := _DECLARATIONS[kind][0]):
                    raise ValueError(f"{kind}s use {keyword!r} lines"
                                     + " inside blocks" * (kind == "connection"))
                if kind == "connection" and not body:
                    raise ValueError("row before the first block")
                # a connection's rows go into the sub-list of its last block
                (body[-1] if kind == "connection" else body).append(
                    [_entry(piece, given["chart"], given["params"], exprs)
                     for piece in rest.split(",")])
            elif head in ("scenario", "chart", "params"):
                if head in given:
                    raise ValueError(f"{head!r} is given twice")
                given[head] = _header(head, rest)
                if head != "scenario" and "chart" in given and "params" in given:
                    # the chart's coefficient field is the params' Q(sqrt D)
                    given["chart"] = Chart(given["chart"], given["params"].radicand)
            elif head != "check" and head not in _DECLARATIONS:
                raise ValueError(f"unknown directive {head!r}")
            elif "chart" not in given or "params" not in given:
                raise ValueError("chart and params must precede other declarations")
            elif head == "check":
                if not rest:
                    raise ValueError("check needs a type")
                ctype, *args = rest.split()
                checks.append(CheckSpec(line, ctype, tuple(args)))
            else:
                name, extra, parts = rest, None, rest.split()
                if head == "structure":
                    if len(parts) != 2:
                        raise ValueError("structure needs NAME kind=KIND")
                    name, extra = parts[0], _split_kv(parts[1], "kind")
                    if extra not in STRUCTURE_KINDS:
                        raise ValueError(f"unknown structure kind {extra!r}")
                elif not rest:
                    raise ValueError(f"{head} needs a name")
                elif len(parts) > 1:
                    raise ValueError(f"{head} takes one NAME, found {_excerpt(rest)}")
                kind, at, body = head, lineno, []
        except ValueError as exc:
            raise ScenarioError(str(exc), path, lineno) from exc
    close()
    if "scenario" not in given:
        raise ScenarioError("missing 'scenario NAME' line", path)
    if "chart" not in given or "params" not in given:
        raise ScenarioError("missing chart or params", path)
    if not checks:
        raise ScenarioError("scenario declares no checks", path)
    return Scenario(given["scenario"], given["chart"], given["params"],
                    **{kind + "s": values for kind, values in declared.items()},
                    checks=checks, exprs=exprs)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text (byte {exc.start}: {exc.reason})",
                            str(path)) from exc
    return parse_scenario(text, str(path))
