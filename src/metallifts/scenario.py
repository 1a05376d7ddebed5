"""Line-oriented scenario files.

A scenario declares a chart, the (alpha, beta) pair, named tensors /
fields / connections / distributions whose entries use the expression
grammar of :mod:`.symexpr`, and an ordered list of checks.  Format::

    # comment (anywhere; '#' to end of line)
    scenario NAME
    chart VAR VAR ...               # not alpha, beta, sigma or sqrtD
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
commas.  Indentation is cosmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Connection, Tensor11Field, VectorField
from .numfield import MetallicParams, make_params
from .symexpr import PARAM_NAMES, Chart, ExprError, RatFunc, parse_expr, parse_integer

STRUCTURE_KINDS = ("product", "metallic", "tangent", "complex")


class ScenarioError(ValueError):
    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}: " if line is None else f"{path}:{line}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(f"{where}{message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class CheckSpec:
    raw: str
    kind: str
    args: tuple[str, ...]
    line: int


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


def _strip(line: str) -> str:
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.strip()


def _split_kv(token: str, key: str, path, lineno) -> str:
    if not token.startswith(key + "="):
        raise ScenarioError(f"expected {key}=..., found {token!r}", path, lineno)
    return token[len(key) + 1:]


def _excerpt(text: str) -> str:
    """text quoted for an error message, cut after 60 characters: the parse
    error that follows it names the position."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}... ({len(text)} characters)"


class _Loader:
    def __init__(self, text: str, path: str | None):
        self.path = path
        self.lines = text.splitlines()
        self.name: str | None = None
        self.chart: Chart | None = None
        self.params: MetallicParams | None = None
        self.headers: set[str] = set()  # the scenario/chart/params lines seen
        self.structures: dict = {}
        self.fields: dict = {}
        self.connections: dict = {}
        self.distributions: dict = {}
        self.checks: list[CheckSpec] = []
        # the open multi-line item, if any:
        self.pending = None  # (kind, name, extra, rows, lineno)

    def err(self, msg, lineno) -> ScenarioError:
        return ScenarioError(msg, self.path, lineno)

    def need_header(self, lineno):
        if self.chart is None or self.params is None:
            raise self.err("chart and params must precede other declarations", lineno)

    def parse_entry_line(self, rest: str, lineno) -> list[RatFunc]:
        out = []
        for piece in rest.split(","):
            piece = piece.strip()
            if not piece:
                raise self.err("empty entry in comma-separated list", lineno)
            try:
                out.append(parse_expr(piece, self.chart, self.params))
            except ExprError as exc:
                raise self.err(f"in expression {_excerpt(piece)}: {exc}", lineno) from exc
        return out

    def close_pending(self):
        if self.pending is None:
            return
        kind, name, extra, rows, lineno = self.pending
        self.pending = None
        declared = {"structure": self.structures, "field": self.fields,
                    "connection": self.connections, "distribution": self.distributions}
        if name in declared[kind]:
            raise self.err(f"{kind} {name!r} is declared twice", lineno)
        n = self.chart.dimension
        if kind == "structure":
            if len(rows) != n or any(len(r) != n for r in rows):
                raise self.err(f"structure {name!r} needs a {n}x{n} matrix", lineno)
            self.structures[name] = (extra, Tensor11Field(self.chart, tuple(map(tuple, rows))))
        elif kind == "field":
            if len(rows) != 1 or len(rows[0]) != n:
                raise self.err(f"field {name!r} needs one row of {n} components", lineno)
            self.fields[name] = VectorField(self.chart, tuple(rows[0]))
        elif kind == "connection":
            blocks, current = [], None
            for tag, row in rows:
                if tag == "block":
                    current = []
                    blocks.append(current)
                else:
                    if current is None:
                        raise self.err("row before the first block", lineno)
                    current.append(tuple(row))
            if len(blocks) != n or any(len(b) != n or any(len(r) != n for r in b)
                                       for b in blocks):
                raise self.err(f"connection {name!r} needs {n} blocks of {n}x{n} rows", lineno)
            self.connections[name] = Connection(self.chart, tuple(map(tuple, blocks)))
        elif kind == "distribution":
            if not rows:
                raise self.err(f"distribution {name!r} needs at least one generator", lineno)
            if any(len(r) != n for r in rows):
                raise self.err(f"distribution {name!r} needs generators of {n} components",
                               lineno)
            gens = tuple(VectorField(self.chart, tuple(r)) for r in rows)
            self.distributions[name] = gens

    def feed(self, lineno: int, line: str):
        tokens = line.split(None, 1)
        head = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""

        if head in ("row", "generator", "block"):
            if self.pending is None:
                raise self.err(f"{head!r} outside of a declaration", lineno)
            kind = self.pending[0]
            if head == "block":
                if kind != "connection":
                    raise self.err("'block' only belongs to a connection", lineno)
                self.pending[3].append(("block", None))
                return
            entries = self.parse_entry_line(rest, lineno)
            if kind == "connection":
                if head != "row":
                    raise self.err("connections use 'row' lines inside blocks", lineno)
                self.pending[3].append(("row", entries))
            elif kind == "distribution":
                if head != "generator":
                    raise self.err("distributions use 'generator' lines", lineno)
                self.pending[3].append(entries)
            else:
                if head != "row":
                    raise self.err(f"{kind}s use 'row' lines", lineno)
                self.pending[3].append(entries)
            return

        self.close_pending()

        if head in ("scenario", "chart", "params"):
            if head in self.headers:
                raise self.err(f"{head!r} is given twice", lineno)
            self.headers.add(head)
        if head == "scenario":
            if not rest:
                raise self.err("scenario needs a name", lineno)
            self.name = rest.strip()
        elif head == "chart":
            names = rest.split()
            if not names:
                raise self.err("chart needs at least one variable name", lineno)
            reserved = [n for n in names if n in PARAM_NAMES]
            if reserved:
                raise self.err(f"chart variable {reserved[0]!r} would shadow the "
                               f"parameter of that name", lineno)
            try:
                self.chart = Chart(names)
            except ValueError as exc:
                raise self.err(str(exc), lineno) from exc
        elif head == "params":
            parts = rest.split()
            if len(parts) != 2:
                raise self.err("params needs alpha=A beta=B", lineno)
            try:
                alpha = parse_integer(_split_kv(parts[0], "alpha", self.path, lineno))
                beta = parse_integer(_split_kv(parts[1], "beta", self.path, lineno))
                self.params = make_params(alpha, beta)
            except (TypeError, ValueError) as exc:
                raise self.err(f"invalid params: {exc}", lineno) from exc
        elif head == "structure":
            self.need_header(lineno)
            parts = rest.split()
            if len(parts) != 2:
                raise self.err("structure needs NAME kind=KIND", lineno)
            name = parts[0]
            skind = _split_kv(parts[1], "kind", self.path, lineno)
            if skind not in STRUCTURE_KINDS:
                raise self.err(f"unknown structure kind {skind!r}", lineno)
            self.pending = ("structure", name, skind, [], lineno)
        elif head == "field":
            self.need_header(lineno)
            if not rest:
                raise self.err("field needs a name", lineno)
            self.pending = ("field", rest.strip(), None, [], lineno)
        elif head == "connection":
            self.need_header(lineno)
            if not rest:
                raise self.err("connection needs a name", lineno)
            self.pending = ("connection", rest.strip(), None, [], lineno)
        elif head == "distribution":
            self.need_header(lineno)
            if not rest:
                raise self.err("distribution needs a name", lineno)
            self.pending = ("distribution", rest.strip(), None, [], lineno)
        elif head == "check":
            self.need_header(lineno)
            parts = rest.split()
            if not parts:
                raise self.err("check needs a type", lineno)
            self.checks.append(CheckSpec(line, parts[0], tuple(parts[1:]), lineno))
        else:
            raise self.err(f"unknown directive {head!r}", lineno)

    def finish(self) -> Scenario:
        self.close_pending()
        if self.name is None:
            raise ScenarioError("missing 'scenario NAME' line", self.path)
        if self.chart is None or self.params is None:
            raise ScenarioError("missing chart or params", self.path)
        if not self.checks:
            raise ScenarioError("scenario declares no checks", self.path)
        return Scenario(self.name, self.chart, self.params, self.structures,
                        self.fields, self.connections, self.distributions,
                        self.checks)


def parse_scenario(text: str, path: str | None = None) -> Scenario:
    loader = _Loader(text, path)
    for lineno, raw in enumerate(loader.lines, start=1):
        line = _strip(raw)
        if line:
            loader.feed(lineno, line)
    return loader.finish()


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text (byte {exc.start}: {exc.reason})",
                            str(path)) from exc
    return parse_scenario(text, str(path))
