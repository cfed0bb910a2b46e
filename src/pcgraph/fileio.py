"""Instance file format (JSON) and DOT graph export.

The file schema is strict: unknown fields are rejected so that typos
fail loudly instead of silently changing the instance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterator, Mapping

from .errors import PcgFileError
from .graph import PCG, SignedEdge
from .states import BTerm

# Largest vertex count of an instance file: verify(loop_pcg(n), lhv_cap=0) takes
# about 0.8 s at n = 16000 (best of 3; 0.8-1.1 s for one run) and 12 s at n = 64000
# on a 2-CPU host with Python 3.11 (near-quadratic).
MAX_FILE_N = 1 << 14
# Longest edges and b_terms lists, so that a loop fits at the vertex ceiling.  On a
# 2-CPU host verify takes about 1.0 s on loop_pcg(16384) and 0.75 s on the complete
# graph K_181 (16,290 edges); with 128 b-terms on that loop, the check that each
# b-term meets every edge's complement takes 0.8 s and verify 1.6 s.
MAX_FILE_EDGES = 1 << 14
MAX_FILE_B_TERMS = 1 << 7


@dataclass(frozen=True)
class PcgFile:
    """Parsed instance: graph plus the state parameters."""

    pcg: PCG
    alpha: complex = 1.0
    b_terms: tuple[BTerm, ...] = ()


def _require_keys(obj: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise PcgFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise PcgFileError(f"{where}: missing field(s) {sorted(missing)}")


def _is_int(value) -> bool:
    """A JSON integer.  ``bool`` subclasses ``int``, but ``true`` is never a count or a vertex."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite JSON number; ``json.loads`` also yields NaN, ±Infinity and
    integers too large for a float."""
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _parse_complex(obj, where: str, allow_magnitude: bool = False) -> complex:
    if not isinstance(obj, dict):
        raise PcgFileError(f"{where}: expected an object with re/im fields")
    if allow_magnitude and set(obj) == {"magnitude"}:
        mag = obj["magnitude"]
        if not _is_finite(mag):
            raise PcgFileError(f"{where}.magnitude: expected a finite number")
        return complex(mag)
    _require_keys(obj, {"re", "im"}, {"re", "im"}, where)
    re, im = obj["re"], obj["im"]
    if not _is_finite(re) or not _is_finite(im):
        raise PcgFileError(f"{where}: re/im must be finite numbers")
    return complex(re, im)


def _vertex_items(
    data: Mapping, field: str, value_key: str, ceiling: int
) -> Iterator[tuple[str, tuple, object]]:
    """(where, vertices, value) for each object of the list ``data[field]`` (none if absent),
    each with exactly the keys ``vertices`` (a list of integers) and ``value_key``; the
    list may hold at most ``ceiling`` objects."""
    items = data.get(field, [])
    if not isinstance(items, list):
        raise PcgFileError(f"{field}: expected a list")
    if len(items) > ceiling:
        raise PcgFileError(f"{field}: {len(items)} items exceed the ceiling of {ceiling}")
    for i, item in enumerate(items):
        where = f"{field}[{i}]"
        if not isinstance(item, dict):
            raise PcgFileError(f"{where}: expected an object")
        _require_keys(item, {"vertices", value_key}, {"vertices", value_key}, where)
        verts = item["vertices"]
        if not isinstance(verts, list) or not all(map(_is_int, verts)):
            raise PcgFileError(f"{where}.vertices: expected a list of integers")
        yield where, tuple(verts), item[value_key]


def from_json_dict(data) -> PcgFile:
    if not isinstance(data, dict):
        raise PcgFileError("top level: expected a JSON object")
    _require_keys(data, {"n", "d", "edges", "alpha", "b_terms"}, {"n", "edges"}, "top level")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise PcgFileError("n: expected a positive integer")
    if n > MAX_FILE_N:
        raise PcgFileError(f"n: {n} exceeds the ceiling of {MAX_FILE_N} vertices")
    d = data.get("d", 2)
    if not _is_int(d) or d != 2:
        raise PcgFileError(
            "d: only qubit instances (d = 2) have a file representation; "
            "the qudit family is available through the catalog"
        )
    edges = []
    for where, verts, theta in _vertex_items(data, "edges", "theta", MAX_FILE_EDGES):
        if not _is_int(theta) or theta not in (1, -1):
            raise PcgFileError(f"{where}.theta: expected 1 or -1")
        try:
            edges.append(SignedEdge(verts, theta))
        except ValueError as exc:
            raise PcgFileError(f"{where}: {exc}") from None
    alpha = 1.0 + 0j
    if "alpha" in data:
        alpha = _parse_complex(data["alpha"], "alpha", allow_magnitude=True)
    b_terms = []
    for where, verts, lam in _vertex_items(data, "b_terms", "lambda", MAX_FILE_B_TERMS):
        lam = _parse_complex(lam, f"{where}.lambda")
        try:
            b_terms.append(BTerm(verts, lam))
        except ValueError as exc:
            raise PcgFileError(f"{where}: {exc}") from None
    try:
        pcg = PCG(n, tuple(edges))
    except ValueError as exc:
        raise PcgFileError(str(exc)) from None
    return PcgFile(pcg=pcg, alpha=alpha, b_terms=tuple(b_terms))


def to_json_dict(instance: PcgFile) -> dict:
    out: dict = {**instance.pcg.to_json_dict(), "d": 2}  # files hold qubit instances only
    alpha = instance.alpha
    if alpha.imag == 0.0 and alpha.real >= 0.0:
        out["alpha"] = {"magnitude": alpha.real}
    else:
        out["alpha"] = {"re": alpha.real, "im": alpha.imag}
    if instance.b_terms:
        out["b_terms"] = [t.to_json_dict() for t in instance.b_terms]
    return out


def load_pcg_file(path: str | Path) -> PcgFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PcgFileError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PcgFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return from_json_dict(data)


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def indented_json(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, for str-keyed
    dicts, lists, tuples, str, int, float, bool and None.

    The stdlib encodes indented output in pure Python through nested
    generators; writing into one list by plain recursion takes about
    half the time, and the CLI prints every certificate this way.
    """
    out: list[str] = []
    put = out.append

    def write(obj, nl: str) -> None:
        kind = type(obj)
        if kind is dict:
            if not obj:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(obj):
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(sep + _quote(key) + ": ")
                write(obj[key], inner)
                sep = "," + inner
            put(nl + "}")
        elif kind is list or kind is tuple:
            if not obj:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for item in obj:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(nl + "]")
        elif kind is str:
            put(_quote(obj))
        elif kind is int:
            put(int.__repr__(obj))
        elif kind is float:
            put(_float_text(obj))
        elif obj is None:
            put("null")
        elif obj is True:
            put("true")
        elif obj is False:
            put("false")
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    write(obj, "\n")
    return "".join(out)


def dump_pcg_file(instance: PcgFile, path: str | Path) -> None:
    Path(path).write_text(indented_json(to_json_dict(instance)) + "\n")


def _edge_color(theta: int) -> str:
    return "red" if theta == 1 else "green"


def to_dot(pcg: PCG) -> str:
    """DOT rendering; edges over more than two vertices get a square junction node.

    DOT has no hyperedge primitive, so a size-k edge (k != 2) becomes a
    filled square joined to its k member vertices, carrying the edge
    color.
    """
    lines = ["graph pcg {", "  node [shape=circle];"]
    for v in range(1, pcg.n + 1):
        lines.append(f'  v{v} [label="{v}"];')
    for i, e in enumerate(pcg.edges):
        color = _edge_color(e.theta)
        if e.size == 2:
            a, b = e.vertices
            lines.append(f"  v{a} -- v{b} [color={color}, penwidth=2];")
        else:
            junction = f"e{i}"
            lines.append(
                f'  {junction} [shape=square, label="", width=0.12, height=0.12, '
                f"style=filled, fillcolor={color}];"
            )
            for v in e.vertices:
                lines.append(f"  {junction} -- v{v} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
