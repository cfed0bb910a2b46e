"""Instance file format (JSON) and DOT graph export.

The file schema is strict: unknown fields are rejected so that typos
fail loudly instead of silently changing the instance.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import PcgFileError
from .graph import PCG, SignedEdge
from .states import BTerm


@dataclass(frozen=True)
class PcgFile:
    """Parsed instance: graph plus the state parameters."""

    pcg: PCG
    d: int = 2
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


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _parse_complex(obj, where: str, allow_magnitude: bool = False) -> complex:
    if not isinstance(obj, dict):
        raise PcgFileError(f"{where}: expected an object with re/im fields")
    if allow_magnitude and set(obj) == {"magnitude"}:
        mag = obj["magnitude"]
        if not _is_number(mag):
            raise PcgFileError(f"{where}.magnitude: expected a number")
        return complex(mag)
    _require_keys(obj, {"re", "im"}, {"re", "im"}, where)
    re, im = obj["re"], obj["im"]
    if not _is_number(re) or not _is_number(im):
        raise PcgFileError(f"{where}: re/im must be numbers")
    return complex(re, im)


def from_json_dict(data) -> PcgFile:
    if not isinstance(data, dict):
        raise PcgFileError("top level: expected a JSON object")
    _require_keys(data, {"n", "d", "edges", "alpha", "b_terms"}, {"n", "edges"}, "top level")
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise PcgFileError("n: expected a positive integer")
    d = data.get("d", 2)
    if not _is_int(d) or d < 2:
        raise PcgFileError("d: expected an integer >= 2")
    if d != 2:
        raise PcgFileError(
            "d: only qubit instances (d = 2) have a file representation; "
            "the qudit family is available through the catalog"
        )
    if not isinstance(data["edges"], list):
        raise PcgFileError("edges: expected a list")
    edges = []
    for i, item in enumerate(data["edges"]):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise PcgFileError(f"{where}: expected an object")
        _require_keys(item, {"vertices", "theta"}, {"vertices", "theta"}, where)
        verts = item["vertices"]
        if not isinstance(verts, list) or not all(map(_is_int, verts)):
            raise PcgFileError(f"{where}.vertices: expected a list of integers")
        if not _is_int(item["theta"]) or item["theta"] not in (1, -1):
            raise PcgFileError(f"{where}.theta: expected 1 or -1")
        try:
            edges.append(SignedEdge(tuple(verts), item["theta"]))
        except ValueError as exc:
            raise PcgFileError(f"{where}: {exc}") from None
    alpha = 1.0 + 0j
    if "alpha" in data:
        alpha = _parse_complex(data["alpha"], "alpha", allow_magnitude=True)
    b_terms = []
    for i, item in enumerate(data.get("b_terms", [])):
        where = f"b_terms[{i}]"
        if not isinstance(item, dict):
            raise PcgFileError(f"{where}: expected an object")
        _require_keys(item, {"vertices", "lambda"}, {"vertices", "lambda"}, where)
        verts = item["vertices"]
        if not isinstance(verts, list) or not all(map(_is_int, verts)):
            raise PcgFileError(f"{where}.vertices: expected a list of integers")
        b_terms.append(BTerm(tuple(verts), _parse_complex(item["lambda"], f"{where}.lambda")))
    try:
        pcg = PCG(n, tuple(edges))
    except ValueError as exc:
        raise PcgFileError(str(exc)) from None
    return PcgFile(pcg=pcg, d=d, alpha=alpha, b_terms=tuple(b_terms))


def to_json_dict(instance: PcgFile) -> dict:
    out: dict = {**instance.pcg.to_json_dict(), "d": instance.d}
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


def dump_pcg_file(instance: PcgFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(instance), indent=2, sort_keys=True) + "\n")


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
