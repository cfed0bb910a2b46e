"""Built-in parameterized instances with their expected classifications.

Every entry regenerates deterministically from its id and parameters,
and the regression suite re-derives each expected classification with
the full verification stack.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping

from .errors import CatalogKeyError
from .graph import PCG
from .states import QUDIT_FAMILY_MAX_D, BTerm


def triangle_pcg(theta: int = 1) -> PCG:
    """Three-vertex loop with all edge signs equal to ``theta``."""
    return PCG.build(3, [((2, 3), theta), ((1, 3), theta), ((1, 2), theta)])


def loop_pcg(n: int) -> PCG:
    """n-vertex loop: edge {1,n} red, every edge {i,i+1} green.

    The matching state has a single minus sign, on the {1,n} pattern,
    and is un-colorable for every n >= 3.
    """
    if n < 3:
        raise ValueError("loop needs at least 3 vertices")
    edges = [((1, n), +1)] + [((i, i + 1), -1) for i in range(1, n)]
    return PCG.build(n, edges)


def odd_red_loop_pcg(n: int) -> PCG:
    """All-red loop on an odd number of vertices; un-colorable by parity."""
    if n < 3 or n % 2 == 0:
        raise ValueError("all-red loops are un-colorable for odd n >= 3 only")
    edges = [((i, i + 1), +1) for i in range(1, n)] + [((1, n), +1)]
    return PCG.build(n, edges)


def magic_m4_pcg() -> PCG:
    """All six red pair edges on four vertices (2x2 grid, all pairs)."""
    return PCG.build(4, [(pair, +1) for pair in combinations(range(1, 5), 2)])


def magic_m9_pcg(extended: bool = False) -> PCG:
    """3x3 grid rows, columns, and both diagonals as red triple edges.

    ``extended`` adds the red corner edge {1,3,7,9}, which contradicts
    the parity forced by the other eight constraints.
    """
    rows = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    cols = [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
    diags = [(1, 5, 9), (3, 5, 7)]
    edges = [(vs, +1) for vs in rows + cols + diags]
    if extended:
        edges.append(((1, 3, 7, 9), +1))
    return PCG.build(9, edges)


def magic_m16_pcg(extended: bool = False) -> PCG:
    """4x4 grid rows, columns, and both diagonals as red quadruple edges.

    ``extended`` adds the red edge over the union of the two diagonals,
    {1,4,6,7,10,11,13,16}, whose parity the ten base constraints force
    to the opposite value.
    """
    rows = [tuple(range(4 * k + 1, 4 * k + 5)) for k in range(4)]
    cols = [tuple(range(l, l + 13, 4)) for l in range(1, 5)]
    diags = [(1, 6, 11, 16), (4, 7, 10, 13)]
    edges = [(vs, +1) for vs in rows + cols + diags]
    if extended:
        edges.append(((1, 4, 6, 7, 10, 11, 13, 16), +1))
    return PCG.build(16, edges)


def magic_m8_pcg() -> PCG:
    """All 28 red pair edges on eight vertices (2x2x2 cube, all pairs)."""
    return PCG.build(8, [(pair, +1) for pair in combinations(range(1, 9), 2)])


def map_four_regions_pcg() -> PCG:
    """Four mutually adjacent map regions, one red pair edge per border (each
    pair of neighbours must differ); the same graph as the 2x2 grid."""
    return PCG.build(4, [(pair, +1) for pair in combinations(range(1, 5), 2)])


def _integer(name: str, value) -> int:
    """An integer parameter; a float must be integral (so finite): 5.0 reads as 5."""
    if isinstance(value, float) and not value.is_integer():
        raise CatalogKeyError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PpsCheck:
    sites: tuple[int, int]
    sign: int


@dataclass(frozen=True)
class PpsFixture:
    """Pre/post-selected ensemble with projector checks that must vanish."""

    pre_spec: str
    post_spec: str
    checks: tuple[PpsCheck, ...]


@dataclass(frozen=True)
class Expected:
    colorable: bool | None = None
    paradox: bool | None = None
    success_probability: float | None = None
    basis: str = "X"
    valid_pcg: bool = True


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    params: dict = field(default_factory=dict)
    pcg: PCG | None = None
    alpha: complex = 1.0
    b_terms: tuple[BTerm, ...] = ()
    qudit_d: int | None = None
    pps: PpsFixture | None = None
    expected: Expected = Expected()

    @property
    def kind(self) -> str:
        """"pcg", "qudit" or "pps": which of ``pcg``, ``qudit_d`` and ``pps`` is set."""
        if self.pcg is not None:
            return "pcg"
        return "qudit" if self.qudit_d is not None else "pps"


def _entry_minimal_triangle() -> CatalogEntry:
    return CatalogEntry(
        id="minimal-triangle",
        description="All-red triangle; the minimal three-qubit pigeonhole instance.",
        pcg=triangle_pcg(+1),
        expected=Expected(colorable=False, paradox=True, success_probability=0.25),
    )


def _entry_minimal_psi(alpha: complex = 1 / math.sqrt(2)) -> CatalogEntry:
    alpha = complex(alpha)
    if not 0 < abs(alpha) < 1:
        raise CatalogKeyError("minimal-psi needs 0 < |alpha| < 1")
    return CatalogEntry(
        id="minimal-psi",
        description="Triangle state mixed with an orthogonal |111> component.",
        params={"alpha": alpha},
        pcg=triangle_pcg(+1),
        alpha=alpha,
        b_terms=(BTerm((1, 2, 3), 1.0),),
        expected=Expected(
            colorable=False, paradox=True, success_probability=abs(alpha) ** 2 / 4
        ),
    )


def _entry_minimal_variant_y() -> CatalogEntry:
    return CatalogEntry(
        id="minimal-variant-y",
        description=(
            "All-green triangle (all plus signs).  Colorable, so the X-box "
            "criterion finds no paradox, yet Y-basis products conditioned on "
            "Z=+1 are certainly -1 on every pair, which restores the paradox "
            "with circular-polarization boxes."
        ),
        pcg=triangle_pcg(-1),
        expected=Expected(
            colorable=True, paradox=True, basis="Y", success_probability=0.25
        ),
    )


def _entry_loop(n: int = 5) -> CatalogEntry:
    n = _integer("n", n)
    if not 3 <= n <= 64:
        raise CatalogKeyError("loop supports 3 <= n <= 64")
    return CatalogEntry(
        id="loop",
        description="Mixed-sign loop; success probability 1/(n+1) beats 1/2^(n-1).",
        params={"n": n},
        pcg=loop_pcg(n),
        expected=Expected(
            colorable=False, paradox=True, success_probability=1.0 / (n + 1)
        ),
    )


def _entry_odd_loop_red(n: int = 3) -> CatalogEntry:
    n = _integer("n", n)
    if not (3 <= n <= 63 and n % 2 == 1):
        raise CatalogKeyError("odd-loop-red supports odd 3 <= n <= 63")
    return CatalogEntry(
        id="odd-loop-red",
        description="All-red odd loop; un-colorable because the cycle parity sums to 1.",
        params={"n": n},
        pcg=odd_red_loop_pcg(n),
        expected=Expected(
            colorable=False, paradox=True, success_probability=1.0 / (n + 1)
        ),
    )


def _entry_magic_m4() -> CatalogEntry:
    return CatalogEntry(
        id="magic-m4",
        description="2x2 binary magic square: all six pair products forced to -1.",
        pcg=magic_m4_pcg(),
        expected=Expected(colorable=False, paradox=True, success_probability=1 / 7),
    )


def _entry_magic_m9() -> CatalogEntry:
    return CatalogEntry(
        id="magic-m9",
        description="3x3 binary magic square: rows, columns, diagonals; consistent.",
        pcg=magic_m9_pcg(),
        expected=Expected(colorable=True, paradox=False, success_probability=1 / 9),
    )


def _entry_magic_m9_tilde() -> CatalogEntry:
    return CatalogEntry(
        id="magic-m9-tilde",
        description="3x3 magic square plus the corner constraint {1,3,7,9}; impossible.",
        pcg=magic_m9_pcg(extended=True),
        expected=Expected(colorable=False, paradox=True, success_probability=1 / 10),
    )


def _entry_magic_m16() -> CatalogEntry:
    return CatalogEntry(
        id="magic-m16",
        description="4x4 binary magic square: rows, columns, diagonals; consistent.",
        pcg=magic_m16_pcg(),
        expected=Expected(colorable=True, paradox=False, success_probability=1 / 11),
    )


def _entry_magic_m16_tilde() -> CatalogEntry:
    return CatalogEntry(
        id="magic-m16-tilde",
        description=(
            "4x4 magic square plus the diagonal-union constraint; classically "
            "impossible (rank criterion and census agree).  Not a valid PCG: "
            "both diagonals sit inside the added edge, and that nesting makes "
            "the added edge's conditional product a coin flip (1/2) instead of "
            "a certainty, so the quantum certification channel excludes it."
        ),
        pcg=magic_m16_pcg(extended=True),
        expected=Expected(
            colorable=False, paradox=None, valid_pcg=False, success_probability=None
        ),
    )


def _entry_magic_m8() -> CatalogEntry:
    return CatalogEntry(
        id="magic-m8",
        description="2x2x2 binary magic cube: all 28 pair products forced to -1.",
        pcg=magic_m8_pcg(),
        expected=Expected(colorable=False, paradox=True, success_probability=1 / 29),
    )


def _entry_map_four_regions() -> CatalogEntry:
    return CatalogEntry(
        id="map-four-regions",
        description=(
            "Map with four mutually adjacent regions.  The quantum certainties "
            "force a proper 2-coloring of a map that needs four colors."
        ),
        pcg=map_four_regions_pcg(),
        expected=Expected(colorable=False, paradox=True, success_probability=1 / 7),
    )


def _entry_qudit(d: int = 3) -> CatalogEntry:
    d = _integer("d", d)
    if not 2 <= d <= QUDIT_FAMILY_MAX_D:
        raise CatalogKeyError(f"qudit supports 2 <= d <= {QUDIT_FAMILY_MAX_D}")
    return CatalogEntry(
        id="qudit",
        description="(d+1) qudits, d boxes: every leave-one-out product is omega.",
        params={"d": d},
        qudit_d=d,
        expected=Expected(
            paradox=True, success_probability=1.0 / (1 + (d - 1) * (d + 1))
        ),
    )


def _entry_pps_three_qubit() -> CatalogEntry:
    return CatalogEntry(
        id="pps-three-qubit",
        description=(
            "Pre/post-selected three-qubit ensemble |+-->  ->  |010>.  The "
            "vanishing projector amplitudes pin every pair's Y-product, and "
            "the pinned values violate the pigeonhole principle."
        ),
        pps=PpsFixture(
            pre_spec="+--",
            post_spec="010",
            checks=(
                PpsCheck((1, 2), +1),
                PpsCheck((1, 3), -1),
                PpsCheck((2, 3), -1),
            ),
        ),
        expected=Expected(paradox=True, basis="Y"),
    )


_REGISTRY: dict[str, Callable[..., CatalogEntry]] = {
    "minimal-triangle": _entry_minimal_triangle,
    "minimal-psi": _entry_minimal_psi,
    "minimal-variant-y": _entry_minimal_variant_y,
    "loop": _entry_loop,
    "odd-loop-red": _entry_odd_loop_red,
    "magic-m4": _entry_magic_m4,
    "magic-m9": _entry_magic_m9,
    "magic-m9-tilde": _entry_magic_m9_tilde,
    "magic-m16": _entry_magic_m16,
    "magic-m16-tilde": _entry_magic_m16_tilde,
    "magic-m8": _entry_magic_m8,
    "map-four-regions": _entry_map_four_regions,
    "qudit": _entry_qudit,
    "pps-three-qubit": _entry_pps_three_qubit,
}


def catalog_ids() -> list[str]:
    return list(_REGISTRY)


def get(entry_id: str, params: Mapping | None = None) -> CatalogEntry:
    """Resolve a catalog entry; unknown ids, parameter names and values raise
    :class:`CatalogKeyError`."""
    try:
        factory = _REGISTRY[entry_id]
    except KeyError:
        raise CatalogKeyError(
            f"unknown catalog id {entry_id!r}; known: {', '.join(_REGISTRY)}"
        ) from None
    params = dict(params or {})
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise CatalogKeyError(f"{entry_id} takes no parameter(s) {unknown}")
    return factory(**params)
