"""End-to-end paradox certification.

A certificate combines three independent evidence channels for one
instance:

* algebraic: GF(2) ranks of the incidence system,
* exhaustive-classical: a full census of vertex colorings (equivalently,
  local-hidden-variable assignments),
* quantum: exact simulation of the per-edge conditional certainties and
  of the success probability of the all-+1 Z event.

The verdict is "paradox" only when every channel agrees: the constraint
system is unsatisfiable classically while simulation certifies each
constraint with probability 1 and the triggering event has positive
probability.  Any disagreement between the algebraic and exhaustive
routes aborts certification with :class:`CrossCheckError` instead of
emitting a certificate.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CrossCheckError, ResourceLimitError
from .graph import (
    DEFAULT_CENSUS_CAP,
    PCG,
    Coloring,
    brute_force_colorings,
    is_colorable,
    mask_vertices,
    require_valid,
)
from .states import (
    BTerm,
    build_qudit_family,
    build_state,
    joint_z_probability,
    project_z,
    site_mask,
    x_product_distribution,
)

PROBABILITY_TOL = 1e-9
# Largest n of the success table; 2**n overflows a float at n = 1024.
MAX_TABLE_N = 1000


def _complex_dict(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


def pcg_digest(pcg: PCG) -> str:
    """Stable SHA-256 digest of the graph as given (order-sensitive)."""
    blob = json.dumps(pcg.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class HardyCheck:
    """One conditional certainty record for an edge."""

    edge: tuple[int, ...]
    theta: int
    required: int  # the certified eigenvalue, -theta
    probability: float

    def to_json_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "theta": self.theta,
            "required": self.required,
            "probability": self.probability,
        }


@dataclass(frozen=True)
class SuccessRecord:
    sites: tuple[int, ...]
    simulated: float
    formula: float
    formula_applicable: bool

    def to_json_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "simulated": self.simulated,
            "formula": self.formula,
            "formula_applicable": self.formula_applicable,
        }


@dataclass(frozen=True)
class ParadoxCertificate:
    pcg_digest: str
    n: int
    edges: tuple
    alpha: complex
    b_terms: tuple[BTerm, ...]
    rank_a: int
    rank_b: int
    colorable: bool
    witness: Coloring | None
    census_total: int | None  # None when the census was skipped
    census_satisfying: int | None
    hardy_checks: tuple[HardyCheck, ...]
    success: SuccessRecord
    verdict: str  # "paradox" | "no_paradox"
    reason: str | None

    @property
    def census_skipped(self) -> bool:
        return self.census_total is None

    def to_json_dict(self) -> dict:
        return {
            "instance": {
                "pcg_digest": self.pcg_digest,
                "n": self.n,
                "edges": [e.to_json_dict() for e in self.edges],
                "alpha": _complex_dict(self.alpha),
                "b_terms": [t.to_json_dict() for t in self.b_terms],
            },
            "rank_a": self.rank_a,
            "rank_b": self.rank_b,
            "colorable": self.colorable,
            "witness": list(self.witness.values) if self.witness else None,
            "lhv_census": (
                {"skipped": True}
                if self.census_skipped
                else {
                    "skipped": False,
                    "total": self.census_total,
                    "satisfying": self.census_satisfying,
                }
            ),
            "hardy_checks": [h.to_json_dict() for h in self.hardy_checks],
            "success": self.success.to_json_dict(),
            "verdict": self.verdict,
            "reason": self.reason,
        }


def _success_formula_applicable(pcg: PCG, b_terms: Sequence[BTerm]) -> bool:
    # The |alpha|^2/(p+1) value holds iff only the all-zero component
    # survives conditioning on Z=+1 over the union of edge complements,
    # i.e. no edge pattern and no b-term pattern fits inside the
    # intersection of all edges.
    inter = (1 << pcg.n) - 1
    for e in pcg.edges:
        inter &= e.mask
    for e in pcg.edges:
        if e.mask | inter == inter:
            return False
    for t in b_terms:
        if site_mask(t.vertices) | inter == inter:
            return False
    return True


def verify(
    pcg: PCG,
    alpha: complex = 1.0,
    b_terms: Sequence[BTerm] = (),
    lhv_cap: int = DEFAULT_CENSUS_CAP,
    tolerance: float = PROBABILITY_TOL,
) -> ParadoxCertificate:
    """Produce the full certificate for one instance.

    Raises :class:`PcgValidationError` for structurally invalid graphs
    and :class:`CrossCheckError` if the rank criterion and the
    exhaustive census ever disagree (which would indicate a bug, not a
    property of the instance).
    """
    require_valid(pcg)
    b_terms = tuple(b_terms)
    decision = is_colorable(pcg)

    census_total: int | None = None
    census_satisfying: int | None = None
    if pcg.n <= lhv_cap:
        census = brute_force_colorings(pcg, cap=lhv_cap)
        census_total, census_satisfying = census.total, census.satisfying
        if (census.satisfying == 0) != (not decision.colorable):
            raise CrossCheckError(
                f"rank criterion says colorable={decision.colorable} but the census "
                f"found {census.satisfying}/{census.total} satisfying colorings"
            )

    state = build_state(pcg, alpha, b_terms)
    full = (1 << pcg.n) - 1
    union_mask = 0
    checks = []
    for e in pcg.edges:
        complement = full ^ e.mask
        union_mask |= complement
        _, post = project_z(state, complement)
        dist = x_product_distribution(post, e.vertices)
        checks.append(HardyCheck(
            edge=e.vertices,
            theta=e.theta,
            required=-e.theta,
            probability=dist[e.theta_bit],  # power 1 is eigenvalue -1
        ))

    union_complements = mask_vertices(union_mask)
    simulated = joint_z_probability(state, union_complements, 0)
    formula = abs(alpha) ** 2 / (pcg.p + 1)
    success = SuccessRecord(
        sites=tuple(union_complements),
        simulated=simulated,
        formula=formula,
        formula_applicable=_success_formula_applicable(pcg, b_terms),
    )

    hardy_certain = all(abs(c.probability - 1.0) <= tolerance for c in checks)
    census_refutes = census_satisfying == 0 if census_total is not None else True
    if decision.colorable:
        verdict, reason = "no_paradox", "colorable"
    elif not hardy_certain:
        verdict, reason = "no_paradox", "hardy-check-not-certain"
    elif simulated <= 0.0:
        verdict, reason = "no_paradox", "zero-success-probability"
    elif not census_refutes:
        verdict, reason = "no_paradox", "classical-assignment-exists"
    else:
        verdict, reason = "paradox", None

    return ParadoxCertificate(
        pcg_digest=pcg_digest(pcg),
        n=pcg.n,
        edges=pcg.edges,
        alpha=complex(alpha),
        b_terms=b_terms,
        rank_a=decision.rank_a,
        rank_b=decision.rank_b,
        colorable=decision.colorable,
        witness=decision.witness,
        census_total=census_total,
        census_satisfying=census_satisfying,
        hardy_checks=tuple(checks),
        success=success,
        verdict=verdict,
        reason=reason,
    )


@dataclass(frozen=True)
class SuccessRow:
    """Closed-form success probabilities of the three n-qubit scenarios."""

    n: int
    p_loop: float  # 1/(n+1), loop-graph construction
    p_generalized: float  # 1/2^(n-1), best earlier generalized construction
    p_standard: float  # (1/2^n)(1+cos(pi/(n-1))), standard construction
    simulated_loop: float | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p_loop": self.p_loop,
            "p_generalized": self.p_generalized,
            "p_standard": self.p_standard,
            "simulated_loop": self.simulated_loop,
        }


def success_table(max_n: int, simulate_up_to: int = 12) -> list[SuccessRow]:
    """Success-probability rows for n = 3..max_n.

    For n up to ``simulate_up_to`` the loop value is re-derived by exact
    simulation of the loop state and must agree with 1/(n+1) to 1e-9;
    disagreement raises :class:`CrossCheckError`.
    """
    if max_n < 3:
        raise ValueError("max_n must be at least 3")
    if max_n > MAX_TABLE_N:
        raise ResourceLimitError(f"max_n {max_n} exceeds the ceiling of {MAX_TABLE_N}")
    from .catalog import loop_pcg  # local import keeps module layering acyclic

    rows = []
    for n in range(3, max_n + 1):
        p_loop = 1.0 / (n + 1)
        p_gen = 1.0 / 2 ** (n - 1)
        p_std = (1.0 + math.cos(math.pi / (n - 1))) / 2 ** n
        simulated = None
        if n <= simulate_up_to:
            state = build_state(loop_pcg(n))
            simulated = joint_z_probability(state, range(1, n + 1), 0)
            if abs(simulated - p_loop) > PROBABILITY_TOL:
                raise CrossCheckError(
                    f"simulated loop success {simulated} != closed form {p_loop} at n={n}"
                )
        rows.append(SuccessRow(n, p_loop, p_gen, p_std, simulated))
    return rows


@dataclass(frozen=True)
class QuditCertificate:
    d: int
    n: int
    constraint_probabilities: tuple[float, ...]  # indexed by conditioned site
    required_power: int  # eigenvalue omega**required_power
    joint_simulated: float
    joint_formula: float
    census_total: int
    census_satisfying: int
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "constraint_probabilities": list(self.constraint_probabilities),
            "required_power": self.required_power,
            "joint_simulated": self.joint_simulated,
            "joint_formula": self.joint_formula,
            "census": {"total": self.census_total, "satisfying": self.census_satisfying},
            "verdict": self.verdict,
        }


def _qudit_census(d: int, n: int) -> tuple[int, int]:
    """Count assignments of omega-powers satisfying all n leave-one-out sums.

    Constraint for conditioned site j: sum of the other n-1 powers must
    be 1 mod d, i.e. the full sum must equal the power at j plus one.
    Enumeration is exhaustive over d^n assignments, held as a (d,)*n
    grid whose axis k is the power at site k+1.  The full sum grows one
    broadcast axis at a time and is reduced mod d after every add, so
    int8 cannot overflow.
    """
    powers = np.arange(d, dtype=np.int8)
    full = powers
    for _ in range(n - 1):
        full = (full[..., None] + powers) % d
    target = (powers + 1) % d
    ok = np.ones(full.shape, dtype=bool)
    for k in range(n):
        ok &= full == target.reshape((1,) * k + (d,) + (1,) * (n - 1 - k))
    return full.size, int(np.count_nonzero(ok))


def verify_qudit_family(d: int, tolerance: float = PROBABILITY_TOL) -> QuditCertificate:
    """Certificate for the (d+1)-qudit pigeonhole instance.

    Checks that conditioning each site on Z=+1 pins the product of the
    remaining shifts to omega with certainty, that the all-+1 joint
    probability equals 1/(1+(d-1)(d+1)), and that no classical
    assignment of omega-powers satisfies all the constraints at once.
    """
    state = build_qudit_family(d)
    n = state.n
    probs = []
    for j in range(1, n + 1):
        _, post = project_z(state, {j: 0})
        dist = x_product_distribution(post, sorted(set(range(1, n + 1)) - {j}))
        probs.append(dist[1])
    joint = joint_z_probability(state, range(1, n + 1), 0)
    formula = 1.0 / (1 + (d - 1) * (d + 1))
    total, satisfying = _qudit_census(d, n)
    certain = all(abs(p - 1.0) <= tolerance for p in probs)
    paradox = certain and satisfying == 0 and joint > 0.0
    return QuditCertificate(
        d=d,
        n=n,
        constraint_probabilities=tuple(probs),
        required_power=1,
        joint_simulated=joint,
        joint_formula=formula,
        census_total=total,
        census_satisfying=satisfying,
        verdict="paradox" if paradox else "no_paradox",
    )
