"""End-to-end paradox certification.

A certificate combines three independent evidence channels for one
instance:

* algebraic: GF(2) ranks of the incidence system,
* exhaustive-classical: a full census of vertex colorings (equivalently,
  local-hidden-variable assignments) by :func:`pcgraph.graph.census`,
  which also counts the qudit family's assignments,
* quantum: exact simulation of the per-edge conditional certainties and
  of the success probability of the all-+1 Z event.

The verdict comes from the ranks alone: "paradox" exactly when the
constraint system is un-colorable.  In a valid instance every other
channel is fixed by construction (each Hardy probability is 1, the
success is |alpha|^2/(p+1), and the census counts 2^(n - rank A)
colorings, or none), so each is checked against that value instead of
deciding anything.  Any disagreement, or a colorable verdict whose
witness violates an edge, aborts certification with
:class:`CrossCheckError` instead of emitting a certificate.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

from .errors import CrossCheckError, ResourceLimitError
from .graph import (
    DEFAULT_CENSUS_CAP,
    MAX_CENSUS_CAP,
    PCG,
    Coloring,
    brute_force_colorings,
    census,
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
    x_product_distribution,
)

# Relative bound within which a simulated probability must equal the value
# the construction fixes; a correct build misses it only by rounding.
AGREEMENT_REL = 1e-12
# Largest n of the success table; 2**n overflows a float at n = 1024.
MAX_TABLE_N = 1000
# The table re-derives the loop value by exact simulation up to this n.
SIMULATE_UP_TO = 12


def _agrees(value: float, expected: float) -> bool:
    # written so that NaN disagrees
    return abs(value - expected) <= AGREEMENT_REL * expected


def _complex_dict(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag}


def pcg_digest(pcg: PCG) -> str:
    """Stable SHA-256 digest of the graph as given (order-sensitive)."""
    blob = json.dumps(pcg.to_json_dict(), sort_keys=True, separators=(",", ":"),
                      check_circular=False)  # a fresh tree of dicts and lists has no cycle
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

    def to_json_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "simulated": self.simulated,
            "formula": self.formula,
            "formula_applicable": True,
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

    @property
    def verdict(self) -> str:
        return "no_paradox" if self.colorable else "paradox"

    @property
    def reason(self) -> str | None:
        return "colorable" if self.colorable else None

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


def verify(
    pcg: PCG,
    alpha: complex = 1.0,
    b_terms: Sequence[BTerm] = (),
    lhv_cap: int = DEFAULT_CENSUS_CAP,
) -> ParadoxCertificate:
    """Produce the full certificate for one instance.

    The verdict is "paradox" exactly when the ranks say un-colorable.
    Raises :class:`PcgValidationError` for structurally invalid graphs,
    :class:`ResourceLimitError` if ``lhv_cap`` exceeds ``MAX_CENSUS_CAP``, and
    :class:`CrossCheckError`, naming the instance digest, if a colorable
    verdict's witness violates an edge, the census does not count
    exactly 2^(n - rank A) colorings (none if un-colorable), or a Hardy
    probability differs from 1 or the simulated success from
    |alpha|^2/(p+1) by more than a relative ``AGREEMENT_REL``: a bug,
    not a property of the instance.
    """
    if lhv_cap > MAX_CENSUS_CAP:  # refused whether or not this n would reach the census
        raise ResourceLimitError(f"census cap {lhv_cap} exceeds the ceiling of {MAX_CENSUS_CAP}")
    require_valid(pcg)
    b_terms = tuple(b_terms)
    digest = pcg_digest(pcg)
    decision = is_colorable(pcg)
    if decision.colorable and not decision.witness.satisfies(pcg):
        raise CrossCheckError(
            f"instance {digest}: the rank criterion's witness {list(decision.witness.values)} "
            f"violates an edge"
        )

    census_total: int | None = None
    census_satisfying: int | None = None
    if pcg.n <= lhv_cap:
        lhv = brute_force_colorings(pcg, cap=lhv_cap)
        census_total, census_satisfying = lhv.total, lhv.satisfying
        # a colorable system's solutions are a coset of the (n - rank A)-dimensional kernel
        expected = 1 << pcg.n - decision.rank_a if decision.colorable else 0
        if lhv.satisfying != expected:
            raise CrossCheckError(
                f"instance {digest}: rank criterion says colorable={decision.colorable} with "
                f"rank A = {decision.rank_a}, so {expected} satisfying colorings, but the "
                f"census found {lhv.satisfying}/{lhv.total}"
            )

    state = build_state(pcg, alpha, b_terms)
    full = (1 << pcg.n) - 1
    union_mask = 0
    checks = []
    for e in pcg.edges:
        complement = full ^ e.mask
        union_mask |= complement
        _, post = project_z(state, complement)
        # the antichain and b-term rules leave (|0..0> - theta|e>)/sqrt(2)
        probability = x_product_distribution(post, e.mask)[e.theta_bit]  # power 1 is eigenvalue -1
        if not _agrees(probability, 1.0):
            raise CrossCheckError(f"instance {digest}: Hardy check on edge {list(e.vertices)} "
                                  f"reads {probability!r}, not 1")
        checks.append(HardyCheck(
            edge=e.vertices,
            theta=e.theta,
            required=-e.theta,
            probability=probability,
        ))

    simulated = joint_z_probability(state, union_mask)
    formula = abs(alpha) ** 2 / (pcg.p + 1)
    # only key 0 survives: no edge (a valid graph has p >= 2 and no nested or
    # equal edges) nor b-term (build_state refuses one inside an edge) lies
    # inside every edge, and build_state keeps key 0, so both are positive
    if not _agrees(simulated, formula):
        raise CrossCheckError(
            f"instance {digest}: simulated success {simulated!r} differs from "
            f"|alpha|^2/(p+1) = {formula!r}"
        )
    success = SuccessRecord(
        sites=tuple(mask_vertices(union_mask)),
        simulated=simulated,
        formula=formula,
    )

    return ParadoxCertificate(
        pcg_digest=digest,
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


def success_table(max_n: int) -> list[SuccessRow]:
    """Success-probability rows for n = 3..max_n.

    For n up to ``SIMULATE_UP_TO`` the loop value is re-derived by exact
    simulation of the loop state and must agree with 1/(n+1) to a relative
    ``AGREEMENT_REL``; disagreement raises :class:`CrossCheckError`.
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
        if n <= SIMULATE_UP_TO:
            state = build_state(loop_pcg(n))
            simulated = joint_z_probability(state, range(1, n + 1), 0)
            if not _agrees(simulated, p_loop):
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
    # every other outcome raises CrossCheckError
    verdict: ClassVar[str] = "paradox"

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


def verify_qudit_family(d: int) -> QuditCertificate:
    """Certificate for the (d+1)-qudit pigeonhole instance.

    Checks that conditioning each site on Z=+1 pins the product of the
    remaining shifts to omega with certainty, that the all-+1 joint
    probability equals 1/(1+(d-1)(d+1)), and that no classical
    assignment of omega-powers satisfies all the constraints at once:
    :func:`census` counts, over all d^(d+1) assignments, those whose
    powers at every site but j sum to 1 mod d for every site j, from
    d alone, never from the state or the closed form.  Each holds by
    construction (summing the d+1 constraints gives 0 = 1 mod d), so a
    miss, beyond a relative ``AGREEMENT_REL`` for the probabilities,
    raises :class:`CrossCheckError` naming d.
    """
    state = build_qudit_family(d)
    n = d + 1
    probs = []
    full = (1 << n) - 1
    for j in range(n):
        _, post = project_z(state, 1 << j)
        probability = x_product_distribution(post, full ^ 1 << j)[1]
        if not _agrees(probability, 1.0):
            raise CrossCheckError(f"qudit family d={d}: constraint at site {j + 1} reads {probability!r}, not 1")
        probs.append(probability)
    joint = joint_z_probability(state, full)
    formula = 1.0 / (1 + (d - 1) * (d + 1))
    if not _agrees(joint, formula):
        raise CrossCheckError(f"qudit family d={d}: simulated joint probability {joint!r} differs "
                              f"from 1/(1+(d-1)(d+1)) = {formula!r}")
    # site j + 1's constraint: the powers at every other site sum to 1 mod d
    satisfying, _ = census(d, n, [(full ^ 1 << j, 1) for j in range(n)])
    if satisfying:
        raise CrossCheckError(f"qudit family d={d}: the census found {satisfying} satisfying "
                              f"assignments, but the constraints sum to 0 = 1 mod d")
    return QuditCertificate(
        d=d,
        n=n,
        constraint_probabilities=tuple(probs),
        required_power=1,
        joint_simulated=joint,
        joint_formula=formula,
        census_total=d ** n,
        census_satisfying=satisfying,
    )
