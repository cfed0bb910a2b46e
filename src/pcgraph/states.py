"""Exact sparse simulation of the graph-encoded states.

A state on n sites of local dimension d maps integer keys to complex
amplitudes.  A key holds site v's digit at place d^(v-1), so a qubit
key has bit v-1 set iff site v reads 1 and an edge's vertex mask is the
key of its pattern.  The encoded states have at most p + 1 + |B-terms|
nonzero amplitudes, so hundreds of sites need no dense 2^n vector.
Qubit keys and site masks come from ``graph.site_mask``.
Digit strings (site 1 first) appear only at the boundary, through
``parse_key`` and ``render_key``; output sorts by the digit string,
which is not the integer order.

Digit 0 encodes the Z eigenvalue +1 ("Z_i = 1"); for qudits the Z
eigenvalues are the d-th roots of unity omega^digit.  The shift
observable X maps |m> to |m-1 mod d>, which reduces to the usual Pauli
X for qubits.
"""
from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import CrossCheckError, ResourceLimitError, StateConditionError
from .graph import PCG, mask_vertices, site_mask

NORM_TOL = 1e-9
PRUNE_TOL = 1e-15
MAX_SHOTS = 10**6


def omega(d: int) -> complex:
    """Primitive d-th root of unity exp(2 pi i / d)."""
    return cmath.exp(2j * math.pi / d)


def parse_key(text: str, n: int, d: int) -> int:
    """Integer key of an n-character digit string (site 1 first)."""
    if len(text) != n or any(not c.isdigit() or int(c) >= d for c in text):
        raise ValueError(f"basis key {text!r} is not {n} digits below {d}")
    return sum(int(c) * d**i for i, c in enumerate(text))


def render_key(key: int, n: int, d: int) -> str:
    """Digit string of an integer key, one character per site."""
    if d > 10:
        raise ValueError(f"digit strings need d <= 10, got d={d}")
    return "".join(str(key // d**i % d) for i in range(n))


@dataclass(frozen=True)
class SparseState:
    """Immutable sparse state: integer key (site v's digit at place d^(v-1))
    to nonzero amplitude; ``from_amplitudes``/``amplitude``/``listing`` use digit strings."""

    n: int
    d: int
    amplitudes: dict[int, complex]

    @classmethod
    def from_amplitudes(cls, n: int, amps: Mapping[str, complex], d: int = 2) -> "SparseState":
        """State from digit-string keys; checks key shape and the norm."""
        return cls._from_keys(n, d, {parse_key(k, n, d): a for k, a in amps.items()})

    @classmethod
    def _from_keys(cls, n: int, d: int, amps: Mapping[int, complex]):
        if n < 1:
            raise ValueError("site count must be at least 1")
        if d < 2:
            raise ValueError("local dimension must be at least 2")
        size = 1 << n if d == 2 else d**n
        cleaned: dict[int, complex] = {}
        for key, amp in amps.items():
            if not 0 <= key < size:
                raise ValueError(f"basis key {key} is outside 0..{d}^{n}-1")
            if not abs(amp) < PRUNE_TOL:  # written so that NaN is kept
                cleaned[key] = complex(amp)
        norm2 = sum([abs(a) ** 2 for a in cleaned.values()])
        if not abs(norm2 - 1.0) <= NORM_TOL:  # written so that NaN fails
            raise ValueError(f"state norm^2 = {norm2} is not 1 within {NORM_TOL}")
        return cls(n, d, cleaned)

    @cached_property
    def _key_index(self) -> dict[int, list[tuple[int, int]]]:
        """Qubit keys bucketed by their lowest set bit (key 0 alone under 0),
        each as (position in the state's key order, key), built on first use."""
        index: dict[int, list[tuple[int, int]]] = {}
        for pos, key in enumerate(self.amplitudes):
            index.setdefault(key & -key, []).append((pos, key))
        return index

    def amplitude(self, key: str) -> complex:
        """Amplitude of the basis state spelled by a digit string."""
        return self.amplitudes.get(parse_key(key, self.n, self.d), 0j)

    def listing(self) -> list[tuple[str, complex]]:
        """(digit string, amplitude) pairs sorted by the digit string."""
        return sorted((render_key(k, self.n, self.d), a) for k, a in self.amplitudes.items())

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def inner(self, other: "SparseState") -> complex:
        """<self|other> over the shared basis."""
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("states live on different site structures")
        small, big = self.amplitudes, other.amplitudes
        return sum(small[k].conjugate() * big[k] for k in small.keys() & big.keys())


@dataclass(frozen=True)
class BTerm:
    """One orthogonal-complement term: vertex set T with coefficient lambda."""

    vertices: tuple[int, ...]
    lam: complex

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if len(set(verts)) != len(verts):
            raise ValueError(f"b-term {verts} repeats a vertex")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "lam", complex(self.lam))

    def to_json_dict(self) -> dict:
        """The term as it appears in instance files and certificates."""
        return {"vertices": list(self.vertices),
                "lambda": {"re": self.lam.real, "im": self.lam.imag}}


def _check_b_terms(pcg: PCG, b_terms: Sequence[BTerm]) -> None:
    seen = set()
    for s, term in enumerate(b_terms):
        if not term.vertices:
            raise StateConditionError(f"b-term #{s} is empty")
        if term.vertices[0] < 1:
            raise StateConditionError(f"b-term #{s} {term.vertices} has a vertex below 1")
        if term.vertices[-1] > pcg.n:
            raise StateConditionError(f"b-term #{s} {term.vertices} exceeds site count")
        if term.vertices in seen:
            raise StateConditionError(f"b-term #{s} repeats the pattern {term.vertices}")
        seen.add(term.vertices)
        mask = site_mask(term.vertices)
        for r, e in enumerate(pcg.edges):
            # T_s must meet the complement of every edge, otherwise the
            # term survives that edge's conditioning and breaks certainty.
            if mask | e.mask == e.mask:
                raise StateConditionError(
                    f"b-term #{s} {set(term.vertices)} lies inside edge #{r} "
                    f"{set(e.vertices)}"
                )
    if b_terms:
        try:
            weight = sum(abs(t.lam) ** 2 for t in b_terms)
        except OverflowError:  # a finite lambda too large to square
            weight = math.inf
        if not abs(weight - 1.0) <= NORM_TOL:  # written so that NaN fails
            raise StateConditionError(f"b-term weights sum to {weight}, expected 1")


def build_state(pcg: PCG, alpha: complex = 1.0, b_terms: Sequence[BTerm] = ()) -> SparseState:
    """Construct the n-qubit state encoding ``pcg``.

    The graph component puts amplitude alpha/sqrt(p+1) on |0...0> and
    -alpha*theta_i/sqrt(p+1) on each edge pattern; the optional
    orthogonal component adds beta*lambda_s on each b-term pattern with
    beta = sqrt(1-|alpha|^2) taken real and non-negative.
    """
    a = complex(alpha)
    try:
        mag = abs(a)
    except OverflowError:  # finite parts whose modulus is past the largest float
        mag = math.inf
    if mag > 1 + NORM_TOL:
        raise StateConditionError(f"|alpha| = {mag} exceeds 1")
    scale = a / math.sqrt(pcg.p + 1)
    if not abs(scale) >= PRUNE_TOL:  # the graph component would be pruned (or is NaN)
        raise StateConditionError(
            f"|alpha|/sqrt(p+1) = {abs(scale)} is below {PRUNE_TOL}, so the state "
            "would keep no graph component"
        )
    b_terms = tuple(b_terms)
    if not b_terms and abs(mag - 1.0) > NORM_TOL:
        raise StateConditionError("|alpha| < 1 needs b-terms to complete the state")
    _check_b_terms(pcg, b_terms)
    amps: dict[int, complex] = {0: scale}
    for e in pcg.edges:
        if e.mask in amps:
            raise StateConditionError(f"duplicate edge pattern {set(e.vertices)}")
        amps[e.mask] = -e.theta * scale
    beta = math.sqrt(max(0.0, 1.0 - mag * mag))
    for term in b_terms:
        amps[site_mask(term.vertices)] = beta * term.lam
    return SparseState._from_keys(pcg.n, 2, amps)


def _site_digits(state: SparseState, assignment: Mapping[int, int]) -> tuple[int, int]:
    """The site mask and wanted key of a range-checked site -> digit map."""
    d = state.d
    mask = want = 0
    for site, digit in assignment.items():
        if not 1 <= site <= state.n:
            raise ValueError(f"site {site} out of range 1..{state.n}")
        if not 0 <= digit < d:
            raise ValueError(f"digit {digit} out of range for d={d}")
        mask |= 1 << site - 1
        if digit:
            want += digit * d ** (site - 1)
    return mask, want


def _matching(state: SparseState, mask: int, want: int) -> dict[int, complex]:
    """The amplitudes whose key agrees with ``want`` (a key with digits only
    at the sites of ``mask``) at every site of ``mask``, in the state's key order.

    A matching qubit key other than 0 has its lowest set bit at want's
    lowest bit, or at a free site (one outside ``mask``) below it; with
    ``want = 0``, at any free site.  So only those buckets of the key
    index are visited, and each key in them is tested against ``mask``.
    A qudit key is tested digit by digit at the masked places.
    """
    if mask < 0 or mask >> state.n:
        raise ValueError(f"site mask {mask:#x} has sites outside 1..{state.n}")
    amps = state.amplitudes
    d = state.d
    if d != 2:
        places = [(p, want // p % d) for p in (d ** (v - 1) for v in mask_vertices(mask))]
        matching = {}
        for k, a in amps.items():
            for place, digit in places:
                if k // place % d != digit:
                    break
            else:
                matching[k] = a
        return matching
    if want:
        first = want & -want
        free = (first - 1) & ~mask
    else:
        first = 0
        free = ((1 << state.n) - 1) ^ mask
    index = state._key_index
    found = [entry for entry in index.get(first, ()) if entry[1] & mask == want]
    while free:
        low = free & -free
        for entry in index.get(low, ()):
            if entry[1] & mask == want:
                found.append(entry)
        free ^= low
    found.sort()
    return {k: amps[k] for _, k in found}


def project_z(
    state: SparseState, assignment: Mapping[int, int] | int
) -> tuple[float, SparseState | None]:
    """Condition on Z outcomes: returns (probability, renormalized state).

    ``assignment`` maps 1-based sites to observed digits, or is a site
    mask (bit v-1 for site v) that conditions every masked site on
    digit 0 (Z = +1).  A zero probability returns None for the post state.

    The post state's keys are some of ``state``'s, which were range-checked
    when it was built, so only the prune test and the norm check run again.
    """
    if isinstance(assignment, int):
        mask, want = assignment, 0
    else:
        mask, want = _site_digits(state, assignment)
    matching = _matching(state, mask, want)
    prob = sum([abs(a) ** 2 for a in matching.values()])
    if prob <= 0.0:
        return 0.0, None
    scale = 1 / math.sqrt(prob)
    post: dict[int, complex] = {}
    norm2 = 0.0
    for k, a in matching.items():
        a *= scale
        if not abs(a) < PRUNE_TOL:  # written so that NaN is kept
            post[k] = a
            norm2 += abs(a) ** 2
    if not abs(norm2 - 1.0) <= NORM_TOL:  # written so that NaN fails
        raise ValueError(f"state norm^2 = {norm2} is not 1 within {NORM_TOL}")
    return prob, SparseState(state.n, state.d, post)


@lru_cache(maxsize=8)  # d = 2..7 fit; the rows for any d take O(d^2) memory
def _inverse_root_rows(d: int) -> tuple[tuple[complex, ...], ...]:
    """Row j holds omega(d) ** (-j*m) for m = 0..d-1."""
    w = omega(d)
    return tuple(tuple(w ** (-j * m) for m in range(d)) for j in range(d))


def x_product_distribution(
    state: SparseState, sites: Iterable[int] | int, basis: str = "X"
) -> dict[int, float]:
    """Exact outcome distribution of the product observable over ``sites``.

    The observable is the product of single-site shift operators (Pauli
    X for qubits); eigenvalues are omega^j and the returned map is
    keyed by the power j, so j=0 is +1 and j=1 is -1 when d=2.
    ``sites`` may instead be a nonzero site mask (bit v-1 for site v).
    Basis "Y" (qubits only) conjugates each measured site by diag(1, -i)
    before the same evaluation.  At every d, each moment looks
    up every key's partner in the state's own dict; no shifted copy is built.
    """
    d = state.d
    if isinstance(sites, int):
        if sites <= 0 or sites >> state.n:
            raise ValueError(f"site mask {sites:#x} is empty or has sites outside 1..{state.n}")
        shift = sites
    else:
        site_set = frozenset(sites)
        if not site_set:
            raise ValueError("site set must be nonempty")
        for s in site_set:
            if not 1 <= s <= state.n:
                raise ValueError(f"site {s} out of range 1..{state.n}")
        shift = site_mask(site_set)
    if basis not in ("X", "Y"):
        raise ValueError(f"basis must be X or Y, got {basis!r}")
    amps = state.amplitudes
    if basis == "Y":
        if d != 2:
            raise ValueError("Y basis is defined for qubits only")
        amps = {k: a * (-1j) ** (k & shift).bit_count() for k, a in amps.items()}
    # Moments phi_m = <psi| W^m |psi> determine the spectral weights.
    moment = 0j
    for a in amps.values():
        moment += a.conjugate() * a
    moments = [moment]
    if d == 2:  # W is an involution: phi_1 pairs each key with its partner k ^ shift
        moment = 0j
        for k, a in amps.items():
            partner = amps.get(k ^ shift)
            if partner is not None:
                moment += a.conjugate() * partner
        moments.append(moment)
    else:  # W^-m raises each listed digit by m, so a digit >= d - m wraps by d
        places = [d ** (v - 1) for v in mask_vertices(shift)]
        total = sum(places)
        terms: list[list[complex]] = [[] for _ in range(1, d)]
        for k, a in amps.items():
            held = [0] * d  # held[v]: the sum of the listed places whose digit is v
            for p in places:
                held[k // p % d] += p
            wrapped = 0
            for m in range(1, d):
                wrapped += held[d - m]
                partner = amps.get(k + m * total - d * wrapped)
                if partner is not None:
                    terms[m - 1].append(a.conjugate() * partner)
        moments += map(sum, terms)
    dist: dict[int, float] = {}
    for j, row in enumerate(_inverse_root_rows(d)):
        val = sum(map(mul, row, moments)) / d
        if abs(val.imag) > 1e-9:
            raise CrossCheckError(f"non-real spectral weight {val} for power {j} of the "
                                  f"{basis} product over sites {mask_vertices(shift)} (d={d})")
        dist[j] = val.real if val.real > 0.0 else 0.0  # max(0.0, val.real), NaN to 0.0 too
    return dist


def joint_z_probability(state: SparseState, sites: Iterable[int] | int, digit: int = 0) -> float:
    """Probability that every listed site, or every site of a site mask,
    yields the given Z digit."""
    if not 0 <= digit < state.d:
        raise ValueError(f"digit {digit} out of range for d={state.d}")
    if isinstance(sites, int):
        # the mask's binary digits read in base d: digit 1 at every masked site
        mask, want = sites, digit * int(format(sites, "b"), state.d)
    else:
        mask, want = _site_digits(state, dict.fromkeys(sorted(set(sites)), digit))
    return sum(abs(a) ** 2 for a in _matching(state, mask, want).values())


QUDIT_FAMILY_MAX_D = 7


def build_qudit_family(d: int) -> SparseState:
    """The (d+1)-site qudit state generalizing the minimal 3-qubit case.

    Amplitudes are 1/sqrt(1 + (d-1)(d+1)) on |0...0> and omega^c times
    that on every string holding digit c at all sites but one, for
    c = 1..d-1.  At d = 2 this is exactly the minimal triangle state.
    """
    if not 2 <= d <= QUDIT_FAMILY_MAX_D:
        raise ResourceLimitError(f"qudit family supports 2 <= d <= {QUDIT_FAMILY_MAX_D}")
    n, w = d + 1, omega(d)
    scale = 1 / math.sqrt(1 + (d - 1) * (d + 1))
    all_ones = (d**n - 1) // (d - 1)  # digit 1 at every site
    amps: dict[int, complex] = {0: scale}
    for c in range(1, d):
        for zero_site in range(1, n + 1):
            amps[c * (all_ones - d ** (zero_site - 1))] = (w**c) * scale
    return SparseState._from_keys(n, d, amps)


_PAULI_LETTERS = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class PauliWord:
    """Tensor product of single-qubit Paulis with a global phase, applied as
    phase * i^#Y * X^x Z^z (Y = iXZ): |k> -> (-1)^|k & z| |k ^ x> times that."""

    letters: tuple[str, ...]
    phase: complex = 1 + 0j

    def __post_init__(self):
        if any(l not in _PAULI_LETTERS for l in self.letters):
            raise ValueError(f"letters must be from {_PAULI_LETTERS}")
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be one of +1, -1, +i, -i")
        object.__setattr__(self, "phase", complex(self.phase))

    @classmethod
    def from_sites(cls, n: int, letters: Mapping[int, str], phase: complex = 1) -> "PauliWord":
        word = ["I"] * n
        for site, letter in letters.items():
            if not 1 <= site <= n:
                raise ValueError(f"site {site} out of range 1..{n}")
            word[site - 1] = letter
        return cls(tuple(word), phase)

    @property
    def n(self) -> int:
        return len(self.letters)

    def apply(self, state: SparseState) -> SparseState:
        if state.d != 2:
            raise ValueError("Pauli words act on qubit states only")
        if state.n != self.n:
            raise ValueError(f"word on {self.n} sites applied to {state.n}-site state")
        x = site_mask(i + 1 for i, l in enumerate(self.letters) if l in ("X", "Y"))
        z = site_mask(i + 1 for i, l in enumerate(self.letters) if l in ("Y", "Z"))
        coeff = self.phase * 1j ** self.letters.count("Y")
        return SparseState._from_keys(self.n, 2, {
            k ^ x: (-coeff if (k & z).bit_count() & 1 else coeff) * a
            for k, a in state.amplitudes.items()})


def pps_amplitude(
    pre_state: SparseState, post_state: SparseState, word: PauliWord, sign: int
) -> complex:
    """Transition amplitude <post| (I + sign*word)/2 |pre>.

    A magnitude below ~1e-12 certifies that the projected property never
    occurs between the pre- and post-selection.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if pre_state.d != 2 or post_state.d != 2:
        raise ValueError("pre/post-selection amplitudes are defined for qubits")
    if pre_state.n != post_state.n or pre_state.n != word.n:
        raise ValueError("pre state, post state, and word must share the site count")
    direct = post_state.inner(pre_state)
    through = post_state.inner(word.apply(pre_state))
    return (direct + sign * through) / 2


_QUBIT_CHARS = {  # spec character -> {bit: amplitude}
    "0": {0: 1.0}, "1": {1: 1.0},
    "+": {0: 1 / math.sqrt(2), 1: 1 / math.sqrt(2)},
    "-": {0: 1 / math.sqrt(2), 1: -1 / math.sqrt(2)},
}


def qubit_product_state(spec: str) -> SparseState:
    """Product state from a character spec, e.g. "010" or "+-+"."""
    if not spec or any(c not in _QUBIT_CHARS for c in spec):
        raise ValueError(f"spec must be nonempty over {sorted(_QUBIT_CHARS)}, got {spec!r}")
    amps: dict[int, complex] = {0: 1.0}
    for site, c in enumerate(spec):
        amps = {key | bit << site: amp * factor
                for key, amp in amps.items() for bit, factor in _QUBIT_CHARS[c].items()}
    return SparseState._from_keys(len(spec), 2, amps)


def sample_counts(state: SparseState, shots: int, seed: int | None = None) -> dict[str, int]:
    """Seeded demo sampler keyed by digit string; certification never uses it."""
    if shots < 1:
        raise ValueError("shots must be positive")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(f"shots = {shots} exceeds the ceiling of {MAX_SHOTS}")
    keys, amps = zip(*state.listing())
    weights = [abs(a) ** 2 for a in amps]
    return dict(Counter(random.Random(seed).choices(keys, weights=weights, k=shots)))
