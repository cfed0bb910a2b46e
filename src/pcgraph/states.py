"""Exact sparse simulation of the graph-encoded states.

A state on n sites of local dimension d maps integer keys to complex
amplitudes.  A key holds site v's digit at place d^(v-1), so a qubit
key has bit v-1 set iff site v reads 1 and an edge's vertex mask is the
key of its pattern.  The encoded states have at most p + 1 + |B-terms|
nonzero amplitudes, so hundreds of sites need no dense 2^n vector.
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
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import CrossCheckError, ResourceLimitError, StateConditionError
from .graph import PCG

NORM_TOL = 1e-9
PRUNE_TOL = 1e-15
MAX_SHOTS = 10**6


def omega(d: int) -> complex:
    """Primitive d-th root of unity exp(2 pi i / d)."""
    return cmath.exp(2j * math.pi / d)


def site_mask(sites: Iterable[int]) -> int:
    """Qubit key with bit v-1 set for every listed 1-based site v."""
    return sum(map((1).__lshift__, set(sites))) >> 1  # sum of 2^v, halved


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
    def from_amplitudes(
        cls, n: int, amps: Mapping[str, complex], d: int = 2, normalize: bool = False
    ) -> "SparseState":
        """State from digit-string keys; checks key shape and the norm."""
        return cls._from_keys(n, d, {parse_key(k, n, d): a for k, a in amps.items()}, normalize)

    @classmethod
    def _from_keys(cls, n: int, d: int, amps: Mapping[int, complex], normalize: bool = False):
        if n < 1:
            raise ValueError("site count must be at least 1")
        if d < 2:
            raise ValueError("local dimension must be at least 2")
        size = d**n
        cleaned: dict[int, complex] = {}
        for key, amp in amps.items():
            if not 0 <= key < size:
                raise ValueError(f"basis key {key} is outside 0..{d}^{n}-1")
            if abs(amp) >= PRUNE_TOL:
                cleaned[key] = complex(amp)
        norm2 = sum(abs(a) ** 2 for a in cleaned.values())
        if normalize:
            if norm2 == 0:
                raise ValueError("cannot normalize the zero state")
            scale = 1 / math.sqrt(norm2)
            cleaned = {k: a * scale for k, a in cleaned.items()}
        elif abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2} is not 1 within {NORM_TOL}")
        return cls(n, d, cleaned)

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
        verts = tuple(sorted(set(self.vertices)))
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
        weight = sum(abs(t.lam) ** 2 for t in b_terms)
        if abs(weight - 1.0) > NORM_TOL:
            raise StateConditionError(f"b-term weights sum to {weight}, expected 1")


def build_state(pcg: PCG, alpha: complex = 1.0, b_terms: Sequence[BTerm] = ()) -> SparseState:
    """Construct the n-qubit state encoding ``pcg``.

    The graph component puts amplitude alpha/sqrt(p+1) on |0...0> and
    -alpha*theta_i/sqrt(p+1) on each edge pattern; the optional
    orthogonal component adds beta*lambda_s on each b-term pattern with
    beta = sqrt(1-|alpha|^2) taken real and non-negative.
    """
    a = complex(alpha)
    mag = abs(a)
    if mag < PRUNE_TOL:
        raise StateConditionError("alpha must be nonzero")
    if mag > 1 + NORM_TOL:
        raise StateConditionError(f"|alpha| = {mag} exceeds 1")
    b_terms = tuple(b_terms)
    if not b_terms and abs(mag - 1.0) > NORM_TOL:
        raise StateConditionError("|alpha| < 1 needs b-terms to complete the state")
    _check_b_terms(pcg, b_terms)
    scale = a / math.sqrt(pcg.p + 1)
    amps: dict[int, complex] = {0: scale}
    for e in pcg.edges:
        if e.mask in amps:
            raise StateConditionError(f"duplicate edge pattern {set(e.vertices)}")
        amps[e.mask] = -e.theta * scale
    beta = math.sqrt(max(0.0, 1.0 - mag * mag))
    for term in b_terms:
        amps[site_mask(term.vertices)] = beta * term.lam
    return SparseState._from_keys(pcg.n, 2, amps)


def _matching(state: SparseState, assignment: Mapping[int, int]) -> dict[int, complex]:
    """The amplitudes whose Z digits agree with ``assignment`` (site -> digit)."""
    for site, digit in assignment.items():
        if not 1 <= site <= state.n:
            raise ValueError(f"site {site} out of range 1..{state.n}")
        if not 0 <= digit < state.d:
            raise ValueError(f"digit {digit} out of range for d={state.d}")
    if state.d == 2:
        return _matching_mask(state, site_mask(assignment),
                              site_mask(compress(assignment, assignment.values())))
    d = state.d
    places = [(d ** (site - 1), digit) for site, digit in assignment.items()]
    return {k: a for k, a in state.amplitudes.items()
            if all(k // place % d == digit for place, digit in places)}


def _matching_mask(state: SparseState, mask: int, want: int) -> dict[int, complex]:
    """The qubit amplitudes whose key agrees with ``want`` on the bits of ``mask``."""
    if state.d != 2:
        raise ValueError(f"a site mask conditions qubits only, got d={state.d}")
    if mask < 0 or mask >> state.n:
        raise ValueError(f"site mask {mask:#x} has sites outside 1..{state.n}")
    if want & ~mask:
        raise ValueError(f"outcome bits {want & ~mask:#x} lie outside the site mask {mask:#x}")
    # A matching key has no bit outside ceiling, so it is at most ceiling:
    # one comparison rejects most longer keys before the AND.
    ceiling = ((1 << state.n) - 1) ^ mask | want
    return {k: a for k, a in state.amplitudes.items() if k <= ceiling and k & mask == want}


def project_z(
    state: SparseState, assignment: Mapping[int, int] | int, want: int = 0
) -> tuple[float, SparseState | None]:
    """Condition on Z outcomes: returns (probability, renormalized state).

    ``assignment`` maps 1-based sites to observed digits.  For qubits it
    may instead be a site mask (bit v-1 for site v): the outcome on those
    sites is then read from the same bits of ``want``, so ``want = 0``
    conditions every masked site on Z = +1.  A zero probability returns
    None for the post state.
    """
    if isinstance(assignment, int):
        matching = _matching_mask(state, assignment, want)
    elif want:
        raise ValueError("outcome bits go with a site mask; a site map carries its own digits")
    else:
        matching = _matching(state, assignment)
    prob = sum(abs(a) ** 2 for a in matching.values())
    if prob <= 0.0:
        return 0.0, None
    scale = 1 / math.sqrt(prob)
    post = {k: a * scale for k, a in matching.items()}
    return prob, SparseState._from_keys(state.n, state.d, post)


def _apply_shift(amps: dict[int, complex], sites: frozenset[int], d: int) -> dict[int, complex]:
    """Apply X (|m> -> |m-1 mod d>) on every listed site; a key bijection."""
    if d == 2:
        mask = site_mask(sites)
        return {k ^ mask: a for k, a in amps.items()}
    places = [d ** (s - 1) for s in sites]  # digit 0 wraps to d-1, others step down
    return {k + sum(-p if k // p % d else (d - 1) * p for p in places): a for k, a in amps.items()}


def x_product_distribution(
    state: SparseState, sites: Iterable[int], basis: str = "X"
) -> dict[int, float]:
    """Exact outcome distribution of the product observable over ``sites``.

    The observable is the product of single-site shift operators (Pauli
    X for qubits); eigenvalues are omega^j and the returned map is
    keyed by the power j, so j=0 is +1 and j=1 is -1 when d=2.  Basis
    "Y" (qubits only) conjugates each measured site by diag(1, -i)
    before the same evaluation.
    """
    site_set = frozenset(sites)
    if not site_set:
        raise ValueError("site set must be nonempty")
    for s in site_set:
        if not 1 <= s <= state.n:
            raise ValueError(f"site {s} out of range 1..{state.n}")
    if basis not in ("X", "Y"):
        raise ValueError(f"basis must be X or Y, got {basis!r}")
    amps = state.amplitudes
    if basis == "Y":
        if state.d != 2:
            raise ValueError("Y basis is defined for qubits only")
        mask = site_mask(site_set)
        amps = {k: a * (-1j) ** (k & mask).bit_count() for k, a in amps.items()}
    d = state.d
    w = omega(d)
    # Moments phi_m = <psi| W^m |psi> determine the spectral weights.
    moments, current = [], amps
    for m in range(d):
        if m:
            current = _apply_shift(current, site_set, d)
        moments.append(sum(a.conjugate() * current[k] for k, a in amps.items() if k in current))
    dist: dict[int, float] = {}
    for j in range(d):
        val = sum(w ** (-j * m) * moments[m] for m in range(d)) / d
        if abs(val.imag) > 1e-9:
            raise CrossCheckError(f"non-real spectral weight {val} for power {j} of the "
                                  f"{basis} product over sites {sorted(site_set)} (d={d})")
        dist[j] = max(0.0, val.real)
    return dist


def joint_z_probability(state: SparseState, sites: Iterable[int], digit: int = 0) -> float:
    """Probability that every listed site yields the given Z digit."""
    if not 0 <= digit < state.d:
        raise ValueError(f"digit {digit} out of range for d={state.d}")
    matching = _matching(state, dict.fromkeys(sorted(set(sites)), digit))
    return sum(abs(a) ** 2 for a in matching.values())


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
