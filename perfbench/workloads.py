"""The two benchmark workloads: seeded inputs, timed calls and known answers.

Each workload joins two mixes, and each mix function returns its ops;
a workload's pass is both mixes' ops in one seeded order.  An op
is one timed call into the library plus a check of its output against
an answer known from the construction (see ``instances``), a closed
form, a catalog ``Expected`` field or a golden value recorded from the
library at the commit that added the benchmark.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import instances as gen

TOL = 1e-9

# Sizes are fixed; the seed only changes structure, labels and order, so
# every seed gives a pass of about the same cost.  Each pass holds a
# number of ops that is 5 mod 10: a run repeats whole passes, so the
# median and the 90th percentile each fall in the middle of one op's
# repeated samples instead of between two ops of different cost.
PASS_LENGTH_MOD_10 = 5
CENSUS_CATALOG = (
    "minimal-psi", "map-four-regions", "magic-m8", "magic-m9", "magic-m9-tilde", "magic-m16",
)
CENSUS_LOOP_NS = tuple(range(16, 25))
CENSUS_ODD_LOOP_NS = (17, 19, 21, 23)
CENSUS_RANDOM_NS = tuple(range(16, 25))
CENSUS_EXTRA_EDGES = 4  # p = n + 4 > n, so an un-colourable variant exists
QUDIT_DS = (3, 4, 5, 6, 7)

WIDE_LOOP_NS = (40, 80, 120, 160, 200)
WIDE_RANDOM_NS = (40, 48, 56, 64, 72, 80, 88, 96, 104)
WIDE_EDGE_RATIO = 1.25

TRIAGE_NS = (40, 60, 80, 100, 120)
TRIAGE_COLORABLE_NS = (40, 64, 88, 112, 136)

# (n, max_edges, sizes) with golden (count, colorable, uncolorable,
# irreducible, sha256 of the emitted forms in emitted order).
SEARCH_GOLDEN: dict[tuple[int, int, tuple[int, ...] | None], tuple[int, int, int, int, str]] = {
    (3, 3, None): (7, 5, 2, 2, "ab21803c024d09dd81d4947d5169efb490ed5ef1dda1d7294e469a0c2455e862"),
    (4, 3, (2,)): (10, 10, 0, 0, "cc351219aee4deec142d6b527178b9b424c6954ab90bae2d0c0de2152d86eab3"),
    (4, 4, (2,)): (28, 20, 8, 2, "0dcab4a83525414a96816e7a402ddac53e511286e0719ed887d41053e45d0e96"),
    (4, 5, (2,)): (42, 25, 17, 2, "364aec29131943ebc3ccabb98221d75bced12003897e694bda845dbfa5153c59"),
    (4, 6, (2,)): (53, 28, 25, 2, "24d854ffe23ba6b407266a45019afe970668031b6c45a6ebed1c41b154a50086"),
    (5, 4, (4,)): (12, 12, 0, 0, "f823465f0356c70398ad514787402a80fa6df916a78357632ee67ef230da2a85"),
    (4, 2, None): (7, 7, 0, 0, "8661b725c93bd3e9f5bf29e327686494fd859464133cd741576b93deef3fc179"),
    (4, 3, None): (33, 30, 3, 3, "fbb436633dcef3643670ef98edfdab6ef7e3118e667bbaf2a5741d19d8c3c382"),
    (4, 4, None): (64, 53, 11, 5, "c043ca16864868a672924aa2d31fa5ed8cbd911569633b2ae47d3e55af519363"),
    (4, 5, None): (78, 58, 20, 5, "ef410c50b85e3a033b485288894e4617cf9ee59966244e97241d77566b0f47ea"),
    (4, 6, None): (89, 61, 28, 5, "66dab63c9d11645fa159a6d7834993ffda251a2610baaafdce4f4b201c0519a3"),
    (5, 2, None): (14, 14, 0, 0, "dac80b64febe6035f85eb2f62e8d43c4472fa766af93dace12a36d41fa837d9c"),
    (5, 2, (3, 4)): (10, 10, 0, 0, "9a8790bd4bed1699e6bd00bd3e6a1a279b031a989b35859f9d4a13126a8cd99e"),
    (5, 3, (3,)): (19, 19, 0, 0, "18d8a4c126d398f5d25af9a4c1f10604c02922458442d3b9c501bd6c69325c55"),
    (5, 3, None): (112, 106, 6, 6, "a3eb4dadbe0488f763f512b8da3ca040c10dc5178a5384bebc340cd53bc28203"),
}


class WrongAnswer(Exception):
    """An op returned, but its output differs from the known answer."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _expect(cond: bool, label: str, what: str) -> None:
    if not cond:
        raise WrongAnswer(f"{label}: {what}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


# --- certificate checks, shared by certify-census (CLI JSON) and certify-wide


@dataclass(frozen=True)
class CertAnswer:
    inst: gen.Instance
    success: float
    census: bool  # is the census expected to run (n <= lhv cap)?


def _answer(inst: gen.Instance, census: bool, success: float | None = None) -> CertAnswer:
    return CertAnswer(inst, gen.success_probability(inst.edges) if success is None else success, census)


def check_certificate(ans: CertAnswer, cert: dict) -> None:
    """Compare a certificate in its JSON form with the known answer."""
    inst, label = ans.inst, ans.inst.label
    _expect(cert["instance"]["n"] == inst.n, label, "vertex count")
    _expect(
        cert["instance"]["edges"]
        == [{"vertices": list(vs), "theta": t} for vs, t in inst.vertex_edges()],
        label, "edge list",
    )
    _expect(
        (cert["rank_a"], cert["rank_b"], cert["colorable"])
        == (inst.rank_a, inst.rank_b, inst.colorable),
        label, "ranks or colorability",
    )
    if inst.colorable:
        witness = cert["witness"]
        _expect(witness is not None and len(witness) == inst.n, label, "witness shape")
        bits = sum(1 << i for i, c in enumerate(witness) if c == -1)
        _expect(gen.satisfies(bits, inst.edges), label, "witness violates an edge")
    else:
        _expect(cert["witness"] is None, label, "witness on an un-colourable graph")
    if ans.census:
        satisfying = 1 << (inst.n - inst.rank_a) if inst.colorable else 0
        _expect(
            cert["lhv_census"] == {"skipped": False, "total": 1 << inst.n, "satisfying": satisfying},
            label, "census counts",
        )
    else:
        _expect(cert["lhv_census"] == {"skipped": True}, label, "census should be skipped")
    checks = cert["hardy_checks"]
    _expect(len(checks) == len(inst.edges), label, "hardy check count")
    _expect(all(_close(c["probability"], 1.0) for c in checks), label, "hardy check not certain")
    _expect(_close(cert["success"]["simulated"], ans.success), label, "success probability")
    verdict = ("no_paradox", "colorable") if inst.colorable else ("paradox", None)
    _expect((cert["verdict"], cert["reason"]) == verdict, label, "verdict")


def _pcg(pcgraph, inst: gen.Instance):
    return pcgraph.PCG.build(inst.n, inst.vertex_edges())


# --- certify-census: `pcgraph verify FILE --json` in process, plus the qudit family


def _cli_verify(cli_main, path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["verify", path, "--json"])
    if code != 0:
        raise RuntimeError(f"verify {path} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _qudit_op(pcgraph, d: int) -> Op:
    label = f"qudit-{d}"

    def check(cert) -> None:
        _expect((cert.d, cert.n, cert.required_power) == (d, d + 1, 1), label, "shape")
        _expect(all(_close(p, 1.0) for p in cert.constraint_probabilities), label, "constraints")
        # Summing the d+1 leave-one-out constraints gives 0 = 1 mod d: no assignment.
        _expect((cert.census_total, cert.census_satisfying) == (d ** (d + 1), 0), label, "census")
        _expect(_close(cert.joint_simulated, 1.0 / (1 + (d - 1) * (d + 1))), label, "joint")
        _expect(cert.verdict == "paradox", label, "verdict")

    return Op(label, lambda: pcgraph.verify_qudit_family(d), check)


def certify_census(pcgraph, rng: random.Random, workdir: Path) -> list[Op]:
    from pcgraph import catalog, cli, fileio

    files: list[tuple[fileio.PcgFile, CertAnswer]] = []
    for entry_id in CENSUS_CATALOG:
        entry = catalog.get(entry_id)
        inst = gen.make_instance(entry_id, entry.pcg.n, [(e.mask, e.theta) for e in entry.pcg.edges])
        if (inst.colorable, not inst.colorable) != (entry.expected.colorable, entry.expected.paradox):
            raise AssertionError(f"catalog {entry_id} disagrees with the benchmark's oracle")
        pcg_file = fileio.PcgFile(entry.pcg, alpha=complex(entry.alpha), b_terms=entry.b_terms)
        files.append((pcg_file, _answer(inst, True, entry.expected.success_probability)))
    insts = [gen.loop(rng, n) for n in CENSUS_LOOP_NS]
    insts += [gen.odd_red_loop(rng, n) for n in CENSUS_ODD_LOOP_NS]
    insts += [
        gen.random_antichain(rng, n, n + CENSUS_EXTRA_EDGES, colorable)
        for n in CENSUS_RANDOM_NS for colorable in (True, False)
    ]
    files += [(fileio.PcgFile(_pcg(pcgraph, inst)), _answer(inst, True)) for inst in insts]

    ops = []
    for i, (pcg_file, ans) in enumerate(files):
        path = str(workdir / f"{i:02d}-{ans.inst.label}.json")
        fileio.dump_pcg_file(pcg_file, path)
        ops.append(Op(
            ans.inst.label,
            lambda path=path: _cli_verify(cli.main, path),
            lambda cert, ans=ans: check_certificate(ans, cert),
        ))
    ops += [_qudit_op(pcgraph, d) for d in QUDIT_DS]
    return ops


# --- certify-wide: library verify() above the census cap


def certify_wide(pcgraph, rng: random.Random, workdir: Path) -> list[Op]:
    insts = [gen.loop(rng, n) for n in WIDE_LOOP_NS]
    insts += [
        gen.random_antichain(rng, n, round(WIDE_EDGE_RATIO * n), colorable)
        for n in WIDE_RANDOM_NS for colorable in (True, False)
    ]
    ops = []
    for inst in insts:
        pcg, ans = _pcg(pcgraph, inst), _answer(inst, False)
        ops.append(Op(
            inst.label,
            lambda pcg=pcg: pcgraph.verify(pcg),
            lambda cert, ans=ans: check_certificate(ans, cert.to_json_dict()),
        ))
    return ops


# --- triage: classify() on wide graphs, one graph per op


def triage(pcgraph, rng: random.Random, workdir: Path) -> list[Op]:
    cases = []  # (instance, expected status)
    for n in TRIAGE_NS:
        cases.append((gen.loop(rng, n), "irreducible"))
        cases.append((gen.odd_red_loop(rng, n | 1), "irreducible"))
        cases.append((gen.chorded_loop(rng, n), "reducible"))
    for n in TRIAGE_COLORABLE_NS:
        cases.append((gen.random_antichain(rng, n, round(WIDE_EDGE_RATIO * n), True), "colorable"))
    ops = []
    for inst, status in cases:
        pcg = _pcg(pcgraph, inst)
        expected = (
            1,
            int(status == "colorable"),
            int(status != "colorable"),
            (pcg,) if status == "irreducible" else (),
        )

        def check(census, inst=inst, expected=expected) -> None:
            got = (census.total, census.colorable, census.uncolorable, census.representatives)
            _expect(got == expected and census.irreducible == len(expected[3]), inst.label, "classification")

        ops.append(Op(inst.label, lambda pcg=pcg: pcgraph.classify([pcg]), check))
    return ops


# --- search: serial enumeration up to relabelling, then classification


def forms_digest(pcgs) -> str:
    """SHA-256 of the emitted graphs, in emitted order."""
    blob = json.dumps([[p.n, [[list(e.vertices), e.theta] for e in p.edges]] for p in pcgs])
    return hashlib.sha256(blob.encode()).hexdigest()


def _search_call(pcgraph, shape):
    n, max_edges, sizes = shape
    forms = pcgraph.enumerate_pcgs(n, max_edges, sizes)
    return forms, pcgraph.classify(forms)


def search(pcgraph, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for shape, golden in SEARCH_GOLDEN.items():
        label = f"search-{shape[0]}-{shape[1]}" + (f"-sizes{''.join(map(str, shape[2]))}" if shape[2] else "")

        def check(result, label=label, golden=golden) -> None:
            forms, census = result
            got = (len(forms), census.colorable, census.uncolorable, census.irreducible, forms_digest(forms))
            _expect(got == golden, label, f"census or forms digest {got[:4]}")

        ops.append(Op(label, lambda shape=shape: _search_call(pcgraph, shape), check))
    return ops


def _joined(*mixes):
    def build(pcgraph, rng: random.Random, workdir: Path) -> list[Op]:
        ops = [op for mix in mixes for op in mix(pcgraph, rng, workdir)]
        rng.shuffle(ops)
        return ops

    return build


# Two workloads rather than one per mix: on a shared 2-vCPU host, whole
# runs land in slow or fast phases of the machine, and only runs of about
# a minute average them out.  The run budget allows that for two.
WORKLOADS = {
    "certify": _joined(certify_census, certify_wide),
    "classify": _joined(triage, search),
}
