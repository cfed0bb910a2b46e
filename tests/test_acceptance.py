"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report
lines and timings.
"""
import json
import math
import random
import time

from pcgraph import (
    BTerm,
    PCG,
    PauliWord,
    PcgFile,
    brute_force_colorings,
    build_state,
    catalog_get,
    classify,
    dump_pcg_file,
    enumerate_pcgs,
    is_colorable,
    is_irreducible,
    load_pcg_file,
    pps_amplitude,
    project_z,
    qubit_product_state,
    success_table,
    validate,
    verify,
    verify_qudit_family,
    x_product_distribution,
)
from pcgraph.catalog import (
    loop_pcg,
    magic_m4_pcg,
    magic_m8_pcg,
    magic_m9_pcg,
    magic_m16_pcg,
    triangle_pcg,
)
from pcgraph.search import canonical_form

from _oracles import random_valid_pcg

SQ2 = 1 / math.sqrt(2)


def _report(number, name, started, budget):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_minimal_paradox():
    started = time.perf_counter()
    for alpha in (1.0, SQ2):
        cert = verify(triangle_pcg(), alpha, [BTerm((1, 2, 3), 1.0)])
        assert cert.verdict == "paradox"
        assert (cert.rank_a, cert.rank_b) == (2, 3)
        assert (cert.census_total, cert.census_satisfying) == (8, 0)
        assert len(cert.hardy_checks) == 3
        for check in cert.hardy_checks:
            assert abs(check.probability - 1.0) <= 1e-9
        assert abs(cert.success.simulated - abs(alpha) ** 2 / 4) <= 1e-12
    _report(1, "minimal paradox", started, 1.0)


def test_criterion_2_loop_family_record():
    started = time.perf_counter()
    for n in range(3, 13):
        pcg = loop_pcg(n)
        decision = is_colorable(pcg)
        assert not decision.colorable
        cert = verify(pcg)
        assert abs(cert.success.simulated - 1.0 / (n + 1)) <= 1e-9
    rows = success_table(50)
    for row in rows:
        assert row.p_loop >= row.p_generalized > row.p_standard
        if row.n == 3:
            assert abs(row.p_loop - row.p_generalized) <= 1e-15
        else:
            assert row.p_loop > row.p_generalized
    _report(2, "loop family record", started, 5.0)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    disagreements = 0
    exhaustive_count = 0
    for n in (2, 3, 4):
        for pcg in enumerate_pcgs(n, 5):
            exhaustive_count += 1
            decision = is_colorable(pcg)
            census = brute_force_colorings(pcg)
            if decision.colorable != (census.satisfying > 0):
                disagreements += 1
    # 7 classes at n=3 plus 78 at n=4; verified against a direct labeled
    # count via orbit sizes in test_search.py
    assert exhaustive_count == 85
    rng = random.Random(20240817)
    for _ in range(10_000):
        pcg = random_valid_pcg(rng, max_n=10, max_edges=8)
        decision = is_colorable(pcg)
        census = brute_force_colorings(pcg)
        if decision.colorable != (census.satisfying > 0):
            disagreements += 1
    assert disagreements == 0
    _report(3, "rank criterion vs brute force", started, 60.0)


def test_criterion_4_qutrit_paradox():
    started = time.perf_counter()
    cert = verify_qudit_family(3)
    assert cert.verdict == "paradox"
    assert len(cert.constraint_probabilities) == 4
    for p in cert.constraint_probabilities:
        assert abs(p - 1.0) <= 1e-9
    assert abs(cert.joint_simulated - 1 / 9) <= 1e-12
    assert (cert.census_total, cert.census_satisfying) == (81, 0)
    # family consistency at d=2 against the minimal instance of criterion 1
    base = verify(triangle_pcg())
    qudit2 = verify_qudit_family(2)
    assert qudit2.verdict == base.verdict == "paradox"
    assert abs(qudit2.joint_simulated - base.success.simulated) <= 1e-12
    assert (qudit2.census_total, qudit2.census_satisfying) == (8, 0)
    _report(4, "qutrit paradox", started, 1.0)


def test_criterion_5_pre_post_selection_fixture():
    started = time.perf_counter()
    entry = catalog_get("pps-three-qubit")
    pre = qubit_product_state(entry.pps.pre_spec)
    post = qubit_product_state(entry.pps.post_spec)
    signs = {(1, 2): +1, (1, 3): -1, (2, 3): -1}
    for (i, j), sign in signs.items():
        word = PauliWord.from_sites(3, {i: "Y", j: "Y"})
        assert abs(pps_amplitude(pre, post, word, sign)) < 1e-12
    _report(5, "pre/post-selection fixture", started, 1.0)


def test_criterion_6_magic_squares():
    started = time.perf_counter()
    instances = {
        "m4": (magic_m4_pcg(), False),
        "m8": (magic_m8_pcg(), False),
        "m9": (magic_m9_pcg(), True),
        "m9-tilde": (magic_m9_pcg(extended=True), False),
        "m16": (magic_m16_pcg(), True),
        "m16-tilde": (magic_m16_pcg(extended=True), False),
    }
    for name, (pcg, expect_colorable) in instances.items():
        decision = is_colorable(pcg)
        census = brute_force_colorings(pcg)  # 2^16 censuses included
        assert decision.colorable == expect_colorable, name
        assert (census.satisfying > 0) == expect_colorable, name
        assert census.total == 1 << pcg.n
    # Hardy certainty for every edge of every magic-square state in the
    # framework: all instances above except m16-tilde are valid PCGs.  The
    # extended 4x4 square nests both diagonals inside its added edge, which
    # breaks the antichain rule and demonstrably destroys that edge's
    # certainty (it is exactly 1/2), so the construction sits outside the
    # valid family and is checked separately below.
    for name, (pcg, _) in instances.items():
        if name == "m16-tilde":
            continue
        assert validate(pcg).ok, name
        state = build_state(pcg)
        for e in pcg.edges:
            complement = sorted(set(range(1, pcg.n + 1)) - set(e.vertices))
            _, conditioned = project_z(state, {s: 0 for s in complement})
            dist = x_product_distribution(conditioned, e.vertices)
            assert abs(dist[e.theta_bit] - 1.0) <= 1e-9, (name, e.vertices)
    tilde = magic_m16_pcg(extended=True)
    assert not validate(tilde).ok
    state = build_state(tilde)
    nested = tilde.edges[-1]
    _, conditioned = project_z(
        state, {s: 0 for s in set(range(1, 17)) - set(nested.vertices)}
    )
    assert abs(x_product_distribution(conditioned, nested.vertices)[1] - 0.5) <= 1e-12
    _report(6, "magic squares", started, 10.0)


def test_criterion_7_irreducibility():
    started = time.perf_counter()
    assert is_irreducible(triangle_pcg()).status == "irreducible"
    bridged = PCG.build(4, [((2, 3), +1), ((1, 3), +1), ((1, 2), +1), ((3, 4), -1)])
    result = is_irreducible(bridged)
    assert result.status == "reducible"
    assert tuple(e.vertices for e in result.witness) == ((2, 3), (1, 3), (1, 2))
    assert canonical_form(PCG(4, result.witness)) != canonical_form(bridged)
    _report(7, "irreducibility", started, 1.0)


def test_criterion_8_property_suites(tmp_path):
    started = time.perf_counter()
    # normalization after every build and projection
    rng = random.Random(99)
    for _ in range(25):
        pcg = random_valid_pcg(rng, max_n=8, max_edges=6)
        state = build_state(pcg)
        assert abs(state.norm_squared() - 1.0) <= 1e-9
        site = rng.randint(1, pcg.n)
        prob, conditioned = project_z(state, {site: 0})
        if conditioned is not None:
            assert abs(conditioned.norm_squared() - 1.0) <= 1e-9
    # global-phase invariance of certificate probabilities
    base = verify(triangle_pcg(), SQ2, [BTerm((1, 2, 3), 1.0)])
    for phi in (0.7, 2.9):
        rotated = verify(
            triangle_pcg(), SQ2 * complex(math.cos(phi), math.sin(phi)),
            [BTerm((1, 2, 3), 1.0)],
        )
        assert abs(rotated.success.simulated - base.success.simulated) <= 1e-12
        for a, b in zip(rotated.hardy_checks, base.hardy_checks):
            assert abs(a.probability - b.probability) <= 1e-12
    # round-trip file identity on the canonical form
    entry = catalog_get("loop", {"n": 5})
    instance = PcgFile(pcg=entry.pcg, alpha=complex(entry.alpha), b_terms=entry.b_terms)
    path = tmp_path / "loop5.json"
    dump_pcg_file(instance, path)
    assert canonical_form(load_pcg_file(path).pcg) == canonical_form(entry.pcg)
    # deterministic parallel-vs-serial censuses
    serial = classify(enumerate_pcgs(4, 3, workers=1)).to_json_dict()
    parallel = classify(enumerate_pcgs(4, 3, workers=2)).to_json_dict()
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
    _report(8, "property suites", started, 60.0)
