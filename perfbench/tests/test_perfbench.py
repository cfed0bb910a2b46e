"""Checks of the benchmark itself: generator, known answers and tracing."""
from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import instances as gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pcgraph = run.load_library()


def _naive_satisfying(inst: gen.Instance) -> int:
    return sum(gen.satisfies(bits, inst.edges) for bits in range(1 << inst.n))


def test_generator_is_deterministic_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        return [gen.loop(rng, 12), gen.odd_red_loop(rng, 13), gen.chorded_loop(rng, 12),
                gen.random_antichain(rng, 12, 16, True), gen.random_antichain(rng, 12, 16, False)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


@pytest.mark.parametrize("seed", range(5))
def test_planted_instances_are_valid_with_the_planted_answer(seed):
    rng = random.Random(seed)
    for colorable in (True, False):
        inst = gen.random_antichain(rng, 11, 15, colorable)
        assert pcgraph.validate(pcgraph.PCG.build(inst.n, inst.vertex_edges())).ok
        assert inst.colorable == colorable
        assert _naive_satisfying(inst) == ((1 << (inst.n - inst.rank_a)) if colorable else 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_passes_repeat_per_seed(name, tmp_path):
    def labels(seed, sub):
        workdir = tmp_path / f"{seed}-{sub}"
        workdir.mkdir()
        ops = workloads.WORKLOADS[name](pcgraph, random.Random(seed), workdir)
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        return [op.label for op in ops], files

    first = labels(3, "a")
    assert first == labels(3, "b")
    assert len(first[0]) % 10 == workloads.PASS_LENGTH_MOD_10


def _run_main(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_wrong_expected_answer_raises_fail_frac(monkeypatch, tmp_path, capsys):
    shape = (3, 3, None)
    argv = ["--workload", "search", "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    good = workloads.SEARCH_GOLDEN[shape]
    monkeypatch.setattr(workloads, "WORKLOADS", {"search": workloads.search})
    monkeypatch.setattr(workloads, "SEARCH_GOLDEN", {shape: good})
    info, result = _run_main(monkeypatch, tmp_path, capsys, argv)
    assert (result["correct"], result["failed"], info["fail_frac"]) == (True, 0, 0.0)

    wrong = (good[0] + 1,) + good[1:]
    monkeypatch.setattr(workloads, "SEARCH_GOLDEN", {shape: wrong})
    info, result = _run_main(monkeypatch, tmp_path, capsys, argv)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert info["fail_frac"] > 0


def test_wrong_certificate_answer_is_caught():
    inst = gen.loop(random.Random(0), 10)
    cert = pcgraph.verify(pcgraph.PCG.build(inst.n, inst.vertex_edges())).to_json_dict()
    workloads.check_certificate(workloads.CertAnswer(inst, 1 / 11, True), cert)
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_certificate(workloads.CertAnswer(inst, 1 / 12, True), cert)


def test_tracer_covers_every_alias_and_self_time_fits_in_wall_time():
    verify_module = importlib.import_module("pcgraph.verify")
    original = verify_module.project_z
    inst = gen.loop(random.Random(0), 10)
    pcg = pcgraph.PCG.build(inst.n, inst.vertex_edges())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify_module.project_z is not original
        assert pcgraph.project_z is verify_module.project_z
        phase = run.run_passes([workloads.Op("loop-10", lambda: pcgraph.verify(pcg), lambda _: None)], 0.2)
    finally:
        tracer.uninstall()
    assert verify_module.project_z is original

    totals = tracer.layer_totals()
    assert totals["verify.verify"][0] == phase.passes
    assert totals["states.project_z"][0] == inst.n * phase.passes  # one per edge
    assert totals["graph.brute_force_colorings"][0] == phase.passes
    assert tracer.counts["graph.census.assignments"] == (1 << inst.n) * phase.passes
    self_times = [self_s for _, self_s in totals.values()]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= tracer.root_time() + 1e-9 <= phase.wall_s + 1e-9
