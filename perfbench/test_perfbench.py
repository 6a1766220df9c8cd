"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def pkg(monkeypatch):
    monkeypatch.chdir(ROOT)
    return workloads.load_package(ROOT / "src")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_inputs(pkg, workload):
    files, specs = workloads.generate(workload, 7, pkg)
    again_files, again_specs = workloads.generate(workload, 7, pkg)
    assert files == again_files
    assert specs == again_specs
    other_files, _ = workloads.generate(workload, 8, pkg)
    assert files != other_files


def _round(pkg, text):
    return pkg.textio.parse(text).diagram


HOPF = "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1\nLK a b 1\n"


def test_search_check_rejects_wrong_sequences(pkg):
    md, kind = pkg.moves.MoveDescriptor, pkg.moves.MoveKind
    start = _round(pkg, HOPF)
    move = md(kind.EQ_MOVE1, pair=0, k=1)
    goal = pkg.moves.apply_move(start, move)
    planted = {"planted": 1}
    replay = pkg.moves.apply_sequence
    assert checks.check_search((move,), planted, start, goal, replay) is None
    assert "does not replay" in checks.check_search((md(kind.EQ_MOVE1, pair=0, k=-1),), planted, start, goal, replay)
    assert "does not replay" in checks.check_search((md(kind.EQ_MOVE1, pair=3, k=1),), planted, start, goal, replay)
    assert "planted 1" in checks.check_search((move, move), planted, start, goal, replay)
    assert "None" in checks.check_search(None, planted, start, goal, replay)
    unreachable = {"planted": None}
    assert checks.check_search(None, unreachable, start, goal, replay) is None
    assert "unreachable" in checks.check_search((move,), unreachable, start, goal, replay)
    assert "unreachable" in checks.check_search((), unreachable, start, goal, replay)


def test_homology_check_rejects_wrong_groups(pkg):
    group = pkg.homology.AbelianGroup(1, (2, 4))
    spec = {"zeros": 1, "absdet": 8}
    assert checks.check_homology((group, str(group)), spec) is None
    assert "torsion product" in checks.check_homology((group, str(group)), {"zeros": 1, "absdet": 6})
    assert "free rank" in checks.check_homology((group, str(group)), {"zeros": 0, "absdet": 8})
    assert "differs" in checks.check_homology((group, "Z + Z/8"), spec)
    assert checks.check_group("Z + Z/4 + Z/2", 1, 8) is not None  # not a divisibility chain
    assert checks.check_group("Z^1 + Z/8", 1, 8) is not None


def test_homology_check_agrees_with_determinant(pkg):
    files, specs = workloads.generate("homology", 3, pkg)
    for spec in specs[::9]:  # every size, zero-framed components or not
        diagram = _round(pkg, files[f"{spec['name']}.rsd"])
        if spec["kind"] == "ROUND":
            group = pkg.homology.first_homology_round(diagram)
        else:
            group = pkg.homology.first_homology(diagram)
        assert checks.check_homology((group, str(group)), spec) is None, spec["name"]


def test_cli_check_rejects_a_print_that_does_not_round_trip(pkg):
    canonical = "DEHN\nCOMP a knot=unknot framing=1\nCOMP b knot=unknot framing=1\nLK a b 1\n"
    unsorted = "DEHN\nCOMP b knot=unknot framing=1\nCOMP a knot=unknot framing=1\nLK a b 1\n"
    assert checks.check_cli((0, canonical, ""), {"code": 0, "diagram": canonical}, "f", pkg.textio) is None
    assert "byte-identically" in checks.check_cli((0, unsorted, ""), {"code": 0, "diagram": unsorted}, "f", pkg.textio)
    assert "expected one" in checks.check_cli((0, unsorted, ""), {"code": 0, "diagram": canonical}, "f", pkg.textio)
    assert checks.round_trip("DEHN\nCOMP a knot=unknot framing=x\n", pkg.textio) is not None


def test_cli_expectations_match_the_printer():
    doc = checks.Doc(HOPF)
    assert checks.expect_to_dehn(doc)["diagram"] == (
        "DEHN\nCOMP a knot=unknot framing=1\nCOMP b knot=unknot framing=1\nLK a b 1\n"
    )
    assert checks.expect_suture(doc, 0)["stdout"] == "pair: 0\nn: 0\nslope: 1\n"
    assert checks.expect_homology(doc)["h1"] == (1, None)


def test_cli_check_judges_exit_codes_and_diagnostics(pkg):
    textio = pkg.textio
    diag = {"code": 1, "line": 3, "stream": "stderr"}
    assert checks.check_cli((1, "", "f.rsd:3:7: expected an integer\n"), diag, "f.rsd", textio) is None
    assert "no diagnostic" in checks.check_cli((1, "", "f.rsd:2:7: expected an integer\n"), diag, "f.rsd", textio)
    assert "exit 0" in checks.check_cli((0, "ok\n", ""), diag, "f.rsd", textio)
    hostile = {"hostile": True, "diagram": "DEHN\n"}
    assert checks.check_cli((0, "DEHN\n", ""), hostile, "f.rsd", textio) is None
    assert checks.check_cli((1, "", "f.rsd:2:9: integer too large\n"), hostile, "f.rsd", textio) is None
    assert checks.check_cli((1, "", "error: input does not parse\n"), hostile, "f.rsd", textio) is not None
    assert checks.check_cli((2, "", "error: no\n"), hostile, "f.rsd", textio) is not None


def test_traced_run_restores_every_wrapped_attribute(pkg, tmp_path):
    owners = pkg.modules() + [pkg.model.RoundDiagram, pkg.model.LinkingMatrix]
    before = [dict(vars(owner)) for owner in owners]
    original_main = pkg.cli.main
    ops, probes = workloads.build("cli", 1, pkg, tmp_path)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(pkg):
            assert pkg.cli.main is not original_main
            assert pkg.model.RoundDiagram.__init__ is not before[-2]["__init__"]
            results = run.run_pass(ops[:40] + probes, tracer)
            raise RuntimeError("leave the block by an exception")
    assert tracer.missing == []
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert all(now[key] is saved[key] for key in saved), owner
    assert run.failures(ops[:40], results[:40]) == []
    calls, _ = tracer.self_times()
    assert calls["op"] == 40 + len(probes)
    assert calls["cli.main"] == 40 + len(probes)


def test_hooks_that_read_data_stay_out_of_self_times():
    tracer = tracing.Tracer()
    seen = []

    def slow_hook(args, result):
        time.sleep(0.05)
        seen.append((args, result))

    inner = tracer.wrap(lambda x: x + 1, "textio.parse", on_return=slow_hook)
    outer = tracer.wrap(lambda x: inner(x) * 2, "cli.main")
    tracer.begin_op(0)
    assert outer(1) == 4
    assert seen == []  # not yet: the operation is still running
    tracer.end_op()
    assert seen == [((1,), 2)]
    _calls, self_s = tracer.self_times()
    assert self_s["cli.main"] < 0.01
    assert self_s["op"] < 0.01


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    op, outer, inner = (tracer.name_id(n) for n in ("op", "cli.main", "textio.parse"))
    # (name, start, end, parent): op [0, 10] > main [1, 9] > two parses.
    for name, start, end, parent in ((op, 0, 10, -1), (outer, 1, 9, 0), (inner, 2, 4, 1), (inner, 5, 6, 1)):
        for arr, value in zip((tracer.name, tracer.start, tracer.end, tracer.parent, tracer.op),
                              (name, start, end, parent, 0)):
            arr.append(value)
    calls, self_s = tracer.self_times()
    assert calls == {"op": 1, "cli.main": 1, "textio.parse": 2}
    assert self_s == {"op": 2.0, "cli.main": 5.0, "textio.parse": 3.0}


def _bench(*args):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_result_lines_name_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = _bench("--workload", "cli", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert untraced["correct"] and untraced["attempted"] > 0 and untraced["failed"] == 0
    assert list(untraced["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    traced = _bench("--workload", "cli", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_fails_without_the_package(tmp_path):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
