import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from roundsurgery.cli import main

JOINT_312 = "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=3 n2=1 m=2\n"
HOPF_PAIR = (
    "ROUND\nCOMP a knot=unknot fibred\nCOMP b knot=unknot fibred\n"
    "PAIR a b n1=0 n2=0 m=1\nLK a b 1\n"
)
UNKNOT5 = "DEHN\nCOMP k knot=unknot framing=5\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_validate_ok(tmp_path):
    path = write(tmp_path, "a.rsd", JOINT_312)
    code, out, _ = run(["validate", path])
    assert code == 0 and out == "ok\n"


def test_validate_reports_diagnostics_with_exit_1(tmp_path):
    path = write(tmp_path, "bad.rsd", HOPF_PAIR + "LK b a 2\n")
    code, out, _ = run(["validate", path])
    assert code == 1
    assert "symmetry conflict" in out


def test_to_dehn_matches_library(tmp_path):
    path = write(tmp_path, "a.rsd", JOINT_312)
    code, out, _ = run(["to-dehn", path])
    assert code == 0
    assert out == "DEHN\nCOMP a knot=unknot framing=4\nCOMP b knot=unknot framing=2\n"


def test_to_dehn_precondition_failure_exit_2(tmp_path):
    path = write(tmp_path, "r1.rsd", "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\n")
    code, _, err = run(["to-dehn", path])
    assert code == 2
    assert "error:" in err


def test_to_round_and_back(tmp_path):
    path = write(tmp_path, "d.rsd", "DEHN\nCOMP a knot=unknot framing=4\nCOMP b knot=unknot framing=2\n")
    code, out, _ = run(["to-round", path, "--k", "5"])
    assert code == 0
    assert "PAIR a b n1=7 n2=5 m=2" in out


def test_to_round_pads_odd_diagram(tmp_path):
    path = write(tmp_path, "d.rsd", "DEHN\nCOMP k knot=trefoil framing=3\n")
    code, out, _ = run(["to-round", path, "--k", "0", "--pad-sign", "+1"])
    assert code == 0
    assert "PAIR k u1 n1=2 n2=0 m=1" in out


def test_kirby_export_hopf(tmp_path):
    path = write(tmp_path, "r1.rsd", "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\nLK a b 1\n")
    code, out, _ = run(["kirby-export", path])
    assert code == 0
    assert "HANDLE2 a framing=2 over=h1:2" in out


def test_kirby_import(tmp_path):
    path = write(tmp_path, "k.rsd", "KIRBY\nCOMP t knot=trefoil\nHANDLE1 h\nHANDLE2 t framing=4\n")
    code, out, _ = run(["kirby-import", path])
    assert code == 0
    assert "PAIR u1 t n1=0 n2=4" in out


def test_move_command(tmp_path):
    path = write(tmp_path, "a.rsd", JOINT_312)
    code, out, _ = run(["move", path, "--kind", "eq_move1", "--args", "pair=0,k=0"])
    assert code == 0
    assert "PAIR a b n1=2 n2=0 m=2" in out
    code, _, err = run(["move", path, "--kind", "nonsense", "--args", ""])
    assert code == 2


def test_move_kirby2_on_dehn(tmp_path):
    path = write(tmp_path, "d.rsd", "DEHN\nCOMP a knot=unknot framing=1\nCOMP b knot=unknot framing=2\n")
    code, out, _ = run(["move", path, "--kind", "Kirby2Slide", "--args", "a=a,b=b"])
    assert code == 0
    assert "COMP a knot=band(unknot,cable(unknot,2)) framing=3" in out


def test_homology_reports(tmp_path):
    path = write(tmp_path, "u5.rsd", UNKNOT5)
    assert run(["homology", path]) == (0, "H1: Z/5\n", "")
    path = write(tmp_path, "jp.rsd", JOINT_312)
    assert run(["homology", path]) == (0, "H1: Z/2 + Z/4\n", "")
    path = write(tmp_path, "k.rsd", "KIRBY\nCOMP t knot=unknot\nHANDLE1 h\nHANDLE2 t framing=0\n")
    code, _, err = run(["homology", path])
    assert code == 2


def test_is_trivial(tmp_path):
    path = write(tmp_path, "t.rsd", "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1/0\n")
    assert run(["is-trivial", path])[:2] == (0, "trivial: true\n")
    path = write(tmp_path, "f.rsd", JOINT_312)
    assert run(["is-trivial", path])[:2] == (0, "trivial: false\n")


def test_split_outputs_blocks(tmp_path):
    text = (
        "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nCOMP c knot=unknot\nCOMP d knot=unknot\n"
        "PAIR a b n1=0 n2=0 m=1\nPAIR c d n1=1 n2=1 m=2\n"
    )
    path = write(tmp_path, "s.rsd", text)
    code, out, _ = run(["split", path])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("ROUND")


def test_suture_report(tmp_path):
    path = write(tmp_path, "h.rsd", HOPF_PAIR)
    code, out, _ = run(["suture", path, "--pair", "0"])
    assert code == 0
    assert out == "pair: 0\nn: 0\nslope: 1\n"


def test_suture_gate_violation_exit_2(tmp_path):
    path = write(tmp_path, "h.rsd", "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=3 m=1\n")
    code, _, err = run(["suture", path, "--pair", "0"])
    assert code == 2


def test_foliations_report_and_refusal(tmp_path):
    path = write(tmp_path, "h.rsd", HOPF_PAIR)
    code, out, _ = run(["foliations", path, "--pair", "0", "--range=-1..1"])
    assert code == 0
    assert out == "foliation: n=-1 slope=2\nfoliation: n=0 slope=1\nfoliation: n=1 slope=0\n"
    plain = write(tmp_path, "p.rsd", JOINT_312)
    code, out, _ = run(["foliations", plain, "--pair", "0", "--range", "0..0"])
    assert code == 0
    assert out == "refused: not fibred\n"


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_foliations_stream_a_long_range_in_bounded_memory(tmp_path):
    import tracemalloc

    path = write(tmp_path, "h.rsd", HOPF_PAIR)
    run(["foliations", path, "--pair", "0", "--range", "0..1"])  # the parser is built outside the traced call
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            code = main(["foliations", path, "--pair", "0", "--range", "0..200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20
    code, out, _ = run(["foliations", path, "--pair", "0", "--range", "199998..200000"])
    assert out == "".join(f"foliation: n={n} slope={1 - n}\n" for n in range(199998, 200001))


def test_search_finds_and_misses(tmp_path):
    r1 = write(tmp_path, "r1.rsd", JOINT_312)
    r2 = write(tmp_path, "r2.rsd", "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=7 n2=5 m=2\n")
    code, out, _ = run(["search", r1, r2, "--depth", "1", "--k-range=-5..5"])
    assert code == 0
    assert out == "EqMove1 pair=0 k=5\n"
    unreachable = write(tmp_path, "r3.rsd", "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=7 n2=5 m=3\n")
    code, out, err = run(["search", r1, unreachable, "--depth", "1", "--k-range=-2..2"])
    assert code == 3


def test_stdin_input(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(UNKNOT5.encode())))  # read through .buffer
    code, out, _ = run(["homology", "-"])
    assert code == 0 and out == "H1: Z/5\n"


def test_parse_failure_exit_1(tmp_path):
    path = write(tmp_path, "bad.rsd", "ROUND\nCOMP a\n")
    code, _, err = run(["to-dehn", path])
    assert code == 1
    assert "missing" in err


def test_subcommands_are_thin_shims_over_the_library(tmp_path):
    """Each subcommand's stdout equals the corresponding library call."""
    import random

    from helpers import random_joint_diagram
    from roundsurgery import (
        analysis,
        apply_move,
        bounded_equivalence_search,
        dehn_to_joint_pairs,
        first_homology,
        first_homology_round,
        joint_pair_to_dehn,
        kirby_to_round1,
        parse,
        print_diagram,
        round1_to_kirby,
        shuffle_a,
    )
    from roundsurgery.moves import MoveDescriptor, MoveKind

    rng = random.Random(1234)
    r = random_joint_diagram(rng, max_pairs=3, min_pairs=2)
    rfile = write(tmp_path, "r.rsd", print_diagram(r))

    assert run(["to-dehn", rfile]) == (0, print_diagram(joint_pair_to_dehn(r)), "")
    assert run(["homology", rfile]) == (0, f"H1: {first_homology_round(r)}\n", "")
    assert run(["is-trivial", rfile])[1] == f"trivial: {str(analysis.is_trivial(r)).lower()}\n"
    blocks = analysis.split_connected_sum(r)
    assert run(["split", rfile]) == (0, "\n".join(print_diagram(b) for b in blocks), "")

    move = MoveDescriptor(MoveKind.SHUFFLE_A, pair=1, k=-2)
    moved = apply_move(r, move)
    assert run(["move", rfile, "--kind", "ShuffleA", "--args", "pair=1,k=-2"]) == (
        0,
        print_diagram(moved),
        "",
    )
    mfile = write(tmp_path, "m.rsd", print_diagram(moved))
    found = bounded_equivalence_search(r, moved, 1, range(-3, 4))
    code, out, _ = run(["search", rfile, mfile, "--depth", "1", "--k-range=-3..3"])
    assert code == 0 and out == "".join(m.to_line() + "\n" for m in found)

    d = joint_pair_to_dehn(r)
    dfile = write(tmp_path, "d.rsd", print_diagram(d))
    assert run(["homology", dfile]) == (0, f"H1: {first_homology(d)}\n", "")
    ks = [0] * len(r.pairs)
    assert run(["to-round", dfile, "--k", ",".join(map(str, ks))]) == (
        0,
        print_diagram(dehn_to_joint_pairs(d, ks, 1)),
        "",
    )

    pure = "ROUND\nCOMP a knot=unknot\nCOMP b knot=trefoil\nPAIR a b n1=1 n2=2\nLK a b -1\n"
    pfile = write(tmp_path, "p.rsd", pure)
    exported = round1_to_kirby(parse(pure).diagram)
    assert run(["kirby-export", pfile]) == (0, print_diagram(exported), "")
    kfile = write(tmp_path, "k.rsd", print_diagram(exported))
    code, _, err = run(["kirby-import", kfile])
    assert code == 2  # runs over the 1-handle, not independently attached
    free = "KIRBY\nCOMP t knot=fig8\nHANDLE1 h\nHANDLE2 t framing=-3\n"
    ffile = write(tmp_path, "f.rsd", free)
    assert run(["kirby-import", ffile]) == (
        0,
        print_diagram(kirby_to_round1(parse(free).diagram)),
        "",
    )


def test_move_rejects_arguments_the_kind_does_not_take(tmp_path):
    path = write(tmp_path, "a.rsd", JOINT_312)
    code, out, err = run(["move", path, "--kind", "EqMove1", "--args", "pair=0,k=2,sign=1,variant=zz"])
    assert code == 2 and out == ""
    assert "EqMove1" in err and "'sign'" in err
    code, out, err = run(["move", path, "--kind", "eq_move1", "--args", "i=0,k1=2"])
    assert code == 0 and "PAIR a b n1=4 n2=2 m=2" in out


def test_move_rejects_a_field_given_twice(tmp_path):
    path = write(tmp_path, "a.rsd", JOINT_312)
    for args, field in (("k=1,k1=2,pair=0", "k"), ("pair=0,k=1,k=1", "k"), ("i=0,pair=0,k=1", "pair")):
        code, out, err = run(["move", path, "--kind", "EqMove1", "--args", args])
        assert code == 2 and out == "", args
        assert f"argument '{field}' is given twice" in err, args


def test_search_rejects_stdin_twice_before_reading(monkeypatch):
    stdin = io.StringIO(JOINT_312)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(["search", "-", "-", "--depth", "1", "--k-range=0..0"])
    assert code == 2 and out == ""
    assert "standard input" in err
    assert stdin.read() == JOINT_312


def test_integers_beyond_the_digit_limit_exit_without_a_traceback(tmp_path):
    big = "7" * 5000
    path = write(tmp_path, "big.rsd", f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1={big} n2=0 m=0\n")
    code, out, err = run(["to-dehn", path])
    assert (code, out) == (1, "")
    assert f"{path}:4:13: integer too large: 5000 digits" in err
    code, out, err = run(["foliations", write(tmp_path, "h.rsd", HOPF_PAIR), "--pair", "0", "--range", f"0..{big}"])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad range: a bound has more than")


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (UNKNOT5, ["to-round", "--k=BIG"], "bad k list: an entry has more than"),
        (UNKNOT5, ["to-round", "--k=1,-BIG"], "bad k list: an entry has more than"),
        (JOINT_312, ["move", "--kind", "EqMove1", "--args", "pair=0,k=BIG"], "argument k has more than"),
        (JOINT_312, ["move", "--kind", "EqMove1", "--args", "pair=0,k1=+BIG"], "argument k1 has more than"),
        (HOPF_PAIR, ["suture", "--pair", "BIG"], "argument --pair has more than"),
        (HOPF_PAIR, ["foliations", "--pair", "BIG", "--range=0..1"], "argument --pair has more than"),
        (JOINT_312, ["search", "FILE", "--depth", "BIG", "--k-range=0..0"], "argument --depth has more than"),
    ],
    ids=["k", "k-second", "args", "args-synonym", "suture-pair", "foliations-pair", "search-depth"],
)
def test_an_option_integer_beyond_the_digit_limit_is_reported_as_such(tmp_path, text, argv, message):
    path = write(tmp_path, "d.rsd", text)
    argv = [argv[0], path] + [arg.replace("BIG", "9" * 5000).replace("FILE", path) for arg in argv[1:]]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message} {sys.get_int_max_str_digits()} digits\n"


def test_a_malformed_integer_option_exits_2_naming_it(tmp_path):
    path = write(tmp_path, "d.rsd", HOPF_PAIR)
    for argv, name in (
        (["suture", path, "--pair", "x"], "--pair"),
        (["foliations", path, "--pair", "0.5", "--range=0..1"], "--pair"),
        (["search", path, path, "--depth", "two", "--k-range=0..0"], "--depth"),
    ):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: argument {name} must be an integer, got {argv[argv.index(name) + 1]!r}\n", argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "FILE", "FILE", "--depth", "1", "--k-range", "1-2"], "bad range '1-2', expected A..B"),
        (["foliations", "FILE", "--pair", "0", "--range", "5..1"], "empty range '5..1'"),
        (["move", "FILE", "--kind", "EqMove1", "--args", "pair0"], "bad move argument 'pair0', expected key=value"),
    ],
    ids=["k-range-syntax", "empty-range", "args-without-value"],
)
def test_a_malformed_option_exits_2_naming_it(tmp_path, argv, message):
    path = write(tmp_path, "h.rsd", HOPF_PAIR)
    code, out, err = run([arg.replace("FILE", path) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_missing_file_exits_2(tmp_path):
    path = str(tmp_path / "missing.rsd")
    code, out, err = run(["validate", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and path in err


def test_results_beyond_the_digit_limit_exit_2_without_a_traceback(tmp_path):
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    path = write(tmp_path, "big.rsd", f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1={nines} n2=0 m=1\n")
    code, out, err = run(["to-dehn", path])  # framing n1 - n2 + m = 10**limit
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot print the DEHN diagram: it holds an integer of {limit + 1} digits, the limit is {limit}\n"
    )
    # unlinked coprime framings a and b: H1 = Z/(ab), of 2 * limit digits
    a, b = "9" * (limit - 1) + "7", "9" * (limit - 1) + "1"
    path = write(tmp_path, "h1.rsd", f"DEHN\nCOMP a knot=unknot framing={a}\nCOMP b knot=unknot framing={b}\n")
    code, out, err = run(["homology", path])
    assert (code, out) == (2, "")
    assert err == f"error: cannot print H1: it holds an integer of {2 * limit} digits, the limit is {limit}\n"
    # slope lk - n = 10**limit - 1 + 1; nothing of the report reaches stdout
    doc = f"ROUND\nCOMP a knot=unknot fibred\nCOMP b knot=unknot fibred\nPAIR a b n1=-1 n2=-1 m=1\nLK a b {nines}\n"
    code, out, err = run(["suture", write(tmp_path, "slope.rsd", doc), "--pair", "0"])
    assert (code, out) == (2, "")
    assert err == f"error: cannot print the slope: it holds an integer of {limit + 1} digits, the limit is {limit}\n"
    # slope at n = 1 is -10**limit: exit before the line for n = 0 is written
    doc = f"ROUND\nCOMP a knot=unknot fibred\nCOMP b knot=unknot fibred\nPAIR a b n1=0 n2=0 m=1\nLK a b -{nines}\n"
    code, out, err = run(["foliations", write(tmp_path, "slopes.rsd", doc), "--pair", "0", "--range", "0..1"])
    assert (code, out) == (2, "")
    assert err == f"error: cannot print the slope: it holds an integer of {limit + 1} digits, the limit is {limit}\n"
    # sliding a over b adds lk(b, c) to lk(a, c): 2 * (10**limit - 1), in the linking matrix only
    doc = (
        "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nCOMP c knot=unknot\nCOMP d knot=unknot\n"
        f"PAIR a b n1=0 n2=0 m=1\nPAIR c d n1=0 n2=0 m=1\nLK a c {nines}\nLK b c {nines}\n"
    )
    argv = ["move", write(tmp_path, "lk.rsd", doc), "--kind", "EqMove4", "--args", "variant=11over12,pair=0,k=0"]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot print the moved diagram: it holds an integer of {limit + 1} digits, the limit is {limit}\n"
    )


def test_a_knot_nested_beyond_the_limit_exits_1_without_a_traceback(tmp_path):
    knot = "band(" * 1200 + "unknot" + ",cable(unknot,1))" * 1200
    path = write(tmp_path, "deep.rsd", f"ROUND\nCOMP a knot={knot}\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1\n")
    code, out, err = run(["to-dehn", path])
    assert (code, out) == (1, "")
    col = len("COMP a knot=") + 1 + 5 * 100  # the 101st band(
    assert err.startswith(f"{path}:2:{col}: knot expression nested deeper than 100 band sums\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, statements",
    [
        (["move", "--kind", "EqMove4", "--args", "variant=11over21,pair=0,pair2=1,k=0"],
         "COMP c knot=unknot\nCOMP d knot=unknot\nPAIR a b n1=0 n2=0 m=1\nPAIR c d n1=0 n2=0 m=1\n"),
        (["kirby-export"], "PAIR a b n1=0 n2=0\n"),
    ],
    ids=["move", "kirby-export"],
)
def test_a_result_knot_nested_beyond_the_limit_exits_2_without_a_traceback(tmp_path, command, statements):
    """A knot 100 band sums deep parses; a result that nests it one level
    deeper would print as text the parser refuses, so the call exits 2."""
    knot = "band(" * 100 + "unknot" + ",cable(unknot,1))" * 100
    path = write(tmp_path, "deep.rsd", f"ROUND\nCOMP a knot={knot}\nCOMP b knot=unknot\n{statements}")
    assert run(["validate", path])[:2] == (0, "ok\n")
    code, out, err = run([command[0], path] + command[1:])
    assert (code, out) == (2, "")
    assert err == "error: knot expression nested deeper than 100 band sums\n"



def test_main_keeps_no_state_between_calls(tmp_path, monkeypatch):
    """main() builds its parser once per process; each call of a sequence in
    one process gives its own expected output."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    dehn = write(tmp_path, "d.rsd", "DEHN\nCOMP a knot=unknot framing=4\nCOMP b knot=unknot framing=2\n"
                 "COMP c knot=trefoil framing=-1\n")
    joint = write(tmp_path, "a.rsd", JOINT_312)
    usage = "usage: roundsurgery move [-h] --kind KIND [--args ARGS] file\n"
    sequence = [
        (["to-round", dehn, "--k=1,2"], 0,
         "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nCOMP c knot=trefoil\nCOMP u1 knot=unknot\n"
         "PAIR a b n1=3 n2=1 m=2\nPAIR c u1 n1=0 n2=2 m=1\n", ""),
        (["to-round", dehn], 2, "", "error: need 2 k choices, got 0\n"),  # --k is not remembered
        (["move", joint, "--kind", "EqMove1", "--args", "pair=0,k=4"], 0,
         "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=6 n2=4 m=2\n", ""),
        (["move", joint, "--args", "pair=0"], 2, "",  # nor --kind
         usage + "roundsurgery move: error: the following arguments are required: --kind\n"),
        (["validate", joint], 0, "ok\n", ""),
    ]
    for argv, *want in sequence:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert [code, out.getvalue(), err.getvalue()] == want, argv


NOT_UTF8 = b"ROUND\r\nCOMP a knot=unknot # caf\xc3\xa9 \xff\r\nCOMP b knot=unknot\r\n"


def test_non_utf8_file_is_a_positioned_diagnostic(tmp_path):
    path = tmp_path / "bad.rsd"
    path.write_bytes(NOT_UTF8)
    # the column counts bytes: the é before the bad byte is two
    assert run(["validate", str(path)]) == (1, f"{path}:2:28: not valid UTF-8\n", "")
    assert run(["to-dehn", str(path)]) == (1, "", f"{path}:2:28: not valid UTF-8\nerror: input does not parse\n")


def test_non_utf8_standard_input_is_a_positioned_diagnostic(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    assert run(["homology", "-"]) == (1, "", "-:2:28: not valid UTF-8\nerror: input does not parse\n")


# the reproducer's lines: a lone CR inside the third, which parse() reads as whitespace
CR_LINES = ["ROUND", "COMP a knot=unknot", "COMP\x1c\tb\r knot=unknot", "PAIR a b n1=6 n2=6 m=0"]


@pytest.mark.parametrize("extra", [[], ["LK a c 1", "PAIR a"]], ids=["valid", "invalid"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("command", ["validate", "to-dehn"])
def test_a_file_and_standard_input_read_the_same_bytes_alike(tmp_path, monkeypatch, command, ending, extra):
    data = "".join(line + ending for line in CR_LINES + extra).encode()
    path = tmp_path / "doc.rsd"
    path.write_bytes(data)
    code, out, err = run([command, str(path)])
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert (code, out.replace(str(path), "-"), err.replace(str(path), "-")) == run([command, "-"])


_CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.rsd"))
_NUMBERS = ("0", "1", "-1", "2", "-3", "1/0", "3/2", "4/2", "1" * 30)
_WORDS = ("x", "fibred", "m=1", "LK", "PAIR a")
_SUBCOMMANDS = (
    ["validate", "{f}"],
    ["to-dehn", "{f}"],
    ["to-round", "{f}", "--k", "0,1,-1"],
    ["to-round", "{f}", "--pad-sign", "-1"],
    ["kirby-export", "{f}"],
    ["kirby-import", "{f}"],
    ["move", "{f}", "--kind", "eq_move1", "--args", "pair=0,k=1"],
    ["move", "{f}", "--kind", "ShuffleB", "--args", "i=0,j=1,k=0,k2=2"],
    ["move", "{f}", "--kind", "EqMove3Add", "--args", "k=0,delta=2,sign=-1"],
    ["move", "{f}", "--kind", "eq_move3_del", "--args", "pair=1"],
    ["move", "{f}", "--kind", "EqMove4", "--args", "variant=12over21,i=0,j=1,k=0"],
    ["move", "{f}", "--kind", "Kirby2Slide", "--args", "a=a,b=b"],
    ["move", "{f}", "--kind", "kirby1_del", "--args", "c=u1"],
    ["homology", "{f}"],
    ["is-trivial", "{f}"],
    ["split", "{f}"],
    ["suture", "{f}", "--pair", "0"],
    ["foliations", "{f}", "--pair", "0", "--range=-2..2"],
    ["search", "{f}", "{source}", "--depth", "1", "--k-range=-1..1"],
)


def _mutant(rng, text):
    """text with one to three random edits, mostly below the header: a line
    deleted, repeated or moved to the end, a token deleted or inserted, or a
    value or id replaced."""
    lines = text.splitlines()
    tokens = text.split()
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
        words = lines[at].split(" ")
        w = rng.randrange(len(words))
        edit = rng.randrange(8)
        if edit == 0:
            del lines[at]
        elif edit == 1:
            lines.insert(at, lines[at])
        elif edit == 2:
            lines.append(lines.pop(at))
        elif edit == 3:
            del words[w]
        elif edit == 4:
            words.insert(w, rng.choice(_WORDS))
        else:
            key, eq, value = words[w].rpartition("=")
            words[w] = key + eq + rng.choice(_NUMBERS if eq or value.lstrip("-").isdigit() else tokens)
        if edit >= 3:
            lines[at] = " ".join(words)
        if not lines:
            lines = ["ROUND"]
    return "\n".join(lines) + "\n"


def test_no_mutated_corpus_document_makes_a_subcommand_raise(tmp_path):
    """Every subcommand, on corpus documents with random line and token
    edits, returns a documented exit code and raises nothing but argparse's
    usage exit; search runs from the edited document to its source."""
    rng = random.Random(12)
    codes = set()
    for n, source in enumerate(_CORPUS * 10):
        f = write(tmp_path, f"{n}.rsd", _mutant(rng, source.read_text(encoding="utf-8")))
        for argv in _SUBCOMMANDS:
            argv = [word.format(f=f, source=source) for word in argv]
            try:
                code, _, _ = run(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = 2
            assert code in (0, 1, 2, 3), argv
            codes.add(code)
    assert codes == {0, 1, 2, 3}
