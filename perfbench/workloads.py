"""Seeded inputs and operations for the three workloads.

``generate(workload, seed, pkg)`` returns the inputs as text files plus one
spec per operation, with the expected result already worked out;
``build(...)`` writes the files, reads and parses them back and returns the
operations.  Both belong to set-up.  Each workload's op set is fixed: its
composition is the same for every seed, and the seed picks the diagrams.

Operations that hit a defect already known at the seed commit are returned
apart, as ``probes``: the run executes and checks them every time and
reports them by name, outside the timed op set (see README.md).
"""

from __future__ import annotations

import importlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks

WORKLOADS = ("search", "homology", "cli")

KNOTS = ("unknot", "unknot", "trefoil", "fig8", "band(trefoil,cable(unknot,1))")
CORPUS = Path("tests/corpus")

# (query kind, depth, pairs, |k| bound, count).  The two classes of
# exhaustive queries have a cost that barely depends on the seed; the
# planted ones do not, because it depends on where the goal falls in the
# breadth-first order.  So op_p50_s sits inside the 50 exhaustive depth-2
# queries on one pair, which the cheaper planted queries keep centred on
# the median, and op_p90_s inside the 48 on two pairs.
SEARCH_PLAN = (
    ("planted", 1, 1, 1, 6), ("planted", 1, 1, 2, 7), ("planted", 1, 2, 1, 7),
    ("planted", 1, 2, 2, 7), ("planted", 1, 3, 1, 6), ("planted", 1, 3, 2, 7),
    ("planted", 2, 1, 1, 6), ("planted", 2, 1, 2, 6), ("planted", 2, 2, 1, 2),
    ("planted", 2, 2, 2, 2), ("planted", 3, 1, 1, 2),
    ("unreachable", 2, 1, 2, 50), ("unreachable", 2, 2, 1, 48),
)

# (components, count): weighted toward small, with a tail of 32 where
# coefficient growth dominates (the Smith transforms reach about 750 bits).
# op_p50_s sits in the middle of the 30 of size 16, op_p90_s in the middle
# of the 20 of size 32, so each is a median of a class rather than an edge
# between two.  Nothing is larger: each op's latency is its fastest of the
# run's passes, and a 48 (0.13 s) leaves too few passes in a run for that
# to be steady on a shared machine.
HOMOLOGY_PLAN = ((4, 12), (8, 12), (12, 11), (16, 30), (24, 15), (32, 20))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Package:
    """The package's modules, imported from ``src`` of the working directory."""

    NAMES = ("model", "textio", "bridge", "moves", "homology", "analysis", "cli")

    def __init__(self):
        self.root = importlib.import_module("roundsurgery")
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"roundsurgery.{name}"))

    def modules(self):
        return [self.root] + [getattr(self, n) for n in self.NAMES]


def load_package(src: Path) -> Package:
    """Import the package from ``src``, and make sure it came from there."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = Package()
    if Path(pkg.root.__file__).resolve().parent != (src / "roundsurgery").resolve():
        raise ImportError(f"roundsurgery was imported from {pkg.root.__file__}, not {src}")
    return pkg


# ---------------------------------------------------------------------------
# Random diagrams, as (comps, pairs, lk) in the checks module's shapes


def _random_round(rng: random.Random, npairs: int, lk_density: float = 0.5):
    comps, pairs, lk = {}, [], {}
    for i in range(1, npairs + 1):
        a, b = f"a{i}", f"b{i}"
        for cid in (a, b):
            comps[cid] = {"knot": rng.choice(KNOTS), "fibred": rng.random() < 0.3}
        pairs.append((a, b, rng.randint(-3, 3), rng.randint(-2, 2), str(rng.choice((-3, -2, -1, 1, 2, 3)))))
    ids = sorted(comps)
    for x, a in enumerate(ids):
        for b in ids[x + 1:]:
            if rng.random() < lk_density:
                lk[(a, b)] = rng.choice((-2, -1, 1, 2))
    return comps, pairs, lk


def _search_round(rng: random.Random, npairs: int, k: int):
    """A search start with a fixed shape: every pair joint with |m| >= 2 (so
    none is deletable), n2 inside the k range, every two components linked.
    The seed moves only the values, which keeps exhaustive cost steady."""
    comps, pairs, lk = {}, [], {}
    for i in range(1, npairs + 1):
        a, b = f"a{i}", f"b{i}"
        for cid in (a, b):
            comps[cid] = {"knot": rng.choice(("unknot", "trefoil", "fig8")), "fibred": False}
        pairs.append((a, b, rng.randint(-3, 3), rng.randint(-k, k), str(rng.choice((-3, -2, 2, 3)))))
    ids = sorted(comps)
    for x, a in enumerate(ids):
        for b in ids[x + 1:]:
            lk[(a, b)] = rng.choice((-2, -1, 1, 2))
    return comps, pairs, lk


def _h1_summary(text: str) -> tuple[int, int | None]:
    """(free rank, torsion product or None) of the Dehn image of a
    joint-pair ROUND document."""
    doc = checks.Doc(text)
    return checks.h1_expectation(doc.matrix(doc.dehn_framings()))


def _h1_differs(a: str, b: str) -> bool:
    """True only when the two documents' H1 provably differ."""
    (free_a, torsion_a), (free_b, torsion_b) = _h1_summary(a), _h1_summary(b)
    return free_a != free_b or None not in (torsion_a, torsion_b) and torsion_a != torsion_b


def _other_h1(comps, pairs, lk) -> str | None:
    """The diagram with one pair's coefficient m changed so that H1
    provably differs, or None if no small change does."""
    base = checks.render_round(comps, pairs, lk)
    for step in (1, -1, 2, -2):
        for p, (c1, c2, n1, n2, m) in enumerate(pairs):
            text = checks.render_round(comps, pairs[:p] + [(c1, c2, n1, n2, str(int(m) + step))] + pairs[p + 1:], lk)
            if _h1_differs(text, base):
                return text
    return None


ALL_MOVES = ("eq1", "shufA", "shufB", "add", "del", "eq4", "eq4")
SAME_PAIRS = ("eq1", "shufA", "shufB", "eq4", "eq4")


def _random_move(rng: random.Random, pkg: Package, r, k: int, choices=ALL_MOVES):
    md, kind = pkg.moves.MoveDescriptor, pkg.moves.MoveKind
    n = len(r.pairs)
    i = rng.randrange(n) if n else 0
    j = rng.choice([x for x in range(n) if x != i]) if n > 1 else None
    ks = range(-k, k + 1)
    choice = rng.choice(choices)
    if choice == "eq1":
        return md(kind.EQ_MOVE1, pair=i, k=rng.choice(ks))
    if choice == "shufA":
        return md(kind.SHUFFLE_A, pair=i, k=rng.choice(ks))
    if choice == "shufB" and j is not None:
        return md(kind.SHUFFLE_B, pair=i, pair2=j, k=rng.choice(ks), k2=rng.choice(ks))
    if choice == "add":
        delta, sign = rng.choice(((0, 1), (0, -1), (2, -1), (-2, 1)))
        return md(kind.EQ_MOVE3_ADD, k=rng.choice(ks), delta=delta, sign=sign)
    if choice == "del":
        return md(kind.EQ_MOVE3_DEL, pair=i)
    if choice == "eq4" and j is not None and rng.random() < 0.7:
        variant = rng.choice(("11over21", "11over22", "12over21", "12over22"))
        return md(kind.EQ_MOVE4, pair=i, pair2=j, variant=variant, k=rng.choice(ks))
    return md(kind.EQ_MOVE4, pair=i, variant=rng.choice(("11over12", "12over11")), k=rng.choice(ks))


def _plant(rng: random.Random, pkg: Package, start, depth: int, k: int):
    """start after depth random legal moves, each of which changes the
    diagram; the goal differs from start.  Three-move plants keep the pair
    count: a goal with more pairs multiplies the last level's candidates,
    which would make the cost of the query swing with the seed."""
    choices = SAME_PAIRS if depth == 3 else ALL_MOVES
    while True:
        cur, seen = start, {start}
        for _ in range(depth):
            while True:
                move = _random_move(rng, pkg, cur, k, choices)
                try:
                    nxt = pkg.moves.apply_move(cur, move)
                except pkg.model.SurgeryError:  # MoveError, or a pair index out of range
                    continue
                if nxt not in seen:
                    break
            cur = nxt
            seen.add(cur)
        if cur != start:
            return cur


def _search_inputs(rng: random.Random, pkg: Package):
    files, specs = {}, []
    for kind, depth, npairs, k, count in SEARCH_PLAN:
        for n in range(count):
            name = f"{kind}_d{depth}_p{npairs}_k{k}_{n}"
            comps, pairs, lk = _search_round(rng, npairs, k)
            start_text = checks.render_round(comps, pairs, lk)
            if kind == "planted":
                goal_text = pkg.textio.print_diagram(_plant(rng, pkg, pkg.textio.parse(start_text).diagram, depth, k))
            else:
                goal_text = _other_h1(comps, pairs, lk)
                while goal_text is None:
                    comps, pairs, lk = _search_round(rng, npairs, k)
                    start_text = checks.render_round(comps, pairs, lk)
                    goal_text = _other_h1(comps, pairs, lk)
            files[f"{name}.start.rsd"] = start_text
            files[f"{name}.goal.rsd"] = goal_text
            specs.append({"name": name, "depth": depth, "k": k, "planted": depth if kind == "planted" else None})
    # ROADMAP item 1: the pair-order dedup key drops the only path to this goal.
    name = "roadmap1_reproducer"
    files[f"{name}.start.rsd"] = (
        "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nCOMP u1 knot=unknot\nCOMP u2 knot=unknot\n"
        "PAIR u1 u2 n1=0 n2=0 m=1\nPAIR a b n1=2 n2=1 m=3\nLK a b 1\n"
    )
    md, mk = pkg.moves.MoveDescriptor, pkg.moves.MoveKind
    planted = (
        md(mk.EQ_MOVE3_DEL, pair=0),
        md(mk.EQ_MOVE3_ADD, k=0, delta=0, sign=1),
        md(mk.EQ_MOVE4, pair=0, pair2=1, variant="11over21", k=0),
    )
    start = pkg.textio.parse(files[f"{name}.start.rsd"]).diagram
    files[f"{name}.goal.rsd"] = pkg.textio.print_diagram(pkg.moves.apply_sequence(start, planted))
    specs.append({"name": name, "depth": 3, "k": 1, "planted": 3, "probe": True})
    return files, specs


def _homology_inputs(rng: random.Random):
    files, specs = {}, []
    index = 0
    for size, count in HOMOLOGY_PLAN:
        for _ in range(count):
            index += 1
            kind = "ROUND" if index % 2 else "DEHN"
            zeros = (0, 0, 1, 2)[index % 4] if size >= 6 else 0
            block = size - zeros
            while True:
                framing = [rng.randint(-6, 6) for _ in range(block)]
                lk = {(a, b): rng.choice((-2, -1, -1, 0, 1, 1, 2)) for a in range(block) for b in range(a + 1, block)}
                m = [[framing[a] if a == b else lk[min(a, b), max(a, b)] for b in range(block)] for a in range(block)]
                absdet = abs(checks.det(m))
                if absdet:
                    break
            # Component ids in a random order, the zero-framed unlinked ones
            # among them.
            slots = rng.sample(range(size), size)
            ids = [f"k{s:02d}" for s in slots]
            comps = {cid: {"knot": rng.choice(KNOTS), "fibred": False} for cid in ids}
            fr = {ids[x]: (framing[x] if x < block else 0) for x in range(size)}
            links = {checks.lk_key(ids[a], ids[b]): v for (a, b), v in lk.items() if v}
            if kind == "DEHN":
                text = checks.render_dehn(comps, fr, links)
            else:
                order = sorted(ids)
                pairs = []
                for p in range(size // 2):
                    c1, c2 = order[2 * p], order[2 * p + 1]
                    k = rng.randint(-3, 3)
                    pairs.append((c1, c2, fr[c1] - fr[c2] + k, k, str(fr[c2])))
                text = checks.render_round(comps, pairs, links)
            name = f"h{index:03d}_{kind.lower()}_n{size}_z{zeros}"
            files[f"{name}.rsd"] = text
            specs.append({"name": name, "kind": kind, "zeros": zeros, "absdet": absdet})
    return files, specs


# ---------------------------------------------------------------------------
# CLI workload


def _mutations(rng: random.Random, text: str):
    """(name, text, line) for documents with one planted error on a known
    line (1-based); every one must exit 1 with a diagnostic on that line."""
    lines = text.rstrip("\n").split("\n")
    pair = next(i for i, l in enumerate(lines) if l.startswith("PAIR"))
    comp = next(i for i, l in enumerate(lines) if l.startswith("COMP"))
    at = rng.randrange(1, len(lines))

    def edited(index, line):
        return lines[:index] + [line] + lines[index + 1:]

    out = [
        ("bad_int", edited(pair, lines[pair].replace(" n1=", " n1=x", 1)), pair),
        ("bad_knot", edited(comp, lines[comp].split(" knot=")[0] + " knot=band(unknot,cable(trefoil"), comp),
        ("unreduced_slope", edited(pair, lines[pair].rsplit(" m=", 1)[0] + " m=4/2"), pair),
        ("unknown_statement", lines[:at] + ["FROB a1 b1"] + lines[at:], at),
        ("unknown_lk", lines + ["LK a1 zz9 1"], len(lines)),
    ]
    return [(name, "\n".join(body) + "\n", line + 1) for name, body, line in out]


def _cli_inputs(rng: random.Random):
    files: dict[str, str] = {}
    specs: list[dict] = []

    def add(file: str, argv_tail: list[str], command: str, expect: dict, name: str | None = None):
        """One call; ``{file}`` in argv stands for the file's path.  A named
        call is a known-defect probe."""
        specs.append({"name": name or f"{command}:{file}", "argv": [command, "{" + file + "}"] + argv_tail,
                      "expect": expect, "probe": name is not None})

    def round_ops(file: str, text: str):
        doc = checks.Doc(text)
        add(file, [], "validate", checks.VALIDATE_OK)
        add(file, [], "to-dehn", checks.expect_to_dehn(doc))
        add(file, [], "split", checks.expect_split(doc))
        add(file, [], "is-trivial", checks.expect_is_trivial(doc))
        if doc.pairs:
            index = rng.randrange(len(doc.pairs))
            add(file, ["--pair", str(index)], "suture", checks.expect_suture(doc, index))
            k = rng.randint(-2, 2)
            add(file, ["--kind", "EqMove1", "--args", f"pair={index},k={k}"], "move",
                checks.expect_eq_move1(doc, index, k))
        if len(doc.comps) <= 12:
            add(file, [], "homology", checks.expect_homology(doc))
        if len(doc.pairs) == 1 and doc.pairs[0][4] is None:
            add(file, [], "kirby-export", checks.expect_kirby_export(doc))

    def dehn_ops(file: str, text: str):
        doc = checks.Doc(text)
        add(file, [], "validate", checks.VALIDATE_OK)
        add(file, [], "homology", checks.expect_homology(doc))
        ks = [rng.randint(-2, 2) for _ in range((len(doc.comps) + 1) // 2)]
        add(file, [f"--k={','.join(map(str, ks))}"], "to-round", checks.expect_to_round(doc, ks))

    def kirby_ops(file: str, text: str):
        add(file, [], "validate", checks.VALIDATE_OK)
        add(file, [], "kirby-import", checks.expect_kirby_import(checks.Doc(text)))

    handlers = {"ROUND": round_ops, "DEHN": dehn_ops, "KIRBY": kirby_ops}
    for path in sorted(CORPUS.glob("*.rsd")):
        text = path.read_text()
        file = f"corpus/{path.name}"
        files[file] = text
        handlers[checks.Doc(text).kind](file, text)

    for n in range(8):  # small joint-pair diagrams
        comps, pairs, lk = _random_round(rng, rng.randint(2, 5))
        if n % 3 == 0:
            c1, c2, n1, _, m = pairs[0]
            pairs[0] = (c1, c2, n1, n1, m)  # equal coefficients: suture applies
        file = f"gen/round_{n}.rsd"
        files[file] = checks.render_round(comps, pairs, lk)
        round_ops(file, files[file])
    for n in range(6):  # Dehn diagrams, odd sizes padded by to-round
        size = rng.randint(3, 9)
        ids = [f"c{i}" for i in range(size)]
        comps = {c: {"knot": rng.choice(KNOTS), "fibred": rng.random() < 0.3} for c in ids}
        lk = {(a, b): rng.choice((-1, 1, 2)) for x, a in enumerate(ids) for b in ids[x + 1:] if rng.random() < 0.4}
        file = f"gen/dehn_{n}.rsd"
        files[file] = checks.render_dehn(comps, {c: rng.randint(-5, 5) for c in ids}, lk)
        dehn_ops(file, files[file])
    for n in range(3):  # pure round 1-surgery pairs and their Kirby images
        comps = {"p": {"knot": rng.choice(KNOTS), "fibred": False}, "q": {"knot": rng.choice(KNOTS), "fibred": False}}
        file = f"gen/pure_{n}.rsd"
        files[file] = checks.render_round(comps, [("p", "q", rng.randint(-4, 4), rng.randint(-4, 4), None)],
                                          {("p", "q"): rng.randint(-2, 2)})
        round_ops(file, files[file])
        file = f"gen/kirby_{n}.rsd"
        files[file] = f"KIRBY\nCOMP t knot={rng.choice(KNOTS)}\nHANDLE1 h\nHANDLE2 t framing={rng.randint(-5, 5)}\n"
        kirby_ops(file, files[file])
    for n in range(2):  # with a loose round 2-surgery knot
        comps, pairs, lk = _random_round(rng, 2)
        comps["z"] = {"knot": "unknot", "fibred": False}
        file = f"gen/loose_{n}.rsd"
        files[file] = checks.render_round(comps, pairs, lk, [("z", rng.choice(("1/0", "2", "-3/2")))])
        round_ops(file, files[file])
    for n in range(8):  # 100 pairs, sparse linking: the slowest seventh of the calls
        comps, pairs, lk = _random_round(rng, 100, lk_density=0.01)
        file = f"gen/big_{n}.rsd"
        files[file] = checks.render_round(comps, pairs, lk)
        round_ops(file, files[file])
    for n in range(2):  # one planted error each
        comps, pairs, lk = _random_round(rng, 3)
        for kind, text, line in _mutations(rng, checks.render_round(comps, pairs, lk)):
            file = f"gen/mutated_{n}_{kind}.rsd"
            files[file] = text
            add(file, [], "validate", {"code": 1, "line": line, "stream": "stdout"})
            add(file, [], "to-dehn", {"code": 1, "line": line, "stream": "stderr"})

    # Hostile documents, known to crash the parser at the seed commit.  The
    # expected output is written out directly: converting the 5,000 digits
    # here would hit the same integer limit.
    depth = 1200
    knot = "band(" * depth + "unknot" + ",cable(unknot,1))" * depth
    files["hostile/deep_band.rsd"] = f"ROUND\nCOMP a knot={knot}\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1\n"
    add("hostile/deep_band.rsd", [], "to-dehn", {
        "hostile": True, "diagram": f"DEHN\nCOMP a knot={knot} framing=1\nCOMP b knot=unknot framing=1\n",
    }, name="hostile_deep_band_1200")
    digits = "7" + "".join(str(rng.randrange(10)) for _ in range(4999))
    files["hostile/long_int.rsd"] = f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1={digits} n2=0 m=0\n"
    add("hostile/long_int.rsd", [], "to-dehn", {
        "hostile": True, "diagram": f"DEHN\nCOMP a knot=unknot framing={digits}\nCOMP b knot=unknot framing=0\n",
    }, name="hostile_int_5000_digits")
    return files, specs


def generate(workload: str, seed: int, pkg: Package):
    """(files, specs) for a workload: file name -> text, and one spec per
    operation.  The same seed gives byte-identical files and specs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return _search_inputs(rng, pkg)
    if workload == "homology":
        return _homology_inputs(rng)
    if workload == "cli":
        return _cli_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operations


def build(workload: str, seed: int, pkg: Package, workdir: Path) -> tuple[list[Op], list[Op]]:
    """Generate, write, read back and parse the inputs; return (ops,
    probes)."""
    files, specs = generate(workload, seed, pkg)
    texts = {}
    for name, text in files.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        texts[name] = path.read_text()
    make = {"search": _search_op, "homology": _homology_op, "cli": _cli_op}[workload]
    ops, probes = [], []
    for spec in specs:
        (probes if spec.get("probe") else ops).append(make(spec, texts, pkg, workdir))
    return ops, probes


def _search_op(spec, texts, pkg: Package, workdir: Path) -> Op:
    start = pkg.textio.parse(texts[f"{spec['name']}.start.rsd"]).diagram
    goal = pkg.textio.parse(texts[f"{spec['name']}.goal.rsd"]).diagram
    ks = range(-spec["k"], spec["k"] + 1)
    moves = pkg.moves

    def run():
        return moves.bounded_equivalence_search(start, goal, spec["depth"], ks)

    return Op(f"search.{spec['name']}", run,
              lambda out: checks.check_search(out, spec, start, goal, moves.apply_sequence))


def _homology_op(spec, texts, pkg: Package, workdir: Path) -> Op:
    text = texts[f"{spec['name']}.rsd"]
    textio, homology = pkg.textio, pkg.homology
    round_doc = spec["kind"] == "ROUND"

    def run():
        diagram = textio.parse(text).diagram
        group = homology.first_homology_round(diagram) if round_doc else homology.first_homology(diagram)
        return group, str(group)

    return Op(f"homology.{spec['name']}", run, lambda out: checks.check_homology(out, spec))


def _cli_op(spec, texts, pkg: Package, workdir: Path) -> Op:
    def path_of(name):
        return str(workdir / name)

    argv = [path_of(a[1:-1]) if a.startswith("{") else a for a in spec["argv"]]
    path = path_of(spec["argv"][1][1:-1])
    cli = pkg.cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return Op(f"cli.{spec['name']}", run, lambda out: checks.check_cli(out, spec["expect"], path, pkg.textio))
