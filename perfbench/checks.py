"""Output checks for the benchmark, written apart from the package's code.

Every timed operation's output is checked here.  The arithmetic (Bareiss
determinant, rank), the reader for canonical documents and the expected
renderings are the benchmark's own, so a check does not share the code path
it judges.  The one exception is the printer round trip, which by design
re-parses and re-prints the output with the package.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import prod

# ---------------------------------------------------------------------------
# Integer linear algebra


def det(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m: list[list[int]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def h1_expectation(m: list[list[int]]) -> tuple[int, int | None]:
    """(free rank, product of the torsion) of coker(m) for a symmetric m.

    Zero rows are split off as free summands; when the rest is nonsingular
    the torsion product is its |det|, otherwise only the rank is known
    (None)."""
    keep = [i for i, row in enumerate(m) if any(row)]
    block = [[m[i][j] for j in keep] for i in keep]
    d = det(block)
    if d != 0:
        return len(m) - len(keep), abs(d)
    return len(m) - rank(m), None


# ---------------------------------------------------------------------------
# Canonical documents


class Doc:
    """The content of a canonical document, read line by line.  Knot
    expressions and slopes stay opaque strings."""

    def __init__(self, text: str):
        lines = text.split("\n")
        self.kind = lines[0]
        self.comps: dict[str, dict] = {}
        self.pairs: list[tuple[str, str, int, int, str | None]] = []
        self.loose: list[tuple[str, str]] = []
        self.lk: dict[tuple[str, str], int] = {}
        self.handle1: list[str] = []
        self.handle2: dict[str, tuple[int, str | None]] = {}
        for line in lines[1:]:
            t = line.split()
            if not t:
                continue
            if t[0] == "COMP":
                opts = dict(x.split("=", 1) for x in t[2:] if "=" in x)
                self.comps[t[1]] = {
                    "knot": t[2][len("knot="):],
                    "framing": int(opts["framing"]) if "framing" in opts else None,
                    "fibred": "fibred" in t[3:],
                }
            elif t[0] == "PAIR":
                m = t[5][len("m="):] if len(t) > 5 else None
                self.pairs.append((t[1], t[2], int(t[3][3:]), int(t[4][3:]), m))
            elif t[0] == "LOOSE":
                self.loose.append((t[1], t[2][len("m="):]))
            elif t[0] == "LK":
                self.lk[lk_key(t[1], t[2])] = int(t[3])
            elif t[0] == "HANDLE1":
                self.handle1.append(t[1])
            elif t[0] == "HANDLE2":
                over = t[3][len("over="):] if len(t) > 3 else None
                self.handle2[t[1]] = (int(t[2][len("framing="):]), over)

    def dehn_framings(self) -> dict[str, int] | None:
        """Framings of the joint-pair Dehn image, (n1 - n2 + m, m) per
        pair, or None when a pair or loose knot has no integral image."""
        if self.kind != "ROUND" or self.loose:
            return None
        out = {}
        for c1, c2, n1, n2, m in self.pairs:
            if m is None or not re.fullmatch(r"-?[0-9]+", m):
                return None
            out[c1], out[c2] = n1 - n2 + int(m), int(m)
        return out

    def matrix(self, framing: dict[str, int]) -> list[list[int]]:
        ids = sorted(framing)
        return [[framing[a] if a == b else self.lk.get(lk_key(a, b), 0) for b in ids] for a in ids]


def lk_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def fresh_id(prefix: str, used) -> str:
    n = 1
    while f"{prefix}{n}" in used:
        n += 1
    return f"{prefix}{n}"


def _comp_line(cid: str, knot: str, framing: int | None = None, fibred: bool = False) -> str:
    line = f"COMP {cid} knot={knot}"
    if framing is not None:
        line += f" framing={framing}"
    return line + (" fibred" if fibred else "")


def _lk_lines(lk: dict[tuple[str, str], int]) -> list[str]:
    return [f"LK {a} {b} {v}" for (a, b), v in sorted(lk.items()) if v != 0]


def render_dehn(comps: dict[str, dict], framing: dict[str, int], lk) -> str:
    lines = ["DEHN"]
    lines += [_comp_line(c, comps[c]["knot"], framing[c], comps[c]["fibred"]) for c in sorted(comps)]
    return "\n".join(lines + _lk_lines(lk)) + "\n"


def render_round(comps: dict[str, dict], pairs, lk, loose=()) -> str:
    lines = ["ROUND"]
    lines += [_comp_line(c, comps[c]["knot"], None, comps[c]["fibred"]) for c in sorted(comps)]
    for c1, c2, n1, n2, m in pairs:
        lines.append(f"PAIR {c1} {c2} n1={n1} n2={n2}" + ("" if m is None else f" m={m}"))
    lines += [f"LOOSE {cid} m={m}" for cid, m in sorted(loose)]
    return "\n".join(lines + _lk_lines(lk)) + "\n"


# ---------------------------------------------------------------------------
# Expected CLI results.  Each is a spec for check_cli.

VALIDATE_OK = {"code": 0, "stdout": "ok\n"}


def expect_to_dehn(doc: Doc) -> dict:
    framing = doc.dehn_framings()
    if framing is None:
        return {"code": 2}
    return {"code": 0, "diagram": render_dehn(doc.comps, framing, doc.lk)}


def expect_to_round(doc: Doc, ks: list[int]) -> dict:
    comps = {c: dict(v) for c, v in doc.comps.items()}
    framing = {c: v["framing"] for c, v in comps.items()}
    order = sorted(comps)
    if len(order) % 2:
        pad = fresh_id("u", comps)
        comps[pad] = {"knot": "unknot", "framing": 1, "fibred": False}
        framing[pad] = 1
        order.append(pad)
    if len(ks) != len(order) // 2:
        return {"code": 2}
    pairs = []
    for i, k in enumerate(ks):
        c1, c2 = order[2 * i], order[2 * i + 1]
        pairs.append((c1, c2, framing[c1] - framing[c2] + k, k, str(framing[c2])))
    return {"code": 0, "diagram": render_round(comps, pairs, doc.lk)}


def expect_eq_move1(doc: Doc, index: int, k: int) -> dict:
    if index >= len(doc.pairs) or doc.pairs[index][4] is None or "/" in doc.pairs[index][4]:
        return {"code": 2}
    pairs = list(doc.pairs)
    c1, c2, n1, n2, m = pairs[index]
    pairs[index] = (c1, c2, n1 - n2 + k, k, m)
    return {"code": 0, "diagram": render_round(doc.comps, pairs, doc.lk, doc.loose)}


def expect_kirby_export(doc: Doc) -> dict:
    if doc.loose or len(doc.pairs) != 1 or doc.pairs[0][4] is not None:
        return {"code": 2}
    c1, c2, n1, n2, _ = doc.pairs[0]
    handle = fresh_id("h", doc.comps)
    knot = f"band({doc.comps[c1]['knot']},cable({doc.comps[c2]['knot']},{n2}))"
    framing = n1 + n2 + 2 * doc.lk.get(lk_key(c1, c2), 0)
    lines = ["KIRBY", _comp_line(c1, knot), f"HANDLE1 {handle}", f"HANDLE2 {c1} framing={framing} over={handle}:2"]
    return {"code": 0, "diagram": "\n".join(lines) + "\n"}


def expect_kirby_import(doc: Doc) -> dict:
    if len(doc.handle1) != 1 or len(doc.handle2) != 1:
        return {"code": 2}
    (hid, (framing, over)), = doc.handle2.items()
    if over is not None:
        return {"code": 2}
    u = fresh_id("u", {hid})
    comps = {u: {"knot": "unknot", "fibred": False}, hid: {"knot": doc.comps[hid]["knot"], "fibred": False}}
    return {"code": 0, "diagram": render_round(comps, [(u, hid, 0, framing, None)], {})}


def expect_homology(doc: Doc) -> dict:
    framing = doc.dehn_framings() if doc.kind == "ROUND" else None
    if doc.kind == "DEHN":
        framing = {c: v["framing"] for c, v in doc.comps.items()}
    if framing is None:
        return {"code": 2}
    free, torsion = h1_expectation(doc.matrix(framing))
    return {"code": 0, "h1": (free, torsion)}


def expect_is_trivial(doc: Doc) -> dict:
    if any(m is None for *_, m in doc.pairs):
        return {"code": 2}
    trivial = all(m == "1/0" for *_, m in doc.pairs)
    return {"code": 0, "stdout": f"trivial: {'true' if trivial else 'false'}\n"}


def expect_suture(doc: Doc, index: int) -> dict:
    if index >= len(doc.pairs) or doc.pairs[index][2] != doc.pairs[index][3]:
        return {"code": 2}
    c1, c2, n, _, _ = doc.pairs[index]
    slope = doc.lk.get(lk_key(c1, c2), 0) - n
    return {"code": 0, "stdout": f"pair: {index}\nn: {n}\nslope: {slope}\n"}


def expect_split(doc: Doc) -> dict:
    parent = {c: c for c in doc.comps}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c1, c2, *_ in doc.pairs:
        parent[find(c1)] = find(c2)
    for (a, b), v in doc.lk.items():
        if v:
            parent[find(a)] = find(b)
    blocks = len({find(c) for c in doc.comps})
    pair_lines = Counter(_pair_line(p) for p in doc.pairs)
    return {"code": 0, "split": (blocks, pair_lines, Counter(doc.loose))}


def _pair_line(p) -> str:
    c1, c2, n1, n2, m = p
    return f"{c1} {c2} {n1} {n2} {m}"


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the output is right, else the reason.


def check_search(result, spec: dict, start, goal, apply_sequence) -> str | None:
    """A planted query must return a sequence that replays from start to
    goal and is no longer than the planted one; an unreachable one must
    return None."""
    if spec["planted"] is None:
        return None if result is None else f"returned {len(result)} moves for an unreachable goal"
    if result is None:
        return "returned None for a planted goal"
    if len(result) > spec["planted"]:
        return f"returned {len(result)} moves, planted {spec['planted']}"
    try:
        end = apply_sequence(start, result)
    except Exception as exc:  # a sequence that does not replay at all
        return f"sequence does not replay: {type(exc).__name__}: {exc}"
    return None if end == goal else "sequence does not replay to the goal"


def parse_group(text: str) -> tuple[int, list[int]] | None:
    """(free rank, torsion) from the package's canonical rendering, or None
    when the text is not in that form."""
    if text == "0":
        return 0, []
    free, torsion = 0, []
    for i, part in enumerate(text.split(" + ")):
        if i == 0 and part == "Z":
            free = 1
        elif i == 0 and re.fullmatch(r"Z\^([2-9]|[1-9][0-9]+)", part):
            free = int(part[2:])
        elif re.fullmatch(r"Z/[0-9]+", part) and int(part[2:]) >= 2:
            torsion.append(int(part[2:]))
        else:
            return None
    if any(b % a for a, b in zip(torsion, torsion[1:])):
        return None
    return free, torsion


def check_group(text: str, free: int, torsion_product: int | None) -> str | None:
    got = parse_group(text)
    if got is None:
        return f"not a canonical group: {text[:80]!r}"
    if got[0] != free:
        return f"free rank {got[0]}, expected {free}"
    if torsion_product is not None and prod(got[1]) != torsion_product:
        return f"torsion product {prod(got[1])}, expected {torsion_product}"
    return None


def check_homology(output, spec: dict) -> str | None:
    group, text = output
    if str(group) != text:
        return "str(group) differs between calls"
    return check_group(text, spec["zeros"], spec["absdet"])


def positioned(stream: str, path: str, line: int | None = None) -> bool:
    """Whether stream holds a `path:LINE:COL: message` diagnostic."""
    want = str(line) if line is not None else "[0-9]+"
    return re.search(rf"^{re.escape(path)}:{want}:[0-9]+: \S", stream, re.M) is not None


def check_cli(output, spec: dict, path: str, textio) -> str | None:
    """Judge one captured CLI call (exit code, stdout, stderr) against the
    expected result; textio supplies the printer round trip."""
    code, out, err = output
    if spec.get("hostile"):
        if code == 0 and out == spec["diagram"]:
            return None
        if code == 1 and positioned(err, path):
            return None
        return f"exit {code} without an exact round trip or a positioned diagnostic"
    if code != spec["code"]:
        return f"exit {code}, expected {spec['code']}: {(err or out)[:120]!r}"
    if code == 1:
        stream = out if spec["stream"] == "stdout" else err
        return None if positioned(stream, path, spec["line"]) else f"no diagnostic at line {spec['line']}"
    if code == 2:
        return None if err.startswith("error: ") and not out else "no error message"
    if err:
        return f"unexpected stderr {err[:120]!r}"
    if "stdout" in spec:
        return None if out == spec["stdout"] else f"stdout {out[:120]!r}"
    if "h1" in spec:
        if not out.startswith("H1: ") or not out.endswith("\n"):
            return f"stdout {out[:120]!r}"
        return check_group(out[4:-1], *spec["h1"])
    if "split" in spec:
        return _check_split(out, spec["split"], textio)
    if out != spec["diagram"]:
        return "printed diagram differs from the expected one"
    return round_trip(out, textio)


def round_trip(text: str, textio) -> str | None:
    try:
        again = textio.print_diagram(textio.parse(text).diagram)
    except Exception as exc:
        return f"printed diagram does not re-parse: {type(exc).__name__}"
    return None if again == text else "printed diagram does not print back byte-identically"


def _check_split(out: str, expected, textio) -> str | None:
    blocks, pair_lines, loose = expected
    texts = [t + "\n" for t in out[:-1].split("\n\n")] if out else []
    if len(texts) != blocks:
        return f"{len(texts)} summands, expected {blocks}"
    got_pairs, got_loose = Counter(), Counter()
    for t in texts:
        problem = round_trip(t, textio)
        if problem:
            return problem
        doc = Doc(t)
        got_pairs.update(_pair_line(p) for p in doc.pairs)
        got_loose.update(doc.loose)
    if got_pairs != pair_lines or got_loose != loose:
        return "summands do not partition the pairs and loose knots"
    return None
