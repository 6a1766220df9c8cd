"""Run the CLI in subprocesses over seeded mutants of the test corpus.

Each corpus file gets one mutant of each kind: a dropped token, a
non-integer value, a junk token and a duplicated line, each at a place the
seed draws, so the 30 files give 120 documents.  `python -m roundsurgery.cli
validate` checks each one under `timeout`.  The call must exit 0 with `ok`,
or 1 with only `path:LINE:COL: ` diagnostics on stdout, and stderr must
hold no traceback.  The script lists every call that breaks this and then
exits 1; it exits 0 if none does.

    PYTHONPATH=src python tests/sweep_mutants.py
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

CORPUS = Path(__file__).parent / "corpus"
SEED = 0
TIMEOUT = 60  # seconds allowed per call
# a key=INT or key=RAT token, or a bare integer such as an LK linking number
_NUMBER = re.compile(r"((?:n1|n2|m|framing)=)?-?[0-9]+(/[0-9]+)?")
NON_INTEGERS = ("x", "1.5", "--3", "1/2/3", "0x10", "", "½")
JUNK = ("@!", "=", "band(", "over=", "n1=", "1/0", "fibred", "é")


def _drop_token(lines: list[str], rng: random.Random) -> None:
    at = rng.randrange(len(lines))
    words = lines[at].split()
    del words[rng.randrange(len(words))]
    lines[at] = " ".join(words)


def _non_integer(lines: list[str], rng: random.Random) -> None:
    spots = [(i, j) for i, line in enumerate(lines) for j, w in enumerate(line.split()) if _NUMBER.fullmatch(w)]
    value = rng.choice(NON_INTEGERS)
    if not spots:  # a header with no statement: add one whose value is bad
        lines.append(f"LK a b {value}")
        return
    i, j = rng.choice(spots)
    words = lines[i].split()
    words[j] = (_NUMBER.fullmatch(words[j])[1] or "") + value
    lines[i] = " ".join(words)


def _junk_token(lines: list[str], rng: random.Random) -> None:
    at = rng.randrange(len(lines))
    words = lines[at].split()
    words.insert(rng.randrange(len(words) + 1), rng.choice(JUNK))
    lines[at] = " ".join(words)


def _duplicate_line(lines: list[str], rng: random.Random) -> None:
    at = rng.randrange(len(lines))
    lines.insert(at, lines[at])


MUTATIONS = {"drop": _drop_token, "value": _non_integer, "junk": _junk_token, "dup": _duplicate_line}


def _problems(path: Path, proc: subprocess.CompletedProcess) -> list[str]:
    out = proc.stdout.splitlines()
    diagnostic = re.compile(re.escape(str(path)) + r":[0-9]+:[0-9]+: ")
    problems = []
    if proc.returncode not in (0, 1):
        problems.append(f"exit {proc.returncode}")
    if proc.returncode == 0 and out != ["ok"]:
        problems.append(f"exit 0 with stdout {proc.stdout!r}")
    if proc.returncode == 1 and (not out or not all(diagnostic.match(line) for line in out)):
        problems.append(f"exit 1 with stdout {proc.stdout!r}")
    if "Traceback" in proc.stderr:
        problems.append("a traceback on stderr")
    return problems


def main() -> int:
    rng = random.Random(SEED)
    failures, exits = [], Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for source in sorted(CORPUS.glob("*.rsd")):
            for name, mutate in MUTATIONS.items():
                lines = source.read_text().splitlines()
                mutate(lines, rng)
                path = Path(tmp) / f"{source.stem}.{name}.rsd"
                path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
                cmd = ["timeout", str(TIMEOUT), sys.executable, "-m", "roundsurgery.cli", "validate", str(path)]
                proc = subprocess.run(cmd, capture_output=True, encoding="utf-8", errors="replace")
                exits[proc.returncode] += 1
                failures += [f"{path.name}: {p}\n{path.read_text(encoding='utf-8')}" for p in _problems(path, proc)]
    print(f"{exits.total()} mutants, exit codes {dict(sorted(exits.items()))}")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
