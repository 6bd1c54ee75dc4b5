"""Incremental-vs-cold stress: random structural line edits over every
repository program.

For each of the 23 ``.ceu`` files in the repository and each seed in
:data:`SEEDS`, one :class:`~repro.analysis.IncrementalAnalyzer` walks
:data:`EDITS` random line edits: inserts, deletes, duplications,
mutations and joins of two adjacent lines.  Odd seeds first join
:data:`JOIN_SHARE` of the file's adjacent lines, so statements share
lines and kept lines and re-parsed gap lines interleave inside every
block.  Every report must equal a cold
:func:`~repro.analysis.run_analysis` of the same text, byte for byte,
and no edit may take the analyzer's unplanned-error fallback
(``fast_path_errors``).

Run from the repository root (CI ``incremental stress`` step)::

    python tests/incremental_stress.py
"""

import pathlib
import random
import sys
import time

from repro.analysis import IncrementalAnalyzer, run_analysis

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5, 6)
EDITS = 40
JOIN_SHARE = 0.3
#: the walk goes back to its starting text with this chance per edit, so
#: it keeps exercising repairs of valid programs, not only error recovery
RESET_SHARE = 0.15
INSERTS = ("// edited\n", "\n", "int zz = 3;\n", "await 1s;\n",
           "/* a\n", "b */\n", "end\n", "loop do\n", "with\n")


def programs() -> list:
    found = [path for pattern in ("examples/ceu/*.ceu",
                                  "src/repro/apps/ceu/*.ceu",
                                  "tests/corpus/*.ceu")
             for path in sorted(ROOT.glob(pattern))]
    assert len(found) == 23, [str(p) for p in found]
    return found


def join(lines: list, pos: int) -> list:
    """Lines ``pos`` and ``pos + 1`` as one."""
    joined = lines[pos].rstrip("\n") + " " + lines[pos + 1]
    return lines[:pos] + [joined] + lines[pos + 2:]


def mutate(line: str) -> str:
    """Bump every digit of a line, or comment the end of one without."""
    if any(ch.isdigit() for ch in line):
        return "".join(str((int(ch) + 1) % 10) if ch.isdigit() else ch
                       for ch in line)
    return line.rstrip("\n") + " // x\n"


def edit(rng: random.Random, lines: list) -> list:
    kind = rng.choice(("insert", "delete", "dup", "mutate", "join"))
    if kind == "insert" or not lines:
        pos = rng.randrange(len(lines) + 1)
        return lines[:pos] + [rng.choice(INSERTS)] + lines[pos:]
    pos = rng.randrange(len(lines))
    if kind == "delete":
        return lines[:pos] + lines[pos + 1:]
    if kind == "dup":
        return lines[:pos] + [lines[pos]] + lines[pos:]
    if kind == "mutate":
        return lines[:pos] + [mutate(lines[pos])] + lines[pos + 1:]
    if pos + 1 < len(lines):
        return join(lines, pos)
    return lines


def walk(path: pathlib.Path, seed: int, totals: dict) -> list:
    """One analyzer over one file: the edits whose report differed."""
    rng = random.Random(f"{seed}:{path.name}")
    base = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if seed % 2:
        pos = 0
        while pos + 1 < len(base):
            if rng.random() < JOIN_SHARE:
                base = join(base, pos)
            pos += 1
    name = str(path.relative_to(ROOT))
    analyzer = IncrementalAnalyzer(filename=name)
    lines = base
    bad = []
    for step in range(EDITS + 1):
        source = "".join(lines)
        got = analyzer.analyze(source).to_json()
        if got != run_analysis(source, filename=name).to_json():
            bad.append(f"{name} seed {seed} edit {step}")
        lines = base if rng.random() < RESET_SHARE else edit(rng, lines)
    for key in ("analyses", "full_runs", "full_fallbacks",
                "fast_path_errors", "regions_reused", "descents",
                "bind_reuses", "dfa_replays"):
        totals[key] = totals.get(key, 0) + analyzer.stats[key]
    return bad


def main() -> int:
    started = time.perf_counter()
    totals: dict = {}
    bad = [found for seed in SEEDS for path in programs()
           for found in walk(path, seed, totals)]
    print(", ".join(f"{key} {value}" for key, value in totals.items()),
          f"({time.perf_counter() - started:.1f} s)")
    for found in bad:
        print("differs from cold:", found)
    if totals["fast_path_errors"]:
        print("fast_path_errors:", totals["fast_path_errors"])
    return 1 if bad or totals["fast_path_errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
