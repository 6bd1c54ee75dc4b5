"""Regenerate the golden diagnostic snapshots (``tests/goldens/``) —
run as ``PYTHONPATH=src python tests/mint_goldens.py`` from the repo
root.

Two families are frozen:

* ``listing_*.json`` — the paper's own listings (and small distilled
  variants) run through the full analysis engine, one JSON report each;
* ``corpus_*.json`` — every checked-in fuzz-corpus program
  (``tests/corpus/*.ceu``).

``tests/test_analysis.py`` re-runs the engine and diffs against these
byte for byte, so any change to diagnostic codes, messages, ordering,
witness scripts, or bounds shows up in review as a golden diff.  Only
rerun this when the analysis output deliberately changes.

``--farm`` instead regenerates the two exposition goldens, both pinned
by ``tests/test_farm.py``: ``farm_blink.prom`` — the deterministic
Prometheus exposition of the CI farm-smoke workload (1000 blink
instances, 2s), also diffed by the farm-smoke CI job — and
``corpus_deep_025.prom``, one corpus program driven by its committed
script.  Rerun after an intentional metrics/exposition change.

``--semantics`` regenerates ``semantics_*.txt`` — the reference
semantics' rule-application transcript for every corpus program under
its recorded script, pinned byte-exact by ``tests/test_semantics.py``.
Rerun only when the reference semantics deliberately changes (which
should be rare: it is the spec).
"""

import json
import sys
from pathlib import Path

from repro.analysis import run_analysis

#: paper listings (with their section) the goldens pin down
LISTINGS: dict[str, str] = {
    # §2: the three-trail counter with Restart — clean
    "counter": """\
input int Restart;
internal void changed;
int v = 0;
par do
   loop do
      await 1s;
      v = v + 1;
      emit changed;
   end
with
   loop do
      v = await Restart;
      emit changed;
   end
with
   loop do
      await changed;
      _printf("v = %d\\n", v);
   end
end
""",
    # §2.5: a loop body with an await-free path — refused statically
    "tight_loop": """\
input void A;
int v = 0;
loop do
   if v > 10 then
      await A;
   end
   v = v + 1;
end
""",
    # §2.6: concurrent write/read and write/write on `v` — the conflict
    # report carries a replayable witness for every pair
    "nondet": """\
input void A;
int v = 0;
par do
   loop do
      await A;
      v = v + 1;
   end
with
   loop do
      await A;
      v = v * 2;
   end
end
""",
    # §2.2: a two-hop internal emit chain — clean, bounds show the
    # emit-stack depth
    "emit_chain": """\
input void I;
internal void a, b;
int v = 0;
par do
   loop do
      await I;
      emit a;
   end
with
   loop do
      await a;
      v = v + 1;
      emit b;
   end
with
   loop do
      await b;
      _printf("v = %d\\n", v);
   end
end
""",
    # liveness: one internal event never emitted, one never awaited
    "dead_events": """\
input void A;
internal void ping, pong;
int v = 0;
par/or do
   await ping;
   v = 1;
with
   await A;
   emit pong;
end
return v;
""",
    # deadlock: after A the par/and's forever-branch can never finish
    "stuck": """\
input void A;
int v = 0;
par/and do
   await A;
   v = 1;
with
   await forever;
end
return v;
""",
    # unreachable code after an `await forever`
    "unreachable": """\
input void A;
int v = 0;
await forever;
v = 1;
return v;
""",
}


def mint(out: Path) -> None:
    out.mkdir(exist_ok=True)
    corpus = Path(__file__).parent / "corpus"
    jobs = [(f"listing_{name}", f"listings/{name}.ceu", src)
            for name, src in LISTINGS.items()]
    jobs += [(f"corpus_{path.stem}", f"corpus/{path.name}",
              path.read_text())
             for path in sorted(corpus.glob("*.ceu"))]
    for golden, filename, src in jobs:
        report = run_analysis(src, filename=filename)
        (out / f"{golden}.json").write_text(report.to_json())
        print(f"{golden}: {report.count('error')}E "
              f"{report.count('warning')}W {report.count('note')}N "
              f"stages={'+'.join(report.stages)}")


def mint_farm(out: Path) -> None:
    from repro.apps import load
    from repro.obs import render_prom
    from repro.runtime.farm import Farm
    from test_farm import corpus_exposition, prom_deterministic_lines

    farm = Farm(load("blink"), n=1000, program="blink")
    farm.run_until("2s")
    text = prom_deterministic_lines(render_prom(farm.fleet_snapshot()))
    (out / "farm_blink.prom").write_text(text)
    print(f"farm_blink.prom: {len(text.splitlines())} exposition lines")
    text = corpus_exposition("deep_025")
    (out / "corpus_deep_025.prom").write_text(text)
    print(f"corpus_deep_025.prom: {len(text.splitlines())} exposition "
          f"lines")


def semantics_transcript(src: str, script: list, name: str) -> str:
    """The canonical semantics golden for one (program, script) pair:
    the rule-application transcript, the reaction trace, and the final
    observables.  Shared by the minter and ``tests/test_semantics.py``
    so the golden diff is byte-exact by construction."""
    from repro.fuzz.gen import script_text
    from repro.semantics import run_script

    machine = run_script(src, script, transcript=True)
    parts = [f"== program {name}",
             "== script " + (" / ".join(
                 script_text(script).splitlines()) or "(none)"),
             "== rules",
             machine.transcript(),
             "== trace",
             machine.render(),
             f"== final done={machine.done} result={machine.result} "
             f"steps={machine.steps_executed}"]
    output = machine.output()
    if output:
        parts.append("== output\n" + output.rstrip("\n"))
    return "\n".join(parts) + "\n"


def mint_semantics(out: Path) -> None:
    corpus = Path(__file__).parent / "corpus"
    for path in sorted(corpus.glob("*.ceu")):
        case = json.loads(path.with_suffix(".json").read_text())
        script = [tuple(item) for item in case["script"]]
        text = semantics_transcript(path.read_text(), script,
                                    f"corpus/{path.name}")
        (out / f"semantics_{path.stem}.txt").write_text(text)
        print(f"semantics_{path.stem}.txt: "
              f"{len(text.splitlines())} lines")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    if "--farm" in sys.argv:
        mint_farm(Path(__file__).parent / "goldens")
    elif "--semantics" in sys.argv:
        mint_semantics(Path(__file__).parent / "goldens")
    else:
        mint(Path(__file__).parent / "goldens")
