"""Command-line interface: ``python -m repro <command> <file.ceu>``.

Commands mirror what the original `ceu` compiler offered plus the
reproduction's analysis artifacts:

=========  ==============================================================
``check``   run all static analyses, accumulating *every* diagnostic
            (file:line:col on stderr); exit non-zero iff any
            error-severity finding
``lint``    the full analysis engine over one or more files —
            conflicts with replayable witnesses, liveness, deadlock,
            static resource bounds — as text, JSON, or SARIF 2.1.0
            (docs/ANALYSIS.md)
``run``     execute on the reference VM, feeding events/time from
            positional inputs or a ``--inputs`` script file; ``--trace``
            prints the reaction trace, ``--trace-json``/``--trace-jsonl``
            export a Perfetto-loadable Chrome trace (with causal flow
            arrows) / machine-readable JSONL, ``--stats`` prints the
            metrics snapshot, and ``--flight-recorder N`` dumps the last
            N hook events if the run crashes
``why``     replay a program against a stimulus script and print the
            *causal slice* of a target occurrence — the exact chain of
            resumes/emits/timer fires that led to it
            (docs/OBSERVABILITY.md); ``--diff`` replays a second
            configuration and diffs the two slices (the bisect aid
            across a semantic divergence)
``debug``   time-travel debugger: replay deterministically, pause at any
            reaction boundary, inspect memory/trails, step forward *and
            backward* (``step``/``back``/``goto N``/``state``/``why``);
            ``goto`` replays from the nearest parked checkpoint —
            O(distance), not O(run) (``checkpoints`` shows the ring,
            ``save``/``load`` and ``--from-checkpoint`` persist and
            reopen a session)
``postmortem`` inspect a black-box bundle captured by the farm watchdog
            or ``run --postmortem``: summary + causal slice +
            flight-recorder tail, ``--debug`` to replay it in the
            time-travel REPL, ``--why TARGET`` for a causal slice at
            the captured boundary
``profile`` run with full instrumentation and print the metrics report
            (``--json`` writes the raw snapshot)
``c``       emit the §4.4 C translation to stdout (or ``-o``);
            ``--static-bounds`` embeds the DFA-derived capacity bounds
            as ``_Static_assert``-checked constants
``dot``     emit the flow graph (``--flow``) or the temporal-analysis DFA
            (default) as graphviz text
``layout``  print the static memory layout and gate table
``fuzz``    conformance fuzzing: generate seeded programs and cross-check
            the VM, the C backend, replay determinism, schedule
            independence, and the static bounds against each other
            (docs/FUZZING.md); ``--shrink`` minimises failures,
            ``--guided`` turns on coverage-guided seed scheduling,
            ``--oracle semantics`` adds the executable reference
            semantics as a third backend (three-way VM↔C↔spec diff)
``bench``   benchmark snapshot (throughput, overhead ratios, latency
            percentiles) as ``benchmarks/BENCH_<stamp>.json``;
            ``--farm``/``--analysis``/``--serve``/``--checkpoint`` add a
            section, each also recorded as ``benchmarks/BENCH_<section>.json``;
            ``--check`` runs every measured section's gates
``farm``    run N instances of one program over the DES kernel with fleet
            telemetry: per-instance metrics rolled up cross-instance
            (``--stats``), Prometheus text exposition (``--prom``),
            shared JSONL telemetry stream (``--jsonl``), and a
            reaction-latency watchdog (docs/OBSERVABILITY.md);
            ``--serve HOST:PORT`` keeps the fleet on a wall-clock driver
            and serves the live telemetry plane (``/metrics``,
            ``/healthz``, ``/readyz``, ``/snapshot``, ``/events``,
            ``/flamegraph``, plus ``POST /checkpoint`` and
            ``/postmortems`` with ``--record``/``--postmortem-dir``)
            with graceful SIGTERM drain
``top``     live ANSI dashboard over a fleet — reactions/s, latency
            percentiles, watchdog verdicts, per-shard table — against an
            in-process farm (pass a ``.ceu`` file) or a remote
            ``--serve`` URL
``federate`` scrape N shard ``/snapshot`` endpoints and roll them into
            one exposition with per-shard ``shard_up``/staleness
            metrics; ``--once`` prints to stdout, ``--serve`` re-serves
            the merged plane
=========   =============================================================
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import json

from .codegen import HOST, TARGET16, build_gates, build_layout, compile_to_c
from .dfa import build_dfa
from .flow import build_flow
from .lang import parse
from .lang.errors import CeuError
from .lang.lexer import split_lines
from .obs import ChromeTraceExporter, JsonlExporter, render_stats
from .obs.fleet import FLEET_SCHEMA, sample
from .runtime import CheckpointError, Program
from .runtime.program import parse_time
from .sema import bind, check_bounded


def _load(path: str) -> str:
    """Read an input file (``-`` is stdin) as UTF-8, every character as
    written: no newline translation, so the lexer sees the text an
    editor sends the LSP.  A missing or unreadable one is a one-line
    diagnostic (``main`` exits 1), never a traceback."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_bytes().decode("utf-8")
    except OSError as err:
        raise CeuError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise CeuError(f"{path}: {err}") from None


def cmd_check(args) -> int:
    """All analyses, all findings — not just the first (docs/ANALYSIS.md)."""
    from .analysis import IncrementalAnalyzer

    source = _load(args.file)
    analyzer = IncrementalAnalyzer(filename=args.file,
                                   max_states=args.max_states)
    report = analyzer.analyze(source)
    for diag in report.sorted():
        print(diag.render(), file=sys.stderr)
    conflicts = [d for d in report.errors if d.code.startswith("CEU-E2")]
    if conflicts:
        print(f"{args.file}: nondeterminism: {len(conflicts)} "
              f"conflict(s) — witnesses above replay via `repro run`",
              file=sys.stderr)
    if report.exit_code:
        return 1
    if "dfa" not in report.stages:
        return 1  # analysis budget exceeded (CEU-W401 above)
    bound = analyzer.last_bound
    layout = build_layout(bound, TARGET16)
    print(f"{args.file}: deterministic")
    print(f"  events   : {len(bound.events)}")
    print(f"  variables: {len(bound.variables)} "
          f"({layout.total} bytes static memory)")
    print(f"  gates    : {build_gates(bound).count}")
    print(f"  dfa      : {report.dfa_states} states, "
          f"{report.dfa_transitions} transitions")
    if report.bounds is not None:
        print(f"  bounds   : {report.bounds.summary()}")
    return 0


def _changed_lines(base: str, new: str) -> set:
    """1-based line numbers of ``new`` outside any equal block vs
    ``base`` (the `--diff-base` filter)."""
    import difflib

    base_lines = split_lines(base)
    new_lines = split_lines(new)
    matcher = difflib.SequenceMatcher(None, base_lines, new_lines,
                                      autojunk=False)
    same = set()
    for _a, b, size in matcher.get_matching_blocks():
        same.update(range(b + 1, b + size + 1))
    return set(range(1, len(new_lines) + 1)) - same


def cmd_lint(args) -> int:
    from .analysis import IncrementalAnalyzer, run_analysis, sarif_json

    reports = []
    for path in args.files:
        source = _load(path)
        if args.incremental:
            analyzer = IncrementalAnalyzer(
                filename=path, max_states=args.max_states,
                witnesses=not args.no_witness,
                verify_witnesses=not args.no_verify)
            report = analyzer.analyze(source)
        else:
            report = run_analysis(
                source, filename=path, max_states=args.max_states,
                witnesses=not args.no_witness,
                verify_witnesses=not args.no_verify)
        if args.diff_base:
            changed = _changed_lines(_load(args.diff_base), source)
            report.diagnostics = [d for d in report.diagnostics
                                  if d.span.start.line in changed]
        reports.append(report)
    if args.format == "sarif":
        text = sarif_json(reports)
    elif args.format == "json":
        payload = [r.to_dict() for r in reports]
        text = json.dumps(payload[0] if len(payload) == 1 else payload,
                          indent=2) + "\n"
    else:
        text = "\n".join(r.render_text() for r in reports) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        total = sum(len(r.diagnostics) for r in reports)
        print(f"wrote {args.output}: {len(reports)} file(s), "
              f"{total} finding(s)", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.strict and any(r.errors for r in reports):
        return 1
    return 0


def cmd_lsp(args) -> int:
    from .lsp import main as lsp_main

    return lsp_main()


def _feed_inputs(program: Program, inputs) -> None:
    """Drive a booted program from CLI input arguments."""
    for item in inputs or []:
        if program.done:
            break
        if item.startswith("@"):
            program.at(parse_time(item[1:]))
        elif "=" in item:
            name, value = item.split("=", 1)
            program.send(name, int(value))
        else:
            program.send(item)


def _load_script(path: str) -> list:
    """Read an event script (``--inputs`` / ``--workload``).  A
    malformed one is a one-line diagnostic (``main`` exits 1), never a
    traceback."""
    from .fuzz.gen import parse_script_text

    try:
        return parse_script_text(_load(path))
    except ValueError as err:
        raise CeuError(f"{path}: {err}") from None


def _crash_bundle(program: Program, source: str, args, recorder,
                  err: BaseException) -> Path:
    """Write the black-box bundle for a crashed ``repro run``: a crash
    checkpoint (parked one reaction short of the failing one), the
    flight-recorder ring when one was on, and the error itself."""
    from .runtime.checkpoint import snapshot_crash, write_postmortem

    ck = snapshot_crash(program, source=source, filename=args.file)
    directory = Path(args.postmortem)
    directory.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem or "prog"
    bundle = directory / f"{stem}-crash-r{ck.reaction_count}"
    n = 0
    while bundle.exists():
        n += 1
        bundle = directory / f"{stem}-crash-r{ck.reaction_count}.{n}"
    write_postmortem(
        bundle, ck, reason="exception",
        recorder_lines=recorder.lines() if recorder is not None else None,
        detail={"error": repr(err)})
    return bundle


def cmd_run(args) -> int:
    from contextlib import nullcontext

    source = _load(args.file)
    # a malformed script is refused before the run, so it never looks
    # like a crash of the program (no postmortem bundle)
    script = _load_script(args.inputs_file) if args.inputs_file else []
    program = Program(source, filename=args.file, trace=args.trace,
                      observe=args.stats or bool(args.prom),
                      record=bool(args.postmortem))
    chrome = jsonl = recorder = None
    if args.trace_json:
        chrome = program.observe(
            ChromeTraceExporter(flows_from=program.hooks))
    if args.trace_jsonl:
        jsonl = program.observe(JsonlExporter())
    guard = nullcontext()
    if args.flight_recorder:
        from .obs import FlightRecorder

        recorder = program.observe(FlightRecorder(args.flight_recorder))
        guard = recorder.dump_on_exception()
    try:
        with guard:
            program.start()
            program.run_script(script)
            _feed_inputs(program, args.inputs)
    except BaseException as err:
        if args.postmortem:
            bundle = _crash_bundle(program, source, args, recorder, err)
            print(f"wrote postmortem bundle {bundle} (open with "
                  f"`repro postmortem {bundle}`)", file=sys.stderr)
        raise
    sys.stdout.write(program.output())
    if args.trace:
        print("--- trace ---", file=sys.stderr)
        print(program.trace.render(), file=sys.stderr)
    if chrome is not None:
        chrome.write(args.trace_json)
        print(f"wrote {args.trace_json}: {len(chrome.events)} trace "
              f"events (load at https://ui.perfetto.dev)", file=sys.stderr)
    if jsonl is not None:
        jsonl.write(args.trace_jsonl)
        print(f"wrote {args.trace_jsonl}: {len(jsonl.records)} events",
              file=sys.stderr)
    if args.stats:
        print("--- stats ---", file=sys.stderr)
        print(render_stats(program.stats()), file=sys.stderr)
    if args.prom:
        from .obs import write_prom

        n = write_prom(program.stats(), args.prom)
        print(f"wrote {args.prom}: {n} exposition lines",
              file=sys.stderr)
    if program.done:
        print(f"terminated, result = {program.result}", file=sys.stderr)
        return 0
    print("awaiting further input", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    from .obs import Profiler, StreamingJsonlExporter

    source = _load(args.file)
    program = Program(source, filename=args.file, observe=True)
    chrome = stream = profiler = None
    if args.trace_json:
        chrome = program.observe(
            ChromeTraceExporter(flows_from=program.hooks))
    if args.stream:
        stream = program.observe(
            StreamingJsonlExporter(args.stream, flush_every=1024))
    if args.hot is not None or args.flamegraph:
        profiler = program.observe(Profiler(source=source))
    program.start()
    _feed_inputs(program, args.inputs)
    stats = program.stats()
    print(render_stats(stats))
    if profiler is not None and args.hot is not None:
        print(profiler.report(k=args.hot))
    if chrome is not None:
        chrome.write(args.trace_json)
        print(f"wrote {args.trace_json}: {len(chrome.events)} trace "
              f"events (load at https://ui.perfetto.dev)", file=sys.stderr)
    if stream is not None:
        stream.close()
        print(f"wrote {args.stream}: {stream.seq} events streamed "
              f"(resident high {stream.resident_high})", file=sys.stderr)
    if profiler is not None and args.flamegraph:
        n = profiler.write_collapsed(args.flamegraph)
        print(f"wrote {args.flamegraph}: {n} collapsed stacks "
              f"(flamegraph.pl / speedscope format)", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(stats, indent=2,
                                              default=repr) + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _causal_replay(path: str, inputs_file, inputs,
                   reverse_seeds: bool = False):
    """One instrumented replay; returns ``(program, causal_graph)``."""
    from .obs import CausalGraph

    source = _load(path)
    script = _load_script(inputs_file) if inputs_file else []
    program = Program(source, filename=path,
                      reverse_seeds=reverse_seeds)
    graph = program.observe(CausalGraph(program.hooks))
    program.start()
    program.run_script(script)
    _feed_inputs(program, inputs)
    return program, graph


def cmd_why(args) -> int:
    """Causal slice of one occurrence: replay, find, print ancestry.

    With ``--diff``, replay a *second* configuration (another program
    revision via ``--diff-file``, another stimulus via ``--diff-inputs``,
    or the flipped seeding order via ``--diff-reverse-seeds``) and print
    a unified diff of the two causal slices — the bisect aid when the
    differential oracles disagree: the first diverging line is where the
    two histories fork.
    """
    _program, graph = _causal_replay(args.file, args.inputs_file,
                                     args.inputs)
    node = graph.find(args.at)
    if node is None:
        print(graph.why(args.at), file=sys.stderr)
        return 1
    if not args.diff:
        print(f"causal slice of [{node.span}] {node.describe()} "
              f"(reaction #{node.reaction}):")
        print(graph.render_slice(node.span, steps=args.steps))
        return 0
    from .obs import diff_slices

    other_file = args.diff_file or args.file
    other_inputs = args.diff_inputs_file or args.inputs_file
    _program2, graph2 = _causal_replay(
        other_file, other_inputs, args.inputs,
        reverse_seeds=args.diff_reverse_seeds)
    other_at = args.diff_at or args.at
    node2 = graph2.find(other_at)
    if node2 is None:
        print(graph2.why(other_at), file=sys.stderr)
        return 1
    label_a = f"a: {args.file} --at {args.at}"
    label_b = f"b: {other_file} --at {other_at}" + \
        (" (reverse seeds)" if args.diff_reverse_seeds else "")
    text = diff_slices(graph, node.span, graph2, node2.span,
                       steps=args.steps, label_a=label_a,
                       label_b=label_b)
    if not text:
        print(f"slices identical ({label_a} vs {label_b})")
        return 0
    print(f"causal slices diverge ({node.describe()} vs "
          f"{node2.describe()}):")
    print(text)
    return 1


def _debug_repl(dbg, label: str) -> int:
    """The time-travel REPL loop shared by ``repro debug`` and
    ``repro postmortem --debug``."""
    print(f"{label}: {dbg.total} reaction(s) replayed "
          f"deterministically; `help` lists commands")
    print(dbg.render_state())
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("(repro-debug) ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        words = line.split()
        if not words:
            continue
        cmd, rest = words[0], words[1:]
        if cmd in ("q", "quit", "exit"):
            break
        elif cmd in ("h", "help"):
            print("step | back | goto N | state | trace | "
                  "why TARGET | sig | checkpoints | save FILE | "
                  "load FILE | quit")
        elif cmd in ("s", "step"):
            dbg.step()
            print(dbg.render_state())
        elif cmd in ("b", "back"):
            dbg.back()
            print(dbg.render_state())
        elif cmd == "goto" and rest and rest[0].lstrip("-").isdigit():
            dbg.goto(int(rest[0]))
            print(dbg.render_state())
        elif cmd == "state":
            print(dbg.render_state())
        elif cmd == "trace":
            print(dbg.render_trace())
        elif cmd == "why" and rest:
            print(dbg.why(rest[0]))
        elif cmd == "sig":
            ok = dbg.signature() == dbg.full_signature[:dbg.at]
            print(f"signature prefix match: {ok}")
        elif cmd == "checkpoints":
            print(dbg.render_checkpoints())
        elif cmd == "save" and rest:
            try:
                print(dbg.save(rest[0]))
            except (OSError, CheckpointError) as err:
                print(f"save failed: {err}")
        elif cmd == "load" and rest:
            try:
                loaded = _open_checkpoint_session(rest[0])
            except (OSError, ValueError) as err:
                print(f"load failed: {err}")
            else:
                dbg = loaded
                print(dbg.render_state())
        else:
            print(f"unknown command {line.strip()!r} (try `help`)")
    return 0


def _open_checkpoint_session(path: str):
    """A debugger session over a saved checkpoint file."""
    from .obs import TimeTravelDebugger
    from .runtime.checkpoint import Checkpoint

    return TimeTravelDebugger.from_checkpoint(Checkpoint.load(path))


def cmd_debug(args) -> int:
    """Interactive time-travel REPL (see docs/OBSERVABILITY.md)."""
    from .obs import TimeTravelDebugger

    if args.from_checkpoint:
        return _debug_repl(_open_checkpoint_session(args.from_checkpoint),
                           args.from_checkpoint)
    if not args.file:
        print("repro debug: a FILE or --from-checkpoint is required",
              file=sys.stderr)
        return 2
    source = _load(args.file)
    script = _load_script(args.inputs_file) if args.inputs_file else []
    dbg = TimeTravelDebugger(source, script, filename=args.file)
    return _debug_repl(dbg, args.file)


def cmd_postmortem(args) -> int:
    """Inspect a black-box bundle — or list a directory of them."""
    from .runtime.checkpoint import (MANIFEST_NAME, list_postmortems,
                                     load_postmortem)

    path = Path(args.bundle)
    if path.is_dir() and not (path / MANIFEST_NAME).exists():
        bundles = list_postmortems(path)
        if not bundles:
            print(f"{path}: no postmortem bundles", file=sys.stderr)
            return 1
        for m in bundles:
            b = m.get("boundary", {})
            print(f"{m['bundle']}: [{m.get('reason')}] "
                  f"{m.get('program') or '?'} — reaction "
                  f"{b.get('reactions')} at {b.get('clock_us')}us"
                  + (f" ({m['created_at']})" if m.get("created_at")
                     else ""))
        return 0
    try:
        bundle = load_postmortem(path)
    except (OSError, ValueError) as err:
        print(f"repro postmortem: {err}", file=sys.stderr)
        return 1
    if args.debug or args.why:
        from .obs import TimeTravelDebugger

        dbg = TimeTravelDebugger.from_checkpoint(bundle.checkpoint)
        if args.why:
            print(dbg.why(args.why, steps=args.steps))
            return 0
        return _debug_repl(dbg, str(path))
    print(bundle.describe())
    print(f"  {bundle.checkpoint.describe()}")
    detail = bundle.manifest.get("detail")
    if detail:
        rendered = json.dumps(detail, sort_keys=True, default=repr)
        print(f"  detail: {rendered}")
    fleet = bundle.fleet()
    if fleet and fleet.get("schema") != FLEET_SCHEMA:
        print(f"  fleet at capture: snapshot schema "
              f"{fleet.get('schema')!r} not understood (expected "
              f"{FLEET_SCHEMA})")
    elif fleet:
        print(f"  fleet at capture: {fleet.get('instances')} live / "
              f"{fleet.get('spawned')} spawned, "
              f"{sample(fleet.get('families', {}), 'reactions_total', 0)} "
              f"reactions, sim now {fleet.get('now_us')}us")
    slice_text = bundle.slice_text()
    if slice_text:
        print("--- causal slice of the last reaction ---")
        print(slice_text.rstrip())
    lines = bundle.recorder_lines()
    if lines is not None:
        tail = lines[-args.tail:] if args.tail else lines
        print(f"--- flight recorder: last {len(tail)} of {len(lines)} "
              f"line(s) ---")
        for line in tail:
            print(line)
    print(f"(replay with `repro postmortem {path} --debug` or "
          f"`--why TARGET`)")
    return 0


def cmd_c(args) -> int:
    source = _load(args.file)
    bound = bind(parse(source, args.file))
    check_bounded(bound)
    abi = TARGET16 if args.target16 else HOST
    bounds = None
    if args.static_bounds:
        from .analysis import compute_bounds

        dfa = build_dfa(bound, max_states=args.max_states)
        bounds = compute_bounds(bound, dfa)
    compiled = compile_to_c(bound, abi=abi, with_main=not args.no_main,
                            name=Path(args.file).stem or "ceu",
                            bounds=bounds)
    if args.output:
        Path(args.output).write_text(compiled.code)
        print(f"wrote {args.output}: {compiled.n_tracks} tracks, "
              f"{compiled.n_gates} gates, {compiled.mem_size} mem bytes",
              file=sys.stderr)
    else:
        sys.stdout.write(compiled.code)
    return 0


def cmd_dot(args) -> int:
    source = _load(args.file)
    bound = bind(parse(source, args.file))
    if args.flow:
        sys.stdout.write(build_flow(bound).to_dot() + "\n")
        return 0
    check_bounded(bound)  # the abstract machine assumes §2.5 holds
    dfa = build_dfa(bound, max_states=args.max_states)
    sys.stdout.write(dfa.to_dot(bound) + "\n")
    if dfa.conflicts:
        print(f"warning: {len(dfa.conflicts)} nondeterminism witness(es); "
              f"first: {dfa.conflicts[0].message()}", file=sys.stderr)
        return 1
    return 0


def cmd_layout(args) -> int:
    source = _load(args.file)
    bound = bind(parse(source, args.file))
    layout = build_layout(bound, TARGET16)
    gates = build_gates(bound)
    print(f"memory vector: {layout.total} bytes (16-bit target)")
    for sym in bound.variables:
        print(f"  +{layout.offset(sym):4d} {layout.size(sym):3d}B  "
              f"{sym.type} {sym.name}")
    print(f"gates: {gates.count}")
    for gate in gates.gates:
        event = f" ({gate.event})" if gate.event else ""
        print(f"  g{gate.id:<3d} {gate.kind}{event}")
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import PROFILES, FuzzRunner, has_gcc

    config = PROFILES[args.profile]
    if args.n is None and args.minutes is None:
        args.n = 100
    use_c = not args.no_c
    if use_c and not has_gcc():
        print("gcc not found: VM-vs-C oracle disabled "
              "(replay and analysis oracles still run)", file=sys.stderr)
    target = _load(args.target) if args.target else None
    runner = FuzzRunner(seed=args.seed, config=config, use_c=use_c,
                        fault=args.inject_fault, do_shrink=args.shrink,
                        report=args.report, profile=args.profile,
                        guided=args.guided, target=target,
                        corpus_max=args.corpus_max,
                        artifact_dir=args.artifact_dir,
                        use_semantics=(args.oracle == "semantics"))
    stats = runner.run(n=args.n, minutes=args.minutes)
    return 0 if stats.ok() else 1


def cmd_bench(args) -> int:
    from .bench import main as bench_main

    return bench_main(args)


def _parse_addr(spec: str) -> tuple[str, int]:
    """``:9464`` / ``127.0.0.1:9464`` / ``9464`` → (host, port)."""
    host, _, port = spec.rpartition(":")
    if not port.isdigit():
        raise ValueError(f"not a HOST:PORT address: {spec!r}")
    return host or "127.0.0.1", int(port)


def _serve_farm(args, source: str, name: str) -> int:
    """``repro farm --serve``: wall-clock drive + HTTP telemetry plane,
    draining gracefully on SIGTERM/SIGINT (docs/OBSERVABILITY.md)."""
    import signal

    from .obs import (AdminServer, FlightRecorder, LineTee, Profiler,
                      StreamingJsonlExporter, write_prom)
    from .runtime.farm import Farm
    from .runtime.wallclock import WallClockDriver

    host, port = _parse_addr(args.serve)
    stream = recorder = None
    if args.jsonl:
        stream = StreamingJsonlExporter(args.jsonl, flush_every=1024)
    if args.flight_recorder:
        recorder = FlightRecorder(args.flight_recorder)
    tee = LineTee()
    profiler = Profiler(source=source)
    record = args.record or bool(args.postmortem_dir)
    farm = Farm(source, n=args.instances, program=name,
                observe=not args.detached, stream=stream,
                recorder=recorder, sinks=[tee], subscribers=[profiler],
                record=record, postmortem_dir=args.postmortem_dir)
    driver = WallClockDriver(farm, speed=args.speed)
    checkpoint_fn = postmortems_fn = None
    if record:
        ck_dir = Path(args.postmortem_dir) if args.postmortem_dir \
            else None

        def checkpoint_fn(instance: int) -> dict:
            ck = farm.checkpoint(instance)
            body = {"instance": instance, "describe": ck.describe(),
                    "boundary": ck.boundary}
            if ck_dir is not None:
                ck_dir.mkdir(parents=True, exist_ok=True)
                dest = ck_dir / (f"checkpoint-{name}-i{instance}"
                                 f"-r{ck.reaction_count}.json")
                ck.save(dest)
                body["path"] = str(dest)
            return body
    if args.postmortem_dir:
        from .runtime.checkpoint import list_postmortems

        def postmortems_fn() -> list:
            return list_postmortems(args.postmortem_dir)
    server = AdminServer(driver.snapshot, health_fn=farm.watchdog,
                         ready_fn=lambda: driver.running, events=tee,
                         flamegraph_fn=profiler.collapsed,
                         checkpoint_fn=checkpoint_fn,
                         postmortems_fn=postmortems_fn,
                         lock=driver.lock, host=host, port=port).start()
    print(f"{args.file}: {args.instances} instance(s) of {name} — "
          f"serving telemetry on {server.address} "
          f"(speed {args.speed:g}x)", flush=True)

    def _on_signal(signum, frame):
        driver.stop()

    old = {s: signal.signal(s, _on_signal)
           for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        until = parse_time(args.until) if args.until else None
        driver.run(until_us=until)
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    # graceful drain: stop routing (readyz 503), align the fleet, emit
    # one final snapshot, flush the exporter, then stop accepting
    server.draining.set()
    driver.drain(until_us=until)
    with driver.lock:
        snap = farm.fleet_snapshot()
        snap["watchdog"] = farm.watchdog()
    if args.snapshot:
        Path(args.snapshot).write_text(
            json.dumps(snap, indent=2, sort_keys=True, default=repr)
            + "\n")
        print(f"wrote {args.snapshot}", file=sys.stderr)
    if args.prom:
        n = write_prom(snap, args.prom)
        print(f"wrote {args.prom}: {n} exposition lines",
              file=sys.stderr)
    farm.close()
    server.close()
    print(f"drained at {snap['now_us']}us: {snap['instances']} live / "
          f"{snap['spawned']} spawned, "
          f"{sample(snap['families'], 'reactions_total', 0)} reactions, "
          f"{len(snap['watchdog']['flagged'])} watchdog flag(s)",
          flush=True)
    if stream is not None:
        print(f"wrote {args.jsonl}: {stream.seq} events streamed "
              f"(resident high {stream.resident_high})", file=sys.stderr)
    return 0


def cmd_farm(args) -> int:
    """N program instances over the DES kernel with fleet telemetry."""
    from .obs import FlightRecorder, StreamingJsonlExporter, write_prom
    from .runtime.farm import Farm

    source = _load(args.file)
    name = Path(args.file).stem or "prog"
    if args.serve is not None:
        return _serve_farm(args, source, name)
    script = _load_script(args.workload) if args.workload else []
    stream = recorder = None
    if args.jsonl:
        stream = StreamingJsonlExporter(args.jsonl, flush_every=1024)
    if args.flight_recorder:
        recorder = FlightRecorder(args.flight_recorder)
    farm = Farm(source, n=args.instances, program=name,
                observe=not args.detached, stream=stream,
                recorder=recorder,
                record=args.record or bool(args.postmortem_dir),
                postmortem_dir=args.postmortem_dir)
    farm.run_script(script)
    if args.until:
        farm.run_until(parse_time(args.until))
    elif not args.workload:
        farm.run_until(parse_time("1s"))
    snap = farm.fleet_snapshot()
    report = farm.watchdog()
    farm.close()
    reactions = sample(snap["families"], "reactions_total", 0)
    latency = sample(snap["families"], "reaction_latency_us", {})
    print(f"{args.file}: {snap['instances']} live / {snap['spawned']} "
          f"spawned instance(s) of {name}, now={snap['now_us']}us")
    print(f"  reactions: {reactions}  sim events fired: "
          f"{snap['sim']['events_fired']}")
    if latency.get("p99") is not None:
        print(f"  cross-instance reaction latency: "
              f"p50={latency['p50']:.0f}us p95={latency['p95']:.0f}us "
              f"p99={latency['p99']:.0f}us")
    flagged = report["flagged"]
    print(f"  watchdog: {len(flagged)} flagged"
          + (f" — first: instance {flagged[0]['instance']} "
             f"({flagged[0]['reason']})" if flagged else ""))
    captured = [f for f in flagged if f.get("postmortem")]
    if captured:
        print(f"  postmortems: {len(captured)} bundle(s) under "
              f"{args.postmortem_dir} — inspect with `repro postmortem`")
    if args.stats:
        print("--- fleet stats ---", file=sys.stderr)
        print(render_stats(snap), file=sys.stderr)
    if args.snapshot:
        Path(args.snapshot).write_text(
            json.dumps(snap, indent=2, sort_keys=True, default=repr)
            + "\n")
        print(f"wrote {args.snapshot}", file=sys.stderr)
    if args.prom:
        n = write_prom(snap, args.prom)
        print(f"wrote {args.prom}: {n} exposition lines",
              file=sys.stderr)
    if stream is not None:
        print(f"wrote {args.jsonl}: {stream.seq} events streamed "
              f"(resident high {stream.resident_high}, "
              f"{stream.rotations} rotation(s))", file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    """Live fleet dashboard: remote ``/snapshot`` URL or an in-process
    wall-clock farm (docs/OBSERVABILITY.md, "repro top")."""
    import threading

    from .obs.top import Top, snapshot_url_source

    if args.target.startswith(("http://", "https://")):
        top = Top(snapshot_url_source(args.target),
                  interval_s=args.interval, title=args.target,
                  color=None if not args.no_color else False)
        painted = top.run(frames=args.frames)
        return 0 if painted else 1
    source = _load(args.target)
    name = Path(args.target).stem or "prog"
    from .runtime.farm import Farm
    from .runtime.wallclock import WallClockDriver

    farm = Farm(source, n=args.instances, program=name)
    driver = WallClockDriver(farm, speed=args.speed)
    thread = threading.Thread(target=driver.run, daemon=True)
    thread.start()
    top = Top(driver.snapshot, interval_s=args.interval,
              title=f"{name} ×{args.instances} (in-process)",
              color=None if not args.no_color else False)
    try:
        top.run(frames=args.frames)
    finally:
        driver.stop()
        thread.join(timeout=2)
    return 0


def cmd_federate(args) -> int:
    """Merge N shard ``/snapshot`` endpoints into one exposition —
    one-shot (``--once``) or served live (``--serve``)."""
    from .obs import AdminServer, Federator

    fed = Federator(args.shards, timeout_s=args.timeout,
                    min_interval_s=args.interval)
    if args.serve is None or args.once:
        n = fed.scrape(force=True)
        text = fed.render()
        if args.output:
            Path(args.output).write_text(text)
            print(f"wrote {args.output}: {text.count(chr(10))} "
                  f"exposition lines from {n}/{len(args.shards)} "
                  f"shard(s)", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0 if n == len(args.shards) else 1

    import signal
    import threading

    host, port = _parse_addr(args.serve)

    def metrics() -> str:
        fed.scrape()
        return fed.render()

    server = AdminServer(fed.collect, metrics_fn=metrics,
                         host=host, port=port).start()
    print(f"federating {len(args.shards)} shard(s) on {server.address}",
          flush=True)
    stop = threading.Event()
    old = {s: signal.signal(s, lambda *a: stop.set())
           for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        stop.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    server.draining.set()
    server.close()
    print("federation stopped", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Céu reproduction: compiler, analyses, VM, C backend")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the static analyses")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=20_000)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "lint", help="full static analysis; text, JSON, or SARIF")
    p.add_argument("files", nargs="+", metavar="file")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="output format (json: one report object per "
                        "file, a single object for a single file)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report here instead of stdout")
    p.add_argument("--max-states", type=int, default=20_000)
    p.add_argument("--no-witness", action="store_true",
                   help="skip witness-path construction for conflicts")
    p.add_argument("--no-verify", action="store_true",
                   help="build witnesses but skip their VM replay")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero when any error-severity "
                        "diagnostic fired (CI gating)")
    p.add_argument("--incremental", action="store_true",
                   help="run through the incremental analysis engine "
                        "(same output; exercises the LSP code path)")
    p.add_argument("--diff-base", metavar="FILE", default=None,
                   help="only report diagnostics on lines that changed "
                        "relative to this baseline file")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "lsp", help="run the LSP server over stdio (diagnostics, "
                    "hover bounds, go-to-definition)")
    p.set_defaults(fn=cmd_lsp)

    p = sub.add_parser("run", help="execute on the reference VM")
    p.add_argument("file")
    p.add_argument("inputs", nargs="*",
                   help="event inputs: NAME, NAME=VALUE, or @TIME "
                        "(e.g. Key=2 @1s Restart)")
    p.add_argument("--inputs", dest="inputs_file", metavar="FILE",
                   help="replay a script file first (one 'E NAME "
                        "[VALUE]' or 'T US' per line — the witness / "
                        "fuzz-driver format)")
    p.add_argument("--trace", action="store_true",
                   help="print the reaction trace to stderr")
    p.add_argument("--trace-json", metavar="FILE",
                   help="export a Chrome/Perfetto trace-event file")
    p.add_argument("--trace-jsonl", metavar="FILE",
                   help="export every hook event as JSON lines")
    p.add_argument("--stats", action="store_true",
                   help="collect metrics and print the snapshot")
    p.add_argument("--flight-recorder", type=int, nargs="?", const=4096,
                   default=None, metavar="N",
                   help="keep the last N hook events (default 4096) and "
                        "dump them to stderr if the run crashes")
    p.add_argument("--prom", metavar="FILE",
                   help="write the metrics snapshot as Prometheus text "
                        "exposition (implies metrics collection)")
    p.add_argument("--postmortem", metavar="DIR", default=None,
                   help="if the run crashes, write a black-box bundle "
                        "under DIR — a crash checkpoint parked one "
                        "reaction short of the failure, plus the "
                        "flight-recorder ring when --flight-recorder "
                        "is on (open with `repro postmortem`)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "why", help="print the causal slice of an occurrence")
    p.add_argument("file")
    p.add_argument("inputs", nargs="*",
                   help="event inputs: NAME, NAME=VALUE, or @TIME")
    p.add_argument("--inputs", dest="inputs_file", metavar="FILE",
                   help="replay a script file first (fuzz/witness format)")
    p.add_argument("--at", required=True, metavar="TARGET",
                   help="occurrence to explain: trail:LABEL, line:N, "
                        "event:NAME, reaction:N, or a bare name")
    p.add_argument("--steps", action="store_true",
                   help="include interpreter steps in the slice")
    p.add_argument("--diff", action="store_true",
                   help="replay a second configuration and print a "
                        "unified diff of the two causal slices "
                        "(normalized span ids; exit 1 when they differ)")
    p.add_argument("--diff-file", metavar="FILE",
                   help="program for the second replay "
                        "(default: same file)")
    p.add_argument("--diff-inputs", dest="diff_inputs_file",
                   metavar="FILE",
                   help="script file for the second replay "
                        "(default: same stimulus)")
    p.add_argument("--diff-at", metavar="TARGET",
                   help="target in the second replay "
                        "(default: same as --at)")
    p.add_argument("--diff-reverse-seeds", action="store_true",
                   help="second replay flips every intra-reaction "
                        "seeding order the semantics leaves open")
    p.set_defaults(fn=cmd_why)

    p = sub.add_parser(
        "debug", help="time-travel debugger (deterministic replay)")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--inputs", dest="inputs_file", metavar="FILE",
                   help="stimulus script to replay (fuzz/witness format)")
    p.add_argument("--from-checkpoint", metavar="FILE", default=None,
                   help="reopen a saved checkpoint file (the REPL's "
                        "`save`, or a bundle's checkpoint.json) instead "
                        "of running a program")
    p.set_defaults(fn=cmd_debug)

    p = sub.add_parser(
        "postmortem",
        help="inspect a black-box postmortem bundle: summary, causal "
             "slice, flight-recorder tail — or open it in the "
             "time-travel REPL")
    p.add_argument("bundle",
                   help="bundle directory (from a watchdog capture or "
                        "`run --postmortem`); a directory *of* bundles "
                        "is listed instead")
    p.add_argument("--debug", action="store_true",
                   help="replay the bundle's checkpoint into the "
                        "time-travel REPL, parked at the captured "
                        "boundary")
    p.add_argument("--why", metavar="TARGET", default=None,
                   help="print the causal slice of TARGET at the "
                        "captured boundary (trail:LABEL, event:NAME, "
                        "reaction:N, ...)")
    p.add_argument("--steps", action="store_true",
                   help="include interpreter steps in --why slices")
    p.add_argument("--tail", type=int, default=20, metavar="N",
                   help="flight-recorder lines to print in the summary "
                        "view (default 20; 0 = all)")
    p.set_defaults(fn=cmd_postmortem)

    p = sub.add_parser("profile",
                       help="run fully instrumented; print metrics")
    p.add_argument("file")
    p.add_argument("inputs", nargs="*",
                   help="event inputs: NAME, NAME=VALUE, or @TIME")
    p.add_argument("--json", metavar="FILE",
                   help="write the raw metrics snapshot as JSON")
    p.add_argument("--trace-json", metavar="FILE",
                   help="also export a Chrome/Perfetto trace-event file")
    p.add_argument("--hot", type=int, nargs="?", const=10, default=None,
                   metavar="K",
                   help="print the hot-path report: per-trigger latency "
                        "percentiles plus the top-K lines and trails "
                        "(default K=10)")
    p.add_argument("--flamegraph", metavar="FILE",
                   help="write collapsed stacks (trigger;trail;kind:line "
                        "count) for flamegraph.pl / speedscope")
    p.add_argument("--stream", metavar="FILE",
                   help="stream every hook event to FILE as JSONL with "
                        "bounded memory (vs `run --trace-jsonl`, which "
                        "buffers)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("c", help="emit the C translation")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--no-main", action="store_true")
    p.add_argument("--target16", action="store_true",
                   help="lay memory out for the 16-bit embedded target")
    p.add_argument("--static-bounds", action="store_true",
                   help="embed the DFA-derived resource bounds as "
                        "_Static_assert-checked capacity constants")
    p.add_argument("--max-states", type=int, default=20_000,
                   help="DFA budget for --static-bounds")
    p.set_defaults(fn=cmd_c)

    p = sub.add_parser("dot", help="emit graphviz (DFA, or --flow)")
    p.add_argument("file")
    p.add_argument("--flow", action="store_true")
    p.add_argument("--max-states", type=int, default=20_000)
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("layout", help="print memory layout and gates")
    p.add_argument("file")
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing (VM/C/spec/replay)")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed; case i uses seed+i (default 0)")
    p.add_argument("--n", type=int, default=None, metavar="N",
                   help="number of cases (default 100 unless --minutes)")
    p.add_argument("--minutes", type=float, default=None, metavar="M",
                   help="time budget; stops after M minutes")
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug every failure to a minimal reproducer")
    p.add_argument("--report", metavar="FILE",
                   help="write a JSONL campaign report (obs exporter format)")
    p.add_argument("--profile", default="diff",
                   choices=["diff", "deep", "emit", "prio", "timer"],
                   help="generator weight profile (default: diff; "
                        "prio = §4.1 join-priority gadgets)")
    p.add_argument("--no-c", action="store_true",
                   help="skip the C backend even when gcc is available")
    p.add_argument("--oracle", default="default",
                   choices=["default", "semantics"],
                   help="'semantics' adds the executable reference "
                        "semantics as a third backend: every well-formed "
                        "case is also run on the spec machine and the "
                        "full trace signature compared (three-way "
                        "VM/C/spec diff with odd-one-out attribution)")
    p.add_argument("--inject-fault", default=None,
                   choices=["minus-to-plus", "drop-emit", "flat-prio"],
                   help="mutate the generated C to validate the oracles")
    p.add_argument("--guided", action="store_true",
                   help="coverage-guided seed scheduling: cases that "
                        "light new statement/edge coverage enter a "
                        "corpus and are mutated preferentially")
    p.add_argument("--target", metavar="FILE",
                   help="fuzz scripts against this fixed program instead "
                        "of generating programs")
    p.add_argument("--corpus-max", type=int, default=64,
                   help="guided-mode corpus bound (default 64)")
    p.add_argument("--artifact-dir", metavar="DIR",
                   help="write each failure's reproducer (.ceu, .script) "
                        "and a Perfetto trace with causal flow arrows "
                        "(.trace.json) here — CI uploads this directory")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "farm",
        help="run N program instances over the DES kernel with fleet "
             "telemetry")
    p.add_argument("file")
    p.add_argument("-n", "--instances", type=int, default=1000,
                   metavar="N", help="instance count (default 1000)")
    p.add_argument("--until", metavar="TIME", default=None,
                   help="drive the virtual clock to this time (µs or "
                        "TIME literal; default 1s when no --workload)")
    p.add_argument("--workload", metavar="SCRIPT",
                   help="fuzz/witness-format stimulus script: 'E NAME "
                        "[VALUE]' broadcasts to every instance, 'T US' "
                        "advances the virtual clock")
    p.add_argument("--stats", action="store_true",
                   help="print the cross-instance fleet rollup")
    p.add_argument("--snapshot", metavar="FILE",
                   help="write the full fleet snapshot as JSON")
    p.add_argument("--prom", metavar="FILE",
                   help="write the fleet snapshot as Prometheus text "
                        "exposition")
    p.add_argument("--jsonl", metavar="FILE",
                   help="stream every instance's hook events (tagged "
                        "'inst') to FILE with bounded memory")
    p.add_argument("--flight-recorder", type=int, nargs="?", const=4096,
                   default=None, metavar="N",
                   help="shared ring of the last N fleet events")
    p.add_argument("--record", action="store_true",
                   help="journal every top-level driver op so any "
                        "instance can be checkpointed (POST /checkpoint "
                        "under --serve) or warm-started")
    p.add_argument("--postmortem-dir", metavar="DIR", default=None,
                   help="watchdog-flagged instances write black-box "
                        "bundles here (checkpoint + flight-recorder "
                        "ring + causal slice + fleet snapshot; implies "
                        "--record); also enables GET /postmortems "
                        "under --serve")
    p.add_argument("--detached", action="store_true",
                   help="skip per-instance metrics (overhead baseline; "
                        "farm families and DES counters stay on)")
    p.add_argument("--serve", metavar="HOST:PORT", default=None,
                   help="drive the farm on the wall clock and serve the "
                        "telemetry plane over HTTP (/metrics /healthz "
                        "/readyz /snapshot /events /flamegraph; port 0 "
                        "binds an ephemeral port, printed on stdout); "
                        "--until bounds the run, otherwise SIGTERM/"
                        "SIGINT drains gracefully")
    p.add_argument("--speed", type=float, default=1.0,
                   help="wall-clock compression for --serve: virtual "
                        "time runs this many times faster than real "
                        "time (default 1.0)")
    p.set_defaults(fn=cmd_farm)

    p = sub.add_parser(
        "top",
        help="live ANSI fleet dashboard (reactions/s, latency "
             "percentiles, watchdog, per-shard rollup)")
    p.add_argument("target",
                   help="a /snapshot URL of a serving farm or "
                        "federator, or a .ceu file to boot in-process")
    p.add_argument("-n", "--instances", type=int, default=1000,
                   metavar="N",
                   help="instance count for in-process targets "
                        "(default 1000)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="seconds between frames (default 1.0)")
    p.add_argument("--frames", type=int, default=None, metavar="K",
                   help="stop after K frames (default: until q/Ctrl-C)")
    p.add_argument("--speed", type=float, default=1.0,
                   help="wall-clock compression for in-process targets")
    p.add_argument("--no-color", action="store_true",
                   help="plain frames without ANSI escapes")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "federate",
        help="merge N shard /snapshot endpoints into one Prometheus "
             "exposition (cross-shard percentiles, shard labels, "
             "scrape/staleness self-metrics)")
    p.add_argument("shards", nargs="+", metavar="URL",
                   help="shard base URLs (http://host:port of a "
                        "`farm --serve`; /snapshot is appended)")
    p.add_argument("--serve", metavar="HOST:PORT", default=None,
                   help="serve the federated plane over HTTP instead "
                        "of printing once")
    p.add_argument("--once", action="store_true",
                   help="with --serve absent (or even present): one "
                        "sweep, print the exposition, exit non-zero "
                        "if any shard failed")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the exposition here instead of stdout")
    p.add_argument("--timeout", type=float, default=2.0, metavar="S",
                   help="per-shard scrape timeout (default 2s)")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="min seconds between upstream sweeps when "
                        "serving (default 1.0)")
    p.set_defaults(fn=cmd_federate)

    p = sub.add_parser("bench",
                       help="benchmark snapshot + perf regression gate")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="directory for the timestamped BENCH_*.json "
                        "(default: benchmarks/)")
    p.add_argument("--repeats", type=int, default=3,
                   help="best-of-N timing repeats (default 3)")
    p.add_argument("--check", action="store_true",
                   help="after writing every artifact, run the gates of "
                        "every measured section: exact counters and "
                        "toleranced overhead ratios against the baseline, "
                        "detached cap, stream buffering, flatness floors, "
                        "and the analysis, serve and checkpoint gates")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="baseline snapshot (default: "
                        "benchmarks/BENCH_baseline.json)")
    p.add_argument("--tolerance", type=float, default=0.5,
                   help="relative slack for overhead ratios (default 0.5)")
    p.add_argument("--update-baseline", action="store_true",
                   help="write this snapshot as the new baseline")
    p.add_argument("--farm", action="store_true",
                   help="also measure the reactor farm (attached vs "
                        "detached; recorded as benchmarks/BENCH_farm.json"
                        ", never gated)")
    p.add_argument("--analysis", action="store_true",
                   help="also measure incremental-vs-cold lint latency "
                        "(recorded as benchmarks/BENCH_analysis.json; "
                        "--check gates that every incremental report "
                        "equals the cold one)")
    p.add_argument("--serve", action="store_true",
                   help="also measure the telemetry-plane serving-path "
                        "overhead on a detached farm (recorded as "
                        "benchmarks/BENCH_serve.json; --check gates the "
                        "idle-server drive ratio at <= 5%%)")
    p.add_argument("--checkpoint", action="store_true",
                   help="also measure the checkpoint plane: journal-"
                        "recording overhead on the farm drive loop "
                        "and warm-start speedup vs a cold instrumented "
                        "boot (recorded as benchmarks/BENCH_checkpoint"
                        ".json; --check gates them at <= 5%% and >= 5x)")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CeuError, CheckpointError) as err:
        print(str(err), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
