"""Reaction checkpoints: serialize, restore, and ship the VM's state.

The paper's reaction-boundary semantics give a natural, globally
consistent cut of runtime state: between reactions no trail is mid-track,
no emit stack is live, and the whole configuration (scheduler calendar,
trail forest, interpreter frames, memory, timer residues, async
round-robin cursors) is a pure function of the program plus the ordered
top-level driver calls that reached the boundary.  Trails are Python
generator frames and cannot be pickled — so, as record/replay systems do
for deterministic schedulers, a checkpoint *is* the replay recipe plus a
verification digest:

* the **journal** — every top-level driver call since boot, recorded by
  the scheduler itself (``("E", name, value)`` input events,
  ``("T", us)`` time advances, ``("A",)`` async steps, ``("Q", name,
  value)`` queued inputs, ``("F",)`` queue flushes — each stamped with
  the reaction count it reached, which makes replay pausable and
  resumable *inside* a multi-reaction entry);
* the **options** that parameterise execution (delta compensation,
  glitch-free joins, seeding order, step limit);
* the **boundary** (reaction count, step count, clock) the journal
  reaches; and
* a **fingerprint** — a SHA-256 over the canonical structural state at
  that boundary (memory, live trails and what they await, armed timers
  with their §2.3 bases, async queue order, pending inputs, program
  output) that :func:`restore` re-derives and verifies.

:func:`restore` replays the journal on a fresh scheduler with the hook
bus detached — the fast path; the checkpoint is the slow path's
savepoint — and the restored VM is *byte-identical* going forward:
restore-then-run equals run-from-boot on
:meth:`~repro.runtime.trace.Trace.signature` (property-tested over the
corpus, the examples, and fuzz-generated programs).

On top of the serializer sit the flight-data-recorder artifacts:
:func:`write_postmortem` atomically captures a **bundle** directory
(checkpoint + FlightRecorder ring + causal slice of the last reaction +
fleet metrics + manifest) when a farm watchdog trips or a run crashes,
and :func:`load_postmortem` verifies and reopens it — ``repro
postmortem`` feeds it straight into the time-travel debugger.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Optional, Union

FORMAT = "repro-checkpoint"
VERSION = 1
POSTMORTEM_FORMAT = "repro-postmortem"
POSTMORTEM_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
CHECKPOINT_NAME = "checkpoint.json"


class CheckpointError(ValueError):
    """A checkpoint could not be taken, parsed, or restored."""


# ---------------------------------------------------------------------------
# canonical values
# ---------------------------------------------------------------------------

def _canon_value(value: Any) -> Any:
    """JSON-safe canonical form of a journal/state value.

    Tuples become lists (JSON has no tuple); anything non-JSON-native
    falls back to ``repr`` — symbols and refs have deterministic reprs,
    which is all the fingerprint needs."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canon_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon_value(v) for k, v in value.items()}
    return repr(value)


def _dumps(payload: dict) -> bytes:
    """Deterministic byte serialization (sorted keys, no whitespace)."""
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# state fingerprint
# ---------------------------------------------------------------------------

def state_doc(sched) -> dict:
    """The canonical structural state of a scheduler at a reaction
    boundary — everything behaviour-relevant, nothing process-local.

    Trail identity is ``(label, path)`` (both deterministic per run);
    raw trail/async sequence numbers are process-global counters and are
    deliberately excluded (only their relative order matters, and that
    is preserved by construction)."""
    trails = sorted((t for t in sched._live if t.alive),
                    key=lambda t: t.seq)
    timers = sorted(
        (deadline, base, computed, t.label, list(t.path))
        for deadline, base, computed, _seq, t in sched.timers
        if t.alive and t.waiting == "time")
    waiting = {
        kind: {name: [t.label for t in lst if t.alive]
               for name, lst in sorted(table.items())
               if any(t.alive for t in lst)}
        for kind, table in (("ext", sched.ext_waiting),
                            ("int", sched.int_waiting))
    }
    return {
        "clock_us": sched.clock,
        "reactions": sched.reaction_count,
        "steps": sched.steps_executed,
        "done": sched.done,
        "result": _canon_value(sched.result),
        "memory": [[sym.name, sym.uid, _canon_value(value)]
                   for sym, value in sched.memory._slots.items()],
        "trails": [[t.label, list(t.path), t.waiting, t.started]
                   for t in trails],
        "waiting": waiting,
        "forever": [t.label for t in sched.forever if t.alive],
        "timers": [list(entry) for entry in timers],
        "asyncs": [[i, job.node.nid, job.owner.label, job.done,
                    job.aborted]
                   for i, job in enumerate(sched.async_jobs)],
        "input_queue": [[name, _canon_value(value)]
                        for name, value in sched.input_queue],
        "output_sha256": _sha256(sched.cenv.output().encode("utf-8")),
    }


def state_fingerprint(sched) -> str:
    """SHA-256 of :func:`state_doc` — the restore-verification digest."""
    return _sha256(_dumps(state_doc(sched)))


# ---------------------------------------------------------------------------
# journal replay
# ---------------------------------------------------------------------------

def replay_journal(sched, journal, start: int = 0,
                   pause_at: Optional[int] = None) -> int:
    """Apply ``journal[start:]`` to a booted scheduler; returns the
    cursor of the first entry not fully consumed.

    Every entry carries, as its last element, the reaction count the
    scheduler showed after the entry was applied in the original run
    (the :meth:`~repro.runtime.scheduler.Scheduler._journal_close`
    stamp).  With ``pause_at`` set (a reaction boundary), replay stops
    exactly there, possibly *inside* a multi-reaction entry — a time
    advance firing several deadlines, a queue flush delivering several
    events.  The stamp makes the pause resumable with no extra state:
    on re-entry, a scheduler whose reaction count sits strictly between
    the previous entry's stamp and the current one is mid-entry, and
    the entry is *continued* rather than re-run —

    * ``T``: re-issuing ``go_time`` to the (already-reached) target
      clock runs the remaining deadline reactions;
    * ``A``: a partial async step can only have paused inside its
      ``emit_time`` tail-call, so ``go_time`` to the current clock
      finishes it (the round-robin rotation already happened);
    * ``F``: re-issuing the flush delivers what is left in the queue;
    * ``E``/``Q`` are single-reaction/zero-reaction and never partial.
    """
    sched.pause_at = pause_at
    i = start
    while i < len(journal) and not sched.done:
        entry = journal[i]
        op = entry[0]
        # Zero-reaction entries at the boundary (pure clock advances,
        # queued inputs, async ticks — stamp == current count) still
        # apply while paused: their effects are part of the boundary
        # state.  Only an entry that would *run* a reaction past the
        # gate stops the replay.
        if sched.paused() and entry[-1] > sched.reaction_count:
            break
        base_rc = journal[i - 1][-1] if i else 1   # go_init leaves count=1
        resuming = sched.reaction_count > base_rc
        if op == "E":
            sched.go_event(entry[1], entry[2])
        elif op == "T":
            sched.go_time(entry[1])
        elif op == "A":
            if resuming:
                sched.go_time(sched.clock)
            else:
                sched.go_async()
        elif op == "Q":
            sched.queue_input(entry[1], entry[2])
        elif op == "F":
            sched.flush_inputs()
        else:
            raise CheckpointError(f"unknown journal op {op!r}")
        if (sched.paused() and not sched.done
                and sched.reaction_count < entry[-1]):
            break                   # partially applied; cursor stays put
        i += 1
    return i


def journal_cursor(journal, reactions: int) -> int:
    """First journal entry not fully applied once ``reactions``
    reactions have completed (each entry's last element is its
    post-application reaction-count stamp)."""
    for i, entry in enumerate(journal):
        if entry[-1] > reactions:
            return i
    return len(journal)


# ---------------------------------------------------------------------------
# the checkpoint
# ---------------------------------------------------------------------------

#: the scheduler options a checkpoint carries, with their types
_OPTIONS = {"compensate_deltas": bool, "glitch_free": bool,
            "reverse_seeds": bool, "step_limit": int}
#: every payload field the views and the replay read, with its types
_FIELDS = {"program.source": (str,), "program.filename": (str,),
           "program.sha256": (str,), "boundary.reactions": (int,),
           "boundary.clock_us": (int,), "boundary.steps": (int, type(None)),
           "boundary.done": (bool,), "journal": (list,),
           "fingerprint": (str, type(None)),
           **{f"options.{key}": (t,) for key, t in _OPTIONS.items()}}
#: journal op → entry length: the op, its arguments, the stamp
_ARITY = {"E": 4, "T": 3, "A": 2, "Q": 4, "F": 2}


def _check_fields(payload: dict) -> None:
    """Refuse a payload a view or the replay would trip over, naming the
    first bad field."""
    for key, want in (("format", FORMAT), ("version", VERSION)):
        got = payload.get(key)
        if type(got) is not type(want) or got != want:
            raise CheckpointError(f"checkpoint {key} is {got!r}, not "
                                  f"{want!r}")
    for name, types in _FIELDS.items():
        value = payload
        for key in name.split("."):
            if not isinstance(value, dict) or key not in value:
                raise CheckpointError(f"checkpoint field {name} is missing")
            value = value[key]
        if type(value) not in types:        # exact: a bool is no int
            raise CheckpointError(f"checkpoint field {name} must be "
                                  f"{' or '.join(t.__name__ for t in types)}"
                                  f", got {value!r:.40}")
    if payload["boundary"]["reactions"] < 1:
        raise CheckpointError("checkpoint field boundary.reactions is < 1")
    for i, entry in enumerate(payload["journal"]):
        if not (type(entry) is list and entry and type(entry[0]) is str
                and _ARITY.get(entry[0]) == len(entry)
                and type(entry[-1]) is int):
            raise CheckpointError(f"checkpoint journal entry {i} is not "
                                  f"[op, …, stamp]: {entry!r:.40}")
    source = payload["program"]["source"].encode("utf-8", "surrogatepass")
    if _sha256(source) != payload["program"]["sha256"]:
        raise CheckpointError("checkpoint program.source does not match "
                              "program.sha256")


class Checkpoint:
    """One serialized reaction-boundary configuration (see module doc).

    ``payload`` is the canonical dict; :meth:`to_bytes` is deterministic
    — two checkpoints of identical state are byte-identical.
    """

    def __init__(self, payload: dict):
        _check_fields(payload)
        self.payload = payload

    # ------------------------------------------------------------ views
    @property
    def source(self) -> str:
        return self.payload["program"]["source"]

    @property
    def filename(self) -> str:
        return self.payload["program"]["filename"]

    @property
    def program_sha(self) -> str:
        return self.payload["program"]["sha256"]

    @property
    def journal(self) -> list[tuple]:
        return [tuple(entry) for entry in self.payload["journal"]]

    @property
    def options(self) -> dict:
        return self.payload["options"]

    @property
    def boundary(self) -> dict:
        return self.payload["boundary"]

    @property
    def reaction_count(self) -> int:
        return self.payload["boundary"]["reactions"]

    @property
    def clock_us(self) -> int:
        return self.payload["boundary"]["clock_us"]

    @property
    def fingerprint(self) -> Optional[str]:
        return self.payload["fingerprint"]

    def describe(self) -> str:
        b = self.boundary
        return (f"checkpoint v{VERSION} of {self.filename} at reaction "
                f"{b['reactions']} (clock {b['clock_us']}us, "
                f"{b['steps']} steps, {len(self.payload['journal'])} "
                f"journal entries)")

    # ------------------------------------------------------------ bytes
    def to_bytes(self) -> bytes:
        return _dumps(self.payload)

    def save(self, path) -> Path:
        """Atomic single-file write (pid-tmp + fsync + rename)."""
        path = Path(path)
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        data = self.to_bytes()
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():                # a failed write leaves no tmp
                tmp.unlink()
        return path

    @classmethod
    def from_bytes(cls, data: Union[bytes, str]) -> "Checkpoint":
        try:
            if isinstance(data, bytes):
                data = data.decode("utf-8")
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"unparsable checkpoint: {exc}") \
                from None
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload is not an object")
        return cls(payload)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise CheckpointError(f"{path}: {exc.strerror or exc}") \
                from None
        return cls.from_bytes(data)


def _payload(program, source: Optional[str], filename: Optional[str],
             journal: Optional[list], crash: bool) -> dict:
    """The one payload builder behind :func:`snapshot`,
    :func:`snapshot_crash` and :func:`restore`'s check."""
    sched = getattr(program, "sched", program)
    if source is None:
        source = getattr(program, "source", None)
    if filename is None:
        filename = getattr(program, "filename", None)
    if source is None:
        raise CheckpointError("snapshot needs the program source text "
                              "(pass source=)")
    if journal is None:
        journal = sched.journal
    if journal is None:
        raise CheckpointError(
            "journal recording is off — set sched.journal = [] before "
            "boot (Program/Farm record=True) to make the run "
            "checkpointable")
    if sched._reacting:
        raise CheckpointError("cannot snapshot mid-reaction — "
                              "checkpoints cut at reaction boundaries")
    if sched.reaction_count == 0:
        raise CheckpointError("cannot snapshot a program that was never "
                              "started — start it first")
    boundary = {"reactions": sched.reaction_count,
                "steps": sched.steps_executed,
                "clock_us": sched.clock,
                "done": sched.done}
    if crash:
        boundary.update(reactions=max(1, sched.reaction_count - 1),
                        steps=None, done=False)
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "program": {
            "filename": filename or "<ceu>",
            "source": source,
            "sha256": _sha256(source.encode("utf-8")),
        },
        "options": {key: getattr(sched, key) for key in _OPTIONS},
        "boundary": boundary,
        "journal": [list(_canon_value(entry)) for entry in journal],
        "fingerprint": None if crash else state_fingerprint(sched),
    }
    if crash:
        payload["crash"] = True
    return payload


def snapshot(program, *, source: Optional[str] = None,
             filename: Optional[str] = None,
             journal: Optional[list] = None) -> Checkpoint:
    """Serialize one started :class:`~repro.runtime.program.Program` (or
    bare scheduler) at its current reaction boundary.

    Requires journal recording (``sched.journal = []`` before boot —
    ``Program(record=True)``, ``Farm(record=True)``, or the debugger do
    this) and a quiescent scheduler (never call mid-reaction).
    ``journal`` overrides the scheduler's own; it must be the journal a
    replay to this boundary records, or :func:`restore` refuses it."""
    return Checkpoint(_payload(program, source, filename, journal, False))


def snapshot_crash(program, *, source: Optional[str] = None,
                   filename: Optional[str] = None) -> Checkpoint:
    """Postmortem checkpoint of a *crashed* run (``--flight-recorder``).

    The VM died mid-reaction, so the current state is not a boundary and
    cannot be fingerprinted; instead the checkpoint targets the last
    completed boundary *before* the crashing reaction and carries no
    fingerprint.  Its journal ends with the entry that crashed.
    Replaying it parks the VM one reaction short of the crash — exactly
    where a debugger wants to stand."""
    return Checkpoint(_payload(program, source, filename, None, True))


def restore(ckpt: Checkpoint, *, bound=None, cenv=None,
            trace: bool = False, hooks=None, record: bool = True,
            check: bool = False):
    """Materialise a checkpoint: boot a fresh VM and replay the journal
    up to the boundary.  This is the only code that stands a VM up at a
    checkpoint's boundary, so it is where a bad checkpoint is refused.

    The replay runs with whatever instrumentation the caller asked for —
    the default (no trace, no metrics, detached hook bus) is the fast
    path warm starts rely on; ``hooks=`` is a bus whose subscribers (a
    causal graph) must see the replay.  Pass ``bound=`` (a shared
    :class:`~repro.sema.binder.BoundProgram`, e.g. a farm's) to skip
    re-parsing; the caller must have matched it to ``ckpt.source``.
    With ``record=False`` the restored VM stops journaling.

    Raises :class:`CheckpointError` when the replay raises, and when the
    restored VM does not :func:`snapshot` to ``ckpt``.  A crash
    checkpoint is held only to its reaction count and the journal before
    the entry that crashed.

    Returns the restored, un-paused :class:`Program`.
    """
    from .program import Program

    boundary = ckpt.reaction_count
    try:
        program = Program(ckpt.source if bound is None else bound,
                          cenv=cenv, trace=trace, hooks=hooks, check=check,
                          filename=ckpt.filename)
        program.source = ckpt.source
        sched = program.sched
        apply_options(sched, ckpt)
        sched.journal = []
        # Boot with go_init directly — Program.start() also drains
        # boot-time asyncs, but those drains were themselves journaled
        # as "A" ops.
        sched.go_init()
        cursor = replay_journal(sched, ckpt.journal, pause_at=boundary)
        sched.pause_at = None
        want = ckpt.payload
        if ckpt.fingerprint is None:
            # a crash checkpoint: its clock and last journal entry belong
            # to the reaction that crashed, past the boundary
            journal = [list(_canon_value(e)) for e in sched.journal]
            got = {"boundary": sched.reaction_count,
                   "journal": journal[:cursor]}
            want = {"boundary": boundary, "journal": want["journal"][:cursor]}
        else:
            got = _payload(program, None, None, None, False)
    except Exception as exc:  # noqa: BLE001 - the checkpoint's fault
        raise CheckpointError(f"restore failed: {type(exc).__name__}: "
                              f"{exc}") from exc
    differ = [key for key in want if got.get(key) != want[key]]
    if differ:
        raise CheckpointError(f"restore diverged from the checkpoint in "
                              f"{', '.join(differ)}")
    if not record:
        sched.journal = None
    return program


def apply_options(sched, ckpt: Checkpoint) -> None:
    """Copy a checkpoint's execution options onto a fresh scheduler."""
    for key in _OPTIONS:
        setattr(sched, key, ckpt.options[key])


# ---------------------------------------------------------------------------
# postmortem bundles
# ---------------------------------------------------------------------------

def write_postmortem(path, checkpoint: Checkpoint, *, reason: str,
                     program: Optional[str] = None,
                     instance: Optional[int] = None,
                     recorder_lines=None, fleet: Optional[dict] = None,
                     slice_text: Optional[str] = None,
                     detail: Optional[dict] = None,
                     created_at: Optional[str] = None) -> Path:
    """Atomically write a postmortem bundle directory.

    The bundle is staged under a pid-suffixed temp name, every file is
    fsynced, the manifest (with per-file SHA-256s) is written *last*,
    and the staging directory is renamed into place — so a crash, a
    SIGTERM drain, or a concurrent reader ever observes either a
    complete bundle (manifest present, hashes matching) or no bundle at
    all, never a partial one.  Raises if ``path`` already exists."""
    final = Path(path)
    if final.exists():
        raise CheckpointError(f"postmortem bundle {final} already exists")
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_name(f".{final.name}.tmp{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        files: dict[str, dict] = {}

        def put(name: str, data: bytes) -> None:
            with open(tmp / name, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            files[name] = {"sha256": _sha256(data), "bytes": len(data)}

        put(CHECKPOINT_NAME, checkpoint.to_bytes())
        if recorder_lines is not None:
            text = "\n".join(recorder_lines)
            put("flightrecorder.jsonl",
                (text + "\n" if text else "").encode("utf-8"))
        if slice_text is not None:
            put("slice.txt", (slice_text.rstrip("\n") + "\n")
                .encode("utf-8"))
        if fleet is not None:
            put("fleet.json",
                (json.dumps(fleet, indent=2, sort_keys=True, default=repr)
                 + "\n").encode("utf-8"))
        manifest = {
            "format": POSTMORTEM_FORMAT,
            "version": POSTMORTEM_VERSION,
            "checkpoint_version": VERSION,
            "reason": reason,
            "program": program,
            "instance": instance,
            "boundary": checkpoint.boundary,
            "options": checkpoint.options,
            "program_sha256": checkpoint.program_sha,
            "created_at": created_at,
            "detail": _canon_value(detail) if detail else None,
            "files": files,
        }
        with open(tmp / MANIFEST_NAME, "wb") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True)
                     .encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        dirfd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
        os.rename(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final


#: the sidecar files a bundle may list, decoded when it is loaded
_SIDECARS = ("flightrecorder.jsonl", "slice.txt", "fleet.json")


class PostmortemBundle:
    """A verified, loaded postmortem bundle; ``sidecars`` maps each
    listed sidecar to its decoded content (text, or the fleet dict)."""

    def __init__(self, path: Path, manifest: dict,
                 checkpoint: Checkpoint, sidecars: dict):
        self.path = path
        self.manifest = manifest
        self.checkpoint = checkpoint
        self.sidecars = sidecars

    @property
    def reason(self) -> str:
        return self.manifest.get("reason", "unknown")

    def recorder_lines(self) -> list[str]:
        text = self.sidecars.get("flightrecorder.jsonl", "")
        return [ln for ln in text.splitlines() if ln]

    def slice_text(self) -> Optional[str]:
        return self.sidecars.get("slice.txt")

    def fleet(self) -> Optional[dict]:
        return self.sidecars.get("fleet.json")

    def describe(self) -> str:
        m = self.manifest
        b = m.get("boundary", {})
        inst = f" instance {m['instance']}" if m.get("instance") is not \
            None else ""
        return (f"postmortem [{self.reason}] {m.get('program') or '?'}"
                f"{inst} — reaction {b.get('reactions')} at "
                f"{b.get('clock_us')}us, {len(m.get('files', {}))} "
                f"file(s)")


def _read_manifest(root: Path) -> dict:
    """Parse ``root``'s manifest and refuse, naming the field, any shape
    the readers would trip over: not a JSON object, a foreign format or
    version, ``files`` or ``boundary`` not an object, ``files`` without
    the checkpoint, a ``files`` entry not an object, or a file name that
    is not a plain name inside the bundle."""
    try:
        manifest = json.loads((root / MANIFEST_NAME).read_text("utf-8"))
    except (ValueError, RecursionError) as err:
        raise CheckpointError(f"{root}: {MANIFEST_NAME} is not JSON "
                              f"({err})") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{root}: {MANIFEST_NAME} is not a JSON "
                              f"object")
    if manifest.get("format") != POSTMORTEM_FORMAT:
        raise CheckpointError(f"{root}: unknown manifest format "
                              f"{manifest.get('format')!r}")
    if manifest.get("version") != POSTMORTEM_VERSION:
        raise CheckpointError(f"{root}: unsupported bundle version "
                              f"{manifest.get('version')!r}")
    for key in ("files", "boundary"):
        if not isinstance(manifest.get(key, {}), dict):
            raise CheckpointError(f"{root}: manifest field {key!r} is not "
                                  f"an object")
    if CHECKPOINT_NAME not in manifest.get("files", {}):
        raise CheckpointError(f"{root}: manifest field 'files' does not "
                              f"list {CHECKPOINT_NAME}")
    for name, meta in manifest["files"].items():
        if name in ("", "..") or Path(name).name != name:
            raise CheckpointError(f"{root}: manifest field 'files' names "
                                  f"{name!r}, not a file of the bundle")
        if not isinstance(meta, dict):
            raise CheckpointError(f"{root}: manifest field "
                                  f"files[{name!r}] is not an object")
    return manifest


def _decode_sidecar(root: Path, name: str, data: bytes):
    try:
        text = data.decode("utf-8")
        if name != "fleet.json":
            return text
        fleet = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise CheckpointError(f"{root}: {name} is unreadable "
                              f"({err})") from None
    if not isinstance(fleet, dict):
        raise CheckpointError(f"{root}: fleet.json is not a JSON object")
    return fleet


def load_postmortem(path) -> PostmortemBundle:
    """Open and verify a bundle: manifest present and well formed, every
    listed file present with a matching SHA-256, every listed sidecar
    decodable, the listed checkpoint parsable.  Each problem is a
    :class:`CheckpointError` naming the file or field."""
    root = Path(path)
    if not (root / MANIFEST_NAME).exists():
        raise CheckpointError(
            f"{root} is not a postmortem bundle (no {MANIFEST_NAME})")
    manifest = _read_manifest(root)
    sidecars = {}
    for name, meta in manifest["files"].items():
        fp = root / name
        if not fp.exists():
            raise CheckpointError(f"{root}: manifest lists {name} but "
                                  f"it is missing — partial bundle?")
        data = fp.read_bytes()
        got = _sha256(data)
        if got != meta.get("sha256"):
            raise CheckpointError(f"{root}: {name} is corrupt "
                                  f"(sha256 {got[:12]}… != manifest "
                                  f"{str(meta.get('sha256'))[:12]}…)")
        if name == CHECKPOINT_NAME:
            ckpt = Checkpoint.from_bytes(data)
        elif name in _SIDECARS:
            sidecars[name] = _decode_sidecar(root, name, data)
    return PostmortemBundle(root, manifest, ckpt, sidecars)


def list_postmortems(directory) -> list[dict]:
    """Manifests of every complete bundle under ``directory`` (sorted by
    name); staging/partial directories are invisible by construction,
    and an unreadable or malformed manifest is skipped."""
    root = Path(directory)
    if not root.is_dir():
        return []
    out = []
    for entry in sorted(root.iterdir()):
        manifest = entry / MANIFEST_NAME
        if entry.name.startswith(".") or not manifest.is_file():
            continue
        try:
            m = _read_manifest(entry)
        except (OSError, ValueError):     # CheckpointError included
            continue
        m["bundle"] = entry.name
        out.append(m)
    return out


__all__ = ["Checkpoint", "CheckpointError", "PostmortemBundle",
           "snapshot", "snapshot_crash", "restore", "apply_options",
           "replay_journal", "journal_cursor", "state_doc",
           "state_fingerprint", "write_postmortem", "load_postmortem",
           "list_postmortems", "FORMAT", "VERSION"]
