"""Simulated TinyOS/WSN platform (§3, §3.1).

The paper's first demo runs on *micaz* motes under TinyOS, with the Céu
binding intercepting every OS event and re-emitting it as a Céu input
event.  Here the binding's surface is reproduced over the discrete-event
simulator:

* ``_TOS_NODE_ID`` — the mote id;
* ``_Leds_set / _Leds_led0Toggle / _Leds_led1Toggle / _Leds_led2Toggle``;
* ``_Radio_send(dest, msg)`` / ``_Radio_getPayload(msg)`` and the input
  event ``Radio_receive`` (carrying the received message);
* wall-clock time, driven from the shared simulation clock.

Failures (a mote going down / coming back) and message loss are injectable,
which is how the ring demo's network-down behaviour is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs.hooks import HookBus
from ..obs.fleet import FleetRegistry
from ..runtime import CEnv, Program
from ..runtime.values import ItemRef, Ref
from ..sim.des import Rng, Simulator


class Message:
    """A `_message_t`: a small payload vector (ints)."""

    __slots__ = ("payload",)

    def __init__(self, payload: Optional[list] = None):
        self.payload = list(payload) if payload is not None else [0, 0, 0, 0]

    def copy(self) -> "Message":
        return Message(self.payload)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Message({self.payload})"


@dataclass
class LedState:
    """Led history of one mote: (time_us, value 0..7)."""

    value: int = 0
    history: list[tuple[int, int]] = field(default_factory=list)

    def set(self, now: int, value: int) -> None:
        self.value = value & 7
        self.history.append((now, self.value))

    def toggle(self, now: int, bit: int) -> None:
        self.set(now, self.value ^ (1 << bit))


class Mote:
    """One sensor node running a Céu program."""

    def __init__(self, world: "TinyOsWorld", node_id: int, source: str,
                 extra_env: Optional[dict] = None):
        self.world = world
        self.id = node_id
        self.leds = LedState()
        self.up = True
        self.sent: list[tuple[int, int, Message]] = []     # (t, dest, msg)
        self.received: list[tuple[int, Message]] = []      # (t, msg)
        cenv = CEnv(world.base_env)
        cenv.define_many({
            "TOS_NODE_ID": node_id,
            "Leds_set": self._leds_set,
            "Leds_led0Toggle": lambda: self._leds_toggle(0),
            "Leds_led1Toggle": lambda: self._leds_toggle(1),
            "Leds_led2Toggle": lambda: self._leds_toggle(2),
            "Radio_send": self._radio_send,
            "Radio_getPayload": radio_get_payload,
        })
        if extra_env:
            cenv.define_many(extra_env)
        # each mote gets its own hook bus: reaction streams of different
        # schedulers must not interleave on one exporter track set
        self.program = Program(source, cenv=cenv, observe=world.observe,
                               filename=f"mote{node_id}.ceu")
        self.cenv = cenv

    # --------------------------------------------------------- C bindings
    def _leds_set(self, value: int) -> int:
        self.leds.set(self.world.sim.now, value)
        return 0

    def _leds_toggle(self, bit: int) -> int:
        self.leds.toggle(self.world.sim.now, bit)
        return 0

    def _radio_send(self, dest: int, msg: Any) -> int:
        message = coerce_message(msg)
        self.sent.append((self.world.sim.now, dest, message.copy()))
        self.world.deliver(self.id, dest, message.copy())
        return 0

    # ----------------------------------------------------------- lifecycle
    def boot(self) -> None:
        self.program.start()
        self.world.arm_timer(self)

    def receive(self, msg: Message) -> None:
        if not self.up or self.program.done:
            return
        self.received.append((self.world.sim.now, msg.copy()))
        self.sync_time()
        self.program.send("Radio_receive", msg)
        self.world.arm_timer(self)

    def sync_time(self) -> None:
        if self.program.clock < self.world.sim.now:
            self.program.at(self.world.sim.now)

    def fail(self) -> None:
        """Take the mote down (it stops reacting and transmitting)."""
        self.up = False

    def recover(self) -> None:
        self.up = True
        self.sync_time()
        self.world.arm_timer(self)


def radio_get_payload(msg: Any) -> Ref:
    """`_Radio_getPayload` — pointer to the first payload word.  Accepts a
    `_message_t` value or a pointer to one (initialising it on demand, as
    TinyOS's accessor does for a stack-allocated message)."""
    if isinstance(msg, Ref):
        inner = msg.get()
        if not isinstance(inner, Message):
            inner = Message()
            msg.set(inner)
        msg = inner
    if not isinstance(msg, Message):
        raise TypeError(f"not a message: {msg!r}")
    return ItemRef(msg.payload, 0)


def coerce_message(msg: Any) -> Message:
    if isinstance(msg, Ref):
        msg = msg.get()
    if not isinstance(msg, Message):
        raise TypeError(f"not a message: {msg!r}")
    return msg


class TinyOsWorld:
    """A network of motes over the DES.

    ``latency_us`` is the radio flight+stack time; ``loss`` an optional
    probability of dropping each unicast (seeded, deterministic).
    """

    def __init__(self, latency_us: int = 5_000, loss: float = 0.0,
                 seed: int = 7, observe: bool = False,
                 hooks: Optional[HookBus] = None):
        self.hooks = hooks if hooks is not None else HookBus()
        self.observe = observe
        self.sim = Simulator(hooks=self.hooks)
        self.metrics = FleetRegistry()
        self._radio = self.metrics.counter_family("radio_messages_total",
                                                  ("outcome",))
        self.base_env = CEnv()
        self.motes: dict[int, Mote] = {}
        self.latency_us = latency_us
        self.loss = loss
        self.rng = Rng(seed)
        self.dropped: list[tuple[int, int, int]] = []   # (t, src, dest)
        self._timer_handles: dict[int, int] = {}

    # ----------------------------------------------------------- topology
    def add_mote(self, node_id: int, source: str,
                 extra_env: Optional[dict] = None) -> Mote:
        mote = Mote(self, node_id, source, extra_env)
        self.motes[node_id] = mote
        return mote

    def boot(self) -> None:
        for mote in self.motes.values():
            mote.boot()

    # ------------------------------------------------------------- radio
    def deliver(self, src: int, dest: int, msg: Message) -> None:
        self.metrics.labels(self._radio, "sent").inc()
        sender = self.motes.get(src)
        if sender is not None and not sender.up:
            self.metrics.labels(self._radio, "suppressed_down").inc()
            return  # a downed mote transmits nothing
        if self.loss and self.rng.chance(self.loss):
            self.dropped.append((self.sim.now, src, dest))
            self.metrics.labels(self._radio, "dropped").inc()
            return
        target = self.motes.get(dest)
        if target is None:
            self.metrics.labels(self._radio, "unroutable").inc()
            return
        self.metrics.labels(self._radio, "delivered").inc()
        self.sim.after(self.latency_us, lambda: target.receive(msg))

    # ------------------------------------------------------------- timers
    def arm_timer(self, mote: Mote) -> None:
        """(Re)schedule the DES wake-up for the mote's next Céu deadline."""
        handle = self._timer_handles.pop(mote.id, None)
        if handle is not None:
            self.sim.cancel(handle)
        if mote.program.done or not mote.up:
            return
        deadline = mote.program.sched.next_deadline()
        if deadline is None:
            return
        when = max(deadline, self.sim.now)
        self._timer_handles[mote.id] = self.sim.at(
            when, lambda m=mote: self._fire_timer(m))

    def _fire_timer(self, mote: Mote) -> None:
        self._timer_handles.pop(mote.id, None)
        if not mote.up or mote.program.done:
            return
        mote.sync_time()
        self.arm_timer(mote)

    # ------------------------------------------------------- observability
    def stats(self) -> dict:
        """World-level snapshot: DES kernel, the radio's family block
        (``radio_messages_total{outcome}``), and (when ``observe=True``)
        each mote's VM metrics."""
        return {
            "sim": self.sim.stats(),
            "radio": self.metrics.snapshot(),
            "dropped": len(self.dropped),
            "motes": {node_id: mote.program.stats()
                      for node_id, mote in sorted(self.motes.items())},
        }

    # ---------------------------------------------------------------- run
    def run_until(self, time_us: int) -> None:
        for mote in self.motes.values():
            self.arm_timer(mote)
        while True:
            when = self.sim.peek_time()
            if when is None or when > time_us:
                break
            self.sim.step()
        self.sim.now = max(self.sim.now, time_us)
        for mote in self.motes.values():
            if mote.up and not mote.program.done:
                mote.sync_time()
