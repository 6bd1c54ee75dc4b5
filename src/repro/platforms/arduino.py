"""Simulated Arduino platform (§3.2).

The paper's second demo programs "bare metal": a two-row LCD, analog-read
push buttons, and wall-clock time.  The binding surface:

* ``_analogRead(pin)`` — scripted analog levels over time;
* ``_lcd`` — a 2×16 character LCD object (``setCursor``/``write``/
  ``print``/``clear``) whose frames are recorded for assertions;
* ``_digitalWrite/_digitalRead`` — pin registers (used by the blink demo);
* ``run_for(duration)`` — drive the program's wall-clock from the board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..runtime import CEnv, Program
from ..runtime.program import parse_time

LCD_COLS = 16
LCD_ROWS = 2


class Lcd:
    """A 2×16 text LCD; every write snapshots a frame."""

    def __init__(self) -> None:
        self.rows = [[" "] * LCD_COLS for _ in range(LCD_ROWS)]
        self.col = 0
        self.row = 0
        self.frames: list[tuple[int, str]] = []
        self._clock: Callable[[], int] = lambda: 0

    def bind_clock(self, fn: Callable[[], int]) -> None:
        self._clock = fn

    def setCursor(self, col: int, row: int) -> int:
        self.col = max(0, min(LCD_COLS - 1, col))
        self.row = max(0, min(LCD_ROWS - 1, row))
        return 0

    def write(self, ch: Union[int, str]) -> int:
        text = chr(ch) if isinstance(ch, int) else str(ch)
        for c in text:
            self.rows[self.row][self.col] = c
            self.col = min(LCD_COLS - 1, self.col + 1)
        self._snapshot()
        return 0

    def print(self, value) -> int:
        return self.write(str(value))

    def clear(self) -> int:
        self.rows = [[" "] * LCD_COLS for _ in range(LCD_ROWS)]
        self.col = self.row = 0
        self._snapshot()
        return 0

    def _snapshot(self) -> None:
        self.frames.append((self._clock(), self.screen()))

    def screen(self) -> str:
        return "\n".join("".join(row) for row in self.rows)


@dataclass
class AnalogScript:
    """Analog level of one pin as a step function of time."""

    steps: list[tuple[int, int]] = field(default_factory=list)  # (t, level)
    default: int = 1023

    def at(self, t: int) -> int:
        level = self.default
        for when, value in self.steps:
            if when <= t:
                level = value
            else:
                break
        return level


class ArduinoBoard:
    """A board hosting one Céu program."""

    def __init__(self, source: str, extra_env: Optional[dict] = None,
                 trace: bool = False, observe: bool = False):
        self.lcd = Lcd()
        self.analog: dict[int, AnalogScript] = {}
        self.pins: dict[int, int] = {}
        self.pin_history: list[tuple[int, int, int]] = []  # (t, pin, value)
        cenv = CEnv()
        cenv.define_many({
            "lcd": self.lcd,
            "analogRead": self._analog_read,
            "digitalWrite": self._digital_write,
            "digitalRead": lambda pin: self.pins.get(pin, 0),
            "HIGH": 1,
            "LOW": 0,
            "millis": lambda: self.program.clock // 1000,
        })
        if extra_env:
            cenv.define_many(extra_env)
        self.program = Program(source, cenv=cenv, trace=trace,
                               observe=observe, filename="arduino.ceu")
        self.lcd.bind_clock(lambda: self.program.clock)

    # ----------------------------------------------------------- bindings
    def _analog_read(self, pin: int) -> int:
        script = self.analog.get(pin)
        if script is None:
            return 1023
        return script.at(self.program.clock)

    def _digital_write(self, pin: int, value: int) -> int:
        self.pins[pin] = value
        self.pin_history.append((self.program.clock, pin, value))
        return 0

    # ------------------------------------------------------------ control
    def script_analog(self, pin: int, steps: list[tuple[Union[int, str], int]],
                      default: int = 1023) -> None:
        """Program pin levels: ``steps`` are (time, level) pairs."""
        normal = sorted((parse_time(t), v) for t, v in steps)
        self.analog[pin] = AnalogScript(normal, default)

    def boot(self) -> None:
        self.program.start()

    def run_for(self, duration: Union[int, str],
                tick: Union[int, str] = "10ms") -> None:
        """Advance wall-clock in ``tick`` steps (so scripted analog edges
        land between reactions, like a sampled real board)."""
        total = parse_time(duration)
        step = max(1, parse_time(tick))
        end = self.program.clock + total
        while self.program.clock < end and not self.program.done:
            nxt = min(end, self.program.clock + step)
            self.program.at(nxt)

    def stats(self) -> dict:
        """Board snapshot: VM metrics plus board-side activity."""
        stats = self.program.stats()
        stats["board"] = {
            "lcd_frames": len(self.lcd.frames),
            "pin_writes": len(self.pin_history),
        }
        return stats
