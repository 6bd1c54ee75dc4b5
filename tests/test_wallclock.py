"""Wall-clock driving (PR 9 tentpole, ``repro.runtime.wallclock``).

The load-bearing properties:

* **virtual/real equivalence** — driving a farm through the wall-clock
  loop with a fake clock fires exactly the events a plain
  ``run_until`` fires, in the same order, with the same merged
  counters: the driver changes *when* reactions run, never *what*;
* **speed compression** — ``speed=N`` maps a virtual second onto
  ``1/N`` real seconds;
* **responsiveness** — ``stop()`` is honoured at the next bounded
  sleep slice, and ``drain()`` aligns every instance for a final
  snapshot.
"""

import threading
import time

from repro.obs.fleet import sample
from repro.runtime.farm import Farm
from repro.runtime.wallclock import WallClockDriver

TICKER = """
loop do
   await 250ms;
end
"""


class FakeClock:
    """A clock that only moves when someone sleeps on it."""

    def __init__(self):
        self.t = 0.0
        self.sleeps = 0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps += 1
        self.t += seconds


def _driver(farm, **kw) -> tuple[WallClockDriver, FakeClock]:
    clock = FakeClock()
    kw.setdefault("speed", 1.0)
    return WallClockDriver(farm, clock=clock, sleep=clock.sleep,
                           **kw), clock


class TestVirtualRealEquivalence:
    def test_same_reactions_as_run_until(self):
        wall = Farm(TICKER, n=7, program="tick")
        WallClockDriver(wall, clock=(c := FakeClock()),
                        sleep=c.sleep).run(until_us=2_000_000)
        virt = Farm(TICKER, n=7, program="tick")
        virt.run_until(2_000_000)
        wall_snap = wall.fleet_snapshot()["families"]
        virt_snap = virt.fleet_snapshot()["families"]
        for name in ("reactions_total", "timers_fired_total"):
            assert sample(wall_snap, name) == sample(virt_snap, name)

    def test_until_is_exact_not_overshot(self):
        farm = Farm(TICKER, n=1, program="tick")
        driver, _ = _driver(farm)
        driver.run(until_us=1_000_000)
        driver.drain(until_us=1_000_000)
        # 4 ticks at 250ms fit in 1s; the 5th (at 1.25s) must not fire
        assert farm.sim.now == 1_000_000
        families = farm.fleet_snapshot()["families"]
        assert sample(families, "timers_fired_total") == 4

    def test_real_elapsed_matches_speed(self):
        farm = Farm(TICKER, n=1, program="tick")
        driver, clock = _driver(farm, speed=10.0)
        driver.run(until_us=5_000_000)       # 5 virtual s at 10x
        assert 0.5 <= clock.t < 0.6          # ~0.5 real s

    def test_epoch_anchors_resumed_runs(self):
        farm = Farm(TICKER, n=1, program="tick")
        driver, clock = _driver(farm)
        driver.run(until_us=500_000)
        t_mid = clock.t
        driver.run(until_us=1_000_000)
        # second leg re-anchors at sim.now, so it only sleeps the
        # remaining half second, not a full one
        assert 0.48 <= clock.t - t_mid <= 0.62


class TestControl:
    def test_stop_breaks_an_idle_loop(self):
        farm = Farm("input void GO;\nawait GO;", n=1, program="idle")
        driver = WallClockDriver(farm, slice_s=0.01)
        thread = threading.Thread(target=driver.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5
        while not driver.running and time.monotonic() < deadline:
            time.sleep(0.005)
        driver.stop()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert not driver.running

    def test_drain_aligns_the_fleet(self):
        farm = Farm(TICKER, n=3, program="tick")
        driver, _ = _driver(farm)
        driver.run(until_us=990_000)
        t = driver.drain(until_us=990_000)
        assert t == 990_000
        assert all(inst.program.sched.clock == inst.local(990_000)
                   for inst in farm.instances)

    def test_snapshot_carries_wallclock_block(self):
        farm = Farm(TICKER, n=2, program="tick")
        driver, _ = _driver(farm, speed=4.0)
        snap = driver.snapshot()
        assert snap["wallclock"]["speed"] == 4.0
        assert snap["wallclock"]["running"] is False
        assert "watchdog" in snap
        assert sample(snap["families"], "reactions_total") == 2

    def test_speed_must_be_positive(self):
        farm = Farm(TICKER, n=1, program="tick")
        try:
            WallClockDriver(farm, speed=0)
        except ValueError:
            pass
        else:
            raise AssertionError("speed=0 accepted")

    def test_sleep_slices_are_bounded(self):
        farm = Farm(TICKER, n=1, program="tick")
        driver, clock = _driver(farm, slice_s=0.02)
        driver.run(until_us=250_000)
        assert clock.sleeps >= 12            # 0.25s / 0.02s slices
