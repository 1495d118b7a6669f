"""Self-test of the tracer: span bookkeeping, self-time arithmetic, and
putting every wrapped function back; and of the calibration clock.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose; it tests the benchmark,
not loccdist.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import types
import unittest
from pathlib import Path

from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    """Returns 0, 1, 2, ... so every span boundary has a known time."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_fake_package():
    """fakepkg.a defines inner, outer and class C; fakepkg.b re-imports inner."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(inner(x))\n"
        "class C:\n"
        "    def m(self):\n"
        "        return inner(0)\n",
        a.__dict__,
    )
    b.inner = a.inner
    pkg.outer = a.outer
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.modules = make_fake_package()
        sys.modules.update(self.modules)
        self.addCleanup(lambda: [sys.modules.pop(k) for k in self.modules])

    def test_spans_parents_and_self_time(self):
        a, b, pkg = self.modules["fakepkg.a"], self.modules["fakepkg.b"], self.modules["fakepkg"]
        tracer = Tracer(clock=FakeClock())
        tracer.install({"a.outer": None, "a.inner": lambda args, kw, r: r, "a.C.m": None},
                       "fakepkg")
        try:
            tracer.current_unit = 7
            self.assertEqual(pkg.outer(1), 3)  # package-level binding is wrapped too
            tracer.current_unit = 8
            self.assertEqual(a.C().m(), 1)
            self.assertEqual(b.inner(5), 6)  # binding made by re-import
        finally:
            tracer.uninstall()
        names = [tracer.names[i] for i in tracer.name]
        self.assertEqual(names, ["a.outer", "a.inner", "a.inner", "a.C.m", "a.inner", "a.inner"])
        self.assertEqual(list(tracer.parent), [-1, 0, 0, -1, 3, -1])
        self.assertEqual(list(tracer.unit), [7, 7, 7, 8, 8, 8])
        # Clock ticks: outer [0,5] holds inner [1,2] and inner [3,4].
        self.assertEqual(list(tracer.start)[:3], [0.0, 1.0, 3.0])
        self.assertEqual(list(tracer.end)[:3], [5.0, 2.0, 4.0])
        self.assertEqual(tracer.self_times()[:3], [3.0, 1.0, 1.0])
        summary = tracer.summary()
        self.assertEqual(summary["a.inner"]["calls"], 4)
        self.assertEqual(summary["a.outer"]["self_s"], 3.0)
        self.assertEqual(summary["a.C.m"]["total_s"], 3.0)
        self.assertEqual(summary["a.C.m"]["self_s"], 2.0)
        self.assertEqual(tracer.observed["a.inner"], [2, 3, 1, 6])

    def test_self_time_counts_overlap_once_and_clips_to_parent(self):
        tracer = Tracer()
        spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0), (8.0, 12.0, 0)]
        for start, end, parent in spans:
            tracer.name.append(0)
            tracer.start.append(start)
            tracer.end.append(end)
            tracer.parent.append(parent)
            tracer.unit.append(0)
        tracer.names.append("x")
        # Children cover [1, 6] and [8, 10] of the parent: 7 of its 10 seconds.
        self.assertEqual(tracer.self_times(), [3.0, 3.0, 3.0, 4.0])

    def test_uninstall_restores_originals(self):
        a, b, pkg = self.modules["fakepkg.a"], self.modules["fakepkg.b"], self.modules["fakepkg"]
        before = (a.inner, a.outer, b.inner, pkg.outer, a.C.__dict__["m"])
        tracer = Tracer()
        tracer.install({"a.outer": None, "a.inner": None, "a.C.m": None}, "fakepkg")
        self.assertIsNot(b.inner, before[2])
        self.assertIs(b.inner, a.inner)
        tracer.uninstall()
        after = (a.inner, a.outer, b.inner, pkg.outer, a.C.__dict__["m"])
        for x, y in zip(before, after):
            self.assertIs(x, y)
        # outer's global lookup of inner reaches the original again: no spans.
        pkg.outer(0)
        self.assertEqual(len(tracer.start), 0)


class CalibrationTest(unittest.TestCase):
    def test_short_calls_are_sampled_and_left_out_of_the_clock(self):
        import run

        cal = run.Calibration()
        clock0, wall0 = cal.clock(), time.perf_counter()
        for _ in range(40):  # 0.8 s of calls, each shorter than CAL_EVERY_S
            with cal.armed():
                end = time.perf_counter() + 0.02
                while time.perf_counter() < end:
                    pass
        self.assertGreaterEqual(len(cal.slices), 10)
        wall, clock = time.perf_counter() - wall0, cal.clock() - clock0
        self.assertAlmostEqual(wall - clock, sum(cal.slices), delta=1e-4)


class LoccdistTargetsTest(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        sys.path.insert(0, str(SRC))
        import layers
        import loccdist.cli as cli

        def bindings():
            return {
                (name, attr): value
                for name, module in sys.modules.items()
                if name == "loccdist" or name.startswith("loccdist.")
                for attr, value in vars(module).items()
                if callable(value)
            } | {
                ("class", attr): cls.__dict__[attr]
                for cls in (sys.modules["loccdist.separable"].SeparableForm,)
                for attr in ("assemble", "min_term_eigenvalue")
            }

        before = bindings()
        tracer = Tracer()
        tracer.install(layers.TARGETS, "loccdist")
        try:
            during = bindings()
            eig = sys.modules["loccdist.operators"].eig_hermitian
            for key in (("loccdist", "eig_hermitian"), ("loccdist.cli", "eig_hermitian"),
                        ("loccdist.two_way", "eig_hermitian")):
                self.assertIs(during[key], eig)
                self.assertIsNot(during[key], before[key])
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["bounds", "--schmidt", "0.5,0.3,0.2"]), 0)
        finally:
            tracer.uninstall()
        self.assertEqual(bindings(), before)
        names = [tracer.names[i] for i in tracer.name]
        self.assertEqual(names[:4], ["cli.main", "bounds.pure_state_report",
                                     "optimize.beta_two_way_upper",
                                     "two_way.trace_T_closed_form"])
        self.assertEqual(list(tracer.parent)[:4], [-1, 0, 1, 2])


if __name__ == "__main__":
    unittest.main()
