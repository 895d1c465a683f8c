"""Unit tests of the benchmark's failure accounting.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import signal
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import ops  # noqa: E402


class RunTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "out.log")

    def tearDown(self):
        self.tmp.cleanup()

    def test_success_captures_output_and_rss(self):
        proc = ops.run([sys.executable, "-c", "print('hello')"], self.log, 30)
        self.assertIsNone(proc.problem())
        self.assertIn("hello", proc.stdout)
        self.assertGreater(proc.maxrss_kb, 0)
        self.assertGreater(proc.wall, 0.0)

    def test_exit_code(self):
        proc = ops.run([sys.executable, "-c", "raise SystemExit(3)"],
                       self.log, 30)
        self.assertEqual(proc.problem(), "exit 3")

    def test_signal_death_names_the_signal(self):
        proc = ops.run([sys.executable, "-c",
                        "import os, signal; os.kill(os.getpid(), "
                        "signal.SIGSEGV)"], self.log, 30)
        self.assertEqual(proc.signal, signal.SIGSEGV)
        self.assertEqual(proc.problem(), "signal 11 (SIGSEGV)")

    def test_timeout_kills_the_process_group(self):
        proc = ops.run([sys.executable, "-c", "import time; time.sleep(60)"],
                       self.log, 0.5)
        self.assertEqual(proc.problem(), "timeout")
        self.assertLess(proc.wall, 30)

    def test_wait_all_times_each_process_to_its_own_exit(self):
        slow = ops.Spawned([sys.executable, "-c", "import time; "
                            "time.sleep(1.0)"], self.log + ".slow", 30)
        fast = ops.Spawned([sys.executable, "-c", "pass"],
                           self.log + ".fast", 30)
        slow_proc, fast_proc = ops.wait_all([slow, fast])
        self.assertGreater(slow_proc.wall, 0.9)
        self.assertLess(fast_proc.wall, slow_proc.wall - 0.4)


class LedgerTest(unittest.TestCase):
    def test_every_failure_is_counted(self):
        with tempfile.TemporaryDirectory() as tmp:
            log = os.path.join(tmp, "x.log")
            ledger = ops.Ledger()
            ok = ops.run([sys.executable, "-c", "pass"], log, 30)
            self.assertTrue(ledger.op("ok", ok))
            self.assertFalse(ledger.op("mismatch", ok, mismatch="out.png"))
            ledger.fail("job", "job needed 2 attempts")
            crash = ops.run([sys.executable, "-c",
                             "import os, signal; os.kill(os.getpid(), "
                             "signal.SIGABRT)"], log, 30)
            self.assertFalse(ledger.op("crash", crash))
        self.assertEqual(ledger.attempted, 4)
        self.assertEqual(ledger.failed, 3)
        self.assertEqual(ledger.mismatches, 1)
        self.assertIn("signal 6", ledger.failures[-1])

    def test_selftest_detects_a_crash_and_a_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertIsNone(ops.selftest(tmp))


if __name__ == "__main__":
    unittest.main()
