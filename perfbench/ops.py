"""Running the program's processes and accounting for every operation.

run() spawns one process in its own process group, waits for it with
wait4() so its peak RSS (ru_maxrss, which covers the descendants it reaped)
is known, and kills the whole group when it outlives its timeout. The
Ledger counts every operation the benchmark attempts and why any failed:
a non-zero exit, a death by signal (with its number), a timeout, a daemon
retry or failed job, or output bytes that differ from the reference.
"""

import hashlib
import os
import signal
import sys
import threading
import time


class Proc:
    """Outcome of one process: wall seconds, exit code or signal, peak RSS
    in KiB (Linux ru_maxrss)."""

    def __init__(self, argv, start, wall, status, maxrss_kb, timed_out,
                 stdout):
        self.argv = argv
        self.start = start  # time.monotonic() at spawn
        self.wall = wall
        self.exit_code = (os.WEXITSTATUS(status) if os.WIFEXITED(status)
                          else None)
        self.signal = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out
        self.stdout = stdout

    def problem(self):
        """Why the process failed, or None."""
        if self.timed_out:
            return "timeout"
        if self.signal is not None:
            return "signal %d (%s)" % (self.signal,
                                       signal.Signals(self.signal).name)
        if self.exit_code != 0:
            return "exit %d" % self.exit_code
        return None


LIVE = {}  # pid -> Spawned, for every started process not yet reaped


def kill_all():
    """Kills and reaps every process group still running (on SIGTERM)."""
    for pid in list(LIVE):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        LIVE.pop(pid, None)


class Spawned:
    """A started process; wait() reaps it and returns its Proc."""

    def __init__(self, argv, log_path, timeout, env=None):
        self.argv = argv
        self.log_path = log_path
        fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            self.start = time.monotonic()
            self.pid = os.posix_spawn(
                argv[0], argv, os.environ if env is None else env,
                file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                              (os.POSIX_SPAWN_DUP2, fd, 2)],
                setpgroup=0)
        finally:
            os.close(fd)
        LIVE[self.pid] = self
        self.fired = threading.Event()
        self.timer = threading.Timer(timeout, self._kill_group)
        self.timer.daemon = True
        self.timer.start()

    def _kill_group(self):
        self.fired.set()
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self):
        _, status, usage = os.wait4(self.pid, 0)
        return self.reaped(status, usage)

    def reaped(self, status, usage):
        """Builds the Proc of this process, which wait4() just reaped."""
        wall = time.monotonic() - self.start
        LIVE.pop(self.pid, None)
        self.timer.cancel()
        # Nothing the process started may outlive it (attackd's workers).
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        with open(self.log_path, "r", errors="replace") as f:
            out = f.read()
        return Proc(self.argv, self.start, wall, status, usage.ru_maxrss,
                    self.fired.is_set(), out)


def wait_all(started):
    """Reaps concurrently started processes in the order they exit, so each
    Proc's wall time ends at its own exit, not when it was waited for.
    Returns the Procs in the order of `started`."""
    by_pid = {p.pid: p for p in started}
    done = {}
    while len(done) < len(started):
        pid, status, usage = os.wait4(-1, 0)
        if pid in by_pid:
            done[pid] = by_pid[pid].reaped(status, usage)
    return [done[p.pid] for p in started]


def run(argv, log_path, timeout, env=None):
    """Runs argv to completion; stdout and stderr go to log_path."""
    return Spawned(argv, log_path, timeout, env).wait()


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.mismatches = 0
        self.maxrss_kb = 0

    @property
    def failed(self):
        return len(self.failures)

    def saw(self, proc):
        """Folds a process's peak RSS in without counting an operation."""
        self.maxrss_kb = max(self.maxrss_kb, proc.maxrss_kb)

    def fail(self, what, reason):
        """Counts one operation that failed for `reason`."""
        self.attempted += 1
        self.failures.append("%s: %s" % (what, reason))

    def op(self, what, proc=None, mismatch=None):
        """Counts one operation. It fails when proc failed or when mismatch
        names an output that differs from its reference. Returns True when
        the operation succeeded."""
        self.attempted += 1
        problem = None
        if proc is not None:
            self.saw(proc)
            problem = proc.problem()
        if problem is None and mismatch:
            problem = "output differs from reference: %s" % mismatch
            self.mismatches += 1
        if problem is not None:
            self.failures.append("%s: %s" % (what, problem))
            return False
        return True


def selftest(tmpdir):
    """Feeds the accounting one command that segfaults and one whose output
    differs from its reference; both must be counted as failures with the
    right reason. Returns None when they are, else what went wrong."""
    ledger = Ledger()
    crash = run([sys.executable, "-c",
                 "import os, signal; os.kill(os.getpid(), signal.SIGSEGV)"],
                os.path.join(tmpdir, "selftest_crash.log"), 30)
    ledger.op("crash", crash)
    out = os.path.join(tmpdir, "selftest_out.txt")
    wrong = run([sys.executable, "-c",
                 "open(%r, 'w').write('mismatch')" % out],
                os.path.join(tmpdir, "selftest_wrong.log"), 30)
    expected = hashlib.sha256(b"reference").hexdigest()
    ledger.op("wrong", wrong,
              mismatch=None if digest(out) == expected else out)
    reasons = ledger.failures
    if (ledger.attempted != 2 or len(reasons) != 2
            or "signal %d" % signal.SIGSEGV not in reasons[0]
            or "differs from reference" not in reasons[1]):
        return "failure accounting self-test failed: %r" % reasons
    return None
