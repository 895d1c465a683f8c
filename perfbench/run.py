#!/usr/bin/env python3
"""End-to-end benchmark of `backbuster attack` and `attackd`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run builds the program and the
benchmark helper into .bench_build/ (once per checkout), generates the
workload's inputs from the seed, runs the real backbuster / attackctl /
attackd binaries on them for S seconds with tracing off (--trace 0), checks
every output against its reference, and prints each end-to-end metric by
name. With --trace 1 the same inputs go through the traced in-process
mirror (bbperf attack/reduce, also used as attackd's worker binary) and the
run prints the per-layer metrics instead. BENCHMARK.json lists both sets
and says why each workload exists. The last line of stdout is one JSON
object; a full report lands in .bench_run/<workload>-seed<N>-trace<T>/.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ops  # noqa: E402
import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
NPROC = len(os.sched_getaffinity(0))
OP_TIMEOUT = 150  # seconds, for any one process
FPS = 12  # frames per second of every generated call (simulate's default)
SETUP_REPEATS = 3
SHARDS = 3


class Call:
    """One generated call: `bbperf gen --call` fields."""

    def __init__(self, name, action, participant, scene, seconds):
        self.name = name
        self.action = action
        self.participant = participant
        self.scene = scene
        self.seconds = seconds
        self.frames = int(round(seconds * FPS))

    def spec(self, directory):
        # The call is byte-identical to `backbuster simulate --action A
        # --participant P --scene-seed S --duration SECONDS`.
        return "%s,%s,%d,%d,%g" % (
            os.path.join(directory, self.name + ".bbv"), self.action,
            self.participant, self.scene, self.seconds)


# What each workload runs. The calls' content is fixed per workload, on
# simulate's defaults (scene 1, participant 0, arm_wave) where a workload
# has one call: recovered background and location rank depend on content
# so much (verified RBRR 0.6-13% and true rank 1-165 across 4 s calls that
# differ only in noise and caller) that seeded content would swamp every
# quality and time metric with input variance. --seed instead permutes
# what the program sees without changing the work: the order of the
# --locate candidates (which steers the pruned location search), the order
# in which jobs are queued, and the order of the timed samples.
WORKLOADS = {
    "attack_long": dict(
        calls=[Call("long", "arm_wave", 0, 1, 12)], stream=True, vb=None),
    "daemon_queue": dict(
        calls=[Call("q%d" % i, a, i, i + 1, 8) for i, a in enumerate(
            ["arm_wave", "clap", "stretch", "exit_enter"])],
        stream=True, vb=None),
    "locate_batch": dict(
        calls=[Call("short", "arm_wave", 0, 1, 4)], stream=False, vb="beach"),
}

RBRR_RE = re.compile(r"^verified RBRR ([0-9.]+)%", re.M)
WROTE_RE = re.compile(r"^wrote (\S+\.(?:png|ppm))$", re.M)
RANK_RE = re.compile(r"^  (\d+)\. (\S+)  score ([0-9.]+)$", re.M)
DAEMON_RE = re.compile(
    r"attackd: (\d+) admitted, (\d+) refused, (\d+) done, (\d+) failed, "
    r"(\d+) requeued, (\d+) retries, (\d+) timeouts, (\d+) workers")

END_TO_END = [
    ("setup_s", "s"), ("attack_fps_1t", "frames/s"),
    ("attack_fps_nt", "frames/s"), ("jobs_per_min", "jobs/min"),
    ("job_run_s_p50", "s"), ("peak_rss_mb", "MB"),
    ("rbrr_verified", "fraction"), ("locate_true_rank", "rank"),
    ("ok_share", "fraction"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build and host ---------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "apps/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("%s not found: run from a backbuster checkout"
                             % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append([cmake, "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append([cmake, "--build", BUILD_DIR, "-j", str(NPROC), "--target",
                  "backbuster", "attackd", "attackctl", "bbperf"])
    for argv in steps:
        proc = ops.run(argv, build_log, 1500)
        if proc.problem():
            raise BenchError("build step failed (%s): %s\n%s" % (
                proc.problem(), " ".join(argv), proc.stdout[-4000:]))
    bins = {
        "backbuster": os.path.join(BUILD_DIR, "bb", "apps", "backbuster"),
        "attackd": os.path.join(BUILD_DIR, "bb", "apps", "attackd"),
        "attackctl": os.path.join(BUILD_DIR, "bb", "apps", "attackctl"),
        "bbperf": os.path.join(BUILD_DIR, "bbperf"),
    }
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no %s" % path)
    return bins


def source_digest():
    """Digest of the sources the build reads, which stands in for the
    commit when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for sub in ("src", "apps", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, sub)):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def fingerprint():
    cache = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = {}
    for path in glob.glob(os.path.join(BUILD_DIR, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            compiler = dict(re.findall(
                r'set\(CMAKE_CXX_COMPILER(_ID|_VERSION) "([^"]*)"\)',
                f.read()))
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    return {
        "nproc": NPROC,
        "compiler": "%s %s" % (compiler.get("_ID", "unknown"),
                               compiler.get("_VERSION", "unknown")),
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "git_commit": commit or "none, sources %s" % source_digest(),
        "BB_KERNEL": os.environ.get("BB_KERNEL", "unset"),
        "BB_THREADS": os.environ.get("BB_THREADS", "unset"),
    }


def calibrate():
    """Seconds for a fixed pure-Python loop: a host-speed probe that is
    reported next to the metrics, never used to adjust them."""
    start = time.monotonic()
    acc = 0
    for i in range(400000):
        acc = (acc * 31 + i) % 1000003
    return time.monotonic() - start


# ---- inputs -----------------------------------------------------------------

def plan_inputs(workload, seed, dict_size):
    """The seeded permutations: candidate order for --locate, queue order
    of the calls, and which thread count leads."""
    rng = random.Random("%s:%d" % (workload, seed))
    order = list(range(dict_size))
    rng.shuffle(order)
    queue = list(WORKLOADS[workload]["calls"])
    rng.shuffle(queue)
    return order, queue, rng.random() < 0.5


class Inputs:
    """The generated files of one workload, in directory `root`."""

    def __init__(self, root, calls, order, queue, nt_first):
        self.root = root
        self.calls = calls
        self.queue = queue
        self.nt_first = nt_first
        # Candidate i of the --locate list is dictionary entry order[i];
        # the true background of call k is dictionary entry k.
        self.candidates = [os.path.join(root, "dict", "cand_%03d.ppm" % j)
                           for j in order]

    def bbv(self, call):
        return os.path.join(self.root, call.name + ".bbv")

    def truth(self, call):
        return os.path.join(self.root, call.name + ".bbv.truth.ppm")

    def truth_candidate(self, k):
        return os.path.join(self.root, "dict", "cand_%03d.ppm" % k)


def tree_digests(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            path = os.path.join(dirpath, n)
            out[os.path.relpath(path, root)] = ops.digest(path)
    return out


# ---- the benchmark run ------------------------------------------------------

class Run:
    def __init__(self, args, bins, work):
        self.args = args
        self.bins = bins
        self.work = work
        self.cfg = WORKLOADS[args.workload]
        self.ledger = ops.Ledger()
        self.incorrect = []  # reasons the run's outputs cannot be trusted
        self.report = {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace}
        self.serial = 0
        self.refs = {}       # call name -> reference output digests
        self.ref_ranking = {}
        self.unchecked = []  # drained jobs awaiting settle()
        self.spans_dir = os.path.join(work, "spans")
        os.makedirs(os.path.join(work, "logs"))
        os.makedirs(os.path.join(work, "out"))
        os.makedirs(self.spans_dir)

    def tag(self, what):
        self.serial += 1
        return "%03d-%s" % (self.serial, what)

    def spawn(self, argv, tag, env=None):
        return ops.run(argv, os.path.join(self.work, "logs", tag + ".log"),
                       OP_TIMEOUT, env)

    def traced_env(self):
        env = dict(os.environ)
        env["PERFBENCH_SPANS_DIR"] = self.spans_dir
        return env

    # -- set-up --

    def setup(self):
        calls = self.cfg["calls"]
        # Each repeat is one single-threaded generator process; the repeats
        # run side by side (at most nproc - 1 at once) and must agree byte
        # for byte. Repeat 0's files are the workload's inputs.
        repeats = []
        for r in range(SETUP_REPEATS):
            root = os.path.join(self.work, "inputs%d" % r)
            os.makedirs(os.path.join(root, "dict"))
            argv = [self.bins["bbperf"], "gen"]
            for c in calls:
                argv += ["--call", c.spec(root)]
            truths = [os.path.join(root, c.name + ".bbv.truth.ppm")
                      for c in calls]
            argv += ["--dict", ",".join([os.path.join(root, "dict")] + truths)]
            repeats.append((root, argv))
        times = []
        parallel = max(1, min(SETUP_REPEATS, NPROC - 1))
        for i in range(0, SETUP_REPEATS, parallel):
            batch = repeats[i:i + parallel]
            procs = self.spawn_batch(batch, trace_first=(i == 0))
            for (root, _), proc in zip(batch, procs):
                self.ledger.op("setup " + os.path.basename(root), proc)
                times.append(proc.wall)
        digests = [tree_digests(root) for root, _ in repeats]
        if any(d != digests[0] for d in digests[1:]):
            self.incorrect.append("set-up repeats generated different bytes")
        self.report["input_digests"] = digests[0]
        self.report["setup_s_samples"] = times
        # Peak RSS covers the program's operations, not input generation.
        self.ledger.maxrss_kb = 0
        for root, _ in repeats[1:]:
            shutil.rmtree(root)
        root = repeats[0][0]
        order, queue, nt_first = plan_inputs(
            self.args.workload, self.args.seed,
            len(os.listdir(os.path.join(root, "dict"))))
        return Inputs(root, calls, order, queue, nt_first), times

    def spawn_batch(self, batch, trace_first):
        """Runs the generator processes of `batch` concurrently."""
        started = []
        for k, (root, argv) in enumerate(batch):
            env = self.traced_env() if (trace_first and k == 0
                                        and self.args.trace) else None
            started.append(ops.Spawned(argv, os.path.join(
                self.work, "logs", "setup-%s.log" % os.path.basename(root)),
                OP_TIMEOUT, env))
        return ops.wait_all(started)

    # -- operations --

    def attack(self, inputs, call, threads, binary="backbuster", locate=None,
               env=None):
        """One attack process on `call`; returns (proc, ok, rbrr, ranking)
        after checking its outputs against the call's reference (the first
        attack of the call sets it)."""
        if locate is None:
            locate = self.args.workload == "locate_batch"
        tag = self.tag("%s-%s-%dt" % (binary, call.name, threads))
        out_base = os.path.join(self.work, "out", tag)
        argv = [self.bins[binary], "attack", "--in", inputs.bbv(call),
                "--truth", inputs.truth(call), "--out", out_base,
                "--threads", str(threads)]
        if self.cfg["stream"]:
            argv.append("--stream")
        if self.cfg["vb"]:
            argv += ["--vb", self.cfg["vb"]]
        if locate:
            argv += ["--locate", ",".join(inputs.candidates)]
        proc = self.spawn(argv, tag, env)
        outputs = [ops.digest(p) for p in WROTE_RE.findall(proc.stdout)
                   if os.path.exists(p)]
        m = RBRR_RE.search(proc.stdout)
        rbrr = float(m.group(1)) / 100.0 if m else None
        ranking = RANK_RE.findall(proc.stdout)
        for p in WROTE_RE.findall(proc.stdout):
            if os.path.exists(p):
                os.remove(p)
        mismatch = None
        if proc.problem() is None:
            if len(outputs) != 2 or rbrr is None:
                mismatch = "%s printed no reconstruction or RBRR" % tag
            else:
                ref = self.refs.setdefault(call.name, outputs)
                if outputs != ref:
                    mismatch = "%s reconstruction" % tag
                if locate:
                    want = self.ref_ranking.setdefault(call.name, ranking)
                    if ranking != want or len(ranking) != len(
                            inputs.candidates):
                        mismatch = "%s location ranking" % tag
        ok = self.ledger.op(tag, proc, mismatch)
        return proc, ok, rbrr, ranking

    def true_rank(self, inputs, k, ranking):
        want = inputs.truth_candidate(k)
        for pos, path, _ in ranking:
            if path == want:
                return int(pos)
        return len(inputs.candidates) + 1

    def settle(self):
        """Checks the merged outputs of drained jobs against the direct
        attacks of the same calls, once those references exist."""
        for what, name, outputs in self.unchecked:
            self.ledger.op(what, None,
                           None if outputs == self.refs.get(name) else what)
        self.unchecked = []

    def drain(self, inputs, calls, worker_bin=None, env=None):
        """Submits `calls` as 3-shard 1-thread jobs to a fresh spool and
        drains it with one attackd; returns (drain proc, jobs done, per-job
        run seconds, status json). The run seconds are left empty when a
        job failed, since its time would land on the next job. Jobs that
        finished wait in self.unchecked for settle()."""
        tag = self.tag("drain")
        spool = os.path.join(self.work, "out", tag)
        for c in calls:
            argv = [self.bins["attackctl"], "submit", "--spool", spool,
                    "--in", inputs.bbv(c), "--out",
                    os.path.join(spool, "result-" + c.name),
                    "--shards", str(SHARDS), "--threads", "1"]
            if self.cfg["vb"]:
                argv += ["--vb", self.cfg["vb"]]
            proc = self.spawn(argv, self.tag("submit-" + c.name))
            self.ledger.saw(proc)
            if proc.problem():
                self.ledger.op("submit " + c.name, proc)
                return None, 0, [], None
        argv = [self.bins["attackd"], "--spool", spool, "--max-workers",
                str(SHARDS), "--drain-once"]
        if worker_bin:
            argv += ["--worker-bin", self.bins[worker_bin]]
        start_wall = time.time()
        proc = self.spawn(argv, tag, env)
        self.ledger.saw(proc)
        status_proc = self.spawn([self.bins["attackctl"], "status", "--spool",
                                  spool, "--json"], self.tag("status"))
        try:
            status = json.loads(status_proc.stdout)
        except ValueError:
            status = {"jobs": []}
        jobs = {j.get("output"): j for j in status.get("jobs", [])}
        m = DAEMON_RE.search(proc.stdout)
        counts = [int(x) for x in m.groups()] if m else None
        done_times = sorted(os.stat(p).st_mtime_ns / 1e9 for p in glob.glob(
            os.path.join(spool, "done", "*.bbjb")))
        runs = [t - prev for prev, t in zip([start_wall] + done_times[:-1],
                                            done_times)]
        clean = True
        for c in calls:
            base = os.path.join(spool, "result-" + c.name)
            job = jobs.get(base, {})
            outputs = [ops.digest(base + ext) for ext in
                       (".png", ".coverage.png", ".ppm", ".coverage.ppm")
                       if os.path.exists(base + ext)]
            failure = proc.problem()
            if failure is None:
                if job.get("dir") != "done":
                    failure = "job ended in %s: %s" % (
                        job.get("dir"), job.get("final_reason", ""))
                elif job.get("attempts") != 1:
                    failure = "job needed %s attempts" % job.get("attempts")
            if failure is not None:
                self.ledger.fail("%s job %s" % (tag, c.name), failure)
                clean = False
            else:
                self.unchecked.append(("%s job %s" % (tag, c.name), c.name,
                                       outputs))
        self.report.setdefault("daemon_stats", []).append(counts)
        return proc, len(done_times), runs if clean else [], status

    # -- workloads --

    def references(self, inputs):
        """One untraced 1-thread attack per call: the byte reference every
        other operation on that call must reproduce."""
        for c in inputs.calls:
            self.attack(inputs, c, 1)

    def measure(self, inputs):
        """Tracing off: rounds of direct attacks and attackd drains until
        the time is up, then the location attack for the true rank."""
        walls = {1: [], NPROC: []}
        rbrr = {}
        drain_walls, jobs_per_min, job_runs = [], [], []
        lead = [NPROC, 1] if inputs.nt_first else [1, NPROC]

        def direct(call, threads):
            proc, ok, r, _ = self.attack(inputs, call, threads)
            if ok:
                walls[threads].append(proc.wall)
                rbrr[call.name] = r

        def queue():
            proc, done, runs, _ = self.drain(inputs, inputs.queue)
            if proc is not None and proc.problem() is None:
                drain_walls.append(proc.wall)
                jobs_per_min.append(60.0 * done / proc.wall)
                job_runs.extend(runs)

        t0 = time.monotonic()
        rnd = 0
        while True:
            # Every round takes one sample of each timing, so slow phases
            # of the host hit all metrics alike; the leading thread count
            # alternates.
            if self.args.workload == "daemon_queue":
                # One direct 1-thread attack per call in all - the
                # references the drained jobs must reproduce - spread over
                # the rounds; the nproc-thread samples all take the first
                # call, so every run times the same content.
                if rnd < len(inputs.calls):
                    direct(inputs.calls[rnd], 1)
                direct(inputs.calls[0], NPROC)
                queue()
            else:
                for c in inputs.calls:
                    for t in (lead if rnd % 2 == 0 else lead[::-1]):
                        direct(c, t)
                queue()
            rnd += 1
            if time.monotonic() - t0 >= self.args.seconds:
                break
        if self.args.workload == "daemon_queue":
            for c in inputs.calls[rnd:]:
                direct(c, 1)
        self.settle()
        if self.args.workload == "locate_batch":
            ranks = [self.true_rank(inputs, k, self.ref_ranking.get(c.name, []))
                     for k, c in enumerate(inputs.calls)]
        else:
            # The location attack on the workload's first call.
            _, _, _, ranking = self.attack(inputs, inputs.calls[0], NPROC,
                                           locate=True)
            ranks = [self.true_rank(inputs, 0, ranking)]
        return {
            "walls_1t": walls[1], "walls_nt": walls[NPROC],
            "jobs_per_min": jobs_per_min,
            "drain_s": drain_walls, "job_run_s": job_runs,
            "rbrr": [rbrr[c.name] for c in inputs.calls if c.name in rbrr],
            "ranks": ranks,
        }


# ---- per-layer metrics from spans -------------------------------------------

# Per-layer metrics of one traced round: self times and counts summed over
# the round's 1-thread operations (every call of the workload; for
# daemon_queue every worker process of one drain), busy shares from one
# nproc-thread attack, set-up times from input generation. Times are
# medians over the rounds of the run.
PER_LAYER = [
    ("video.decode_s", "s"), ("video.frames_decoded", "count"),
    ("video.decode_reuse", "ratio"), ("core.vb_derive_s", "s"),
    ("segmentation.analysis_s", "s"), ("segmentation.segment_s", "s"),
    ("segmentation.segment_calls", "count"),
    ("segmentation.segment_reuse", "ratio"), ("core.caller_prepare_s", "s"),
    ("core.decompose_s", "s"), ("core.finalize_s", "s"),
    ("core.frames_decomposed", "count"), ("core.window_flushes", "count"),
    ("core.peak_window_frames", "count"), ("core.pool_misses", "count"),
    ("parallel.decompose_busy", "share"), ("parallel.caller_busy", "share"),
    ("core.locate_s", "s"), ("core.locate_candidates", "count"),
    ("core.locate_shifts_abandoned", "count"),
    ("core.checkpoint_writes", "count"), ("core.checkpoint_bytes", "bytes"),
    ("core.partial_bytes", "bytes"), ("core.partial_save_s", "s"),
    ("core.partial_load_s", "s"), ("core.reduce_s", "s"),
    ("service.queue_wait_s", "s"), ("service.shard_worker_s", "s"),
    ("service.reduce_worker_s", "s"), ("service.supervise_s", "s"),
    ("service.workers_spawned", "count"), ("service.retries", "count"),
    ("service.first_attempt_ratio", "ratio"), ("imaging.read_s", "s"),
    ("imaging.write_s", "s"), ("synth.record_s", "s"),
    ("synth.dictionary_s", "s"), ("vbg.composite_s", "s"),
    ("video.write_s", "s"), ("trace.coverage", "share"),
    ("trace.overhead_share", "share"),
]

# Span name -> per-layer self-time metric.
SELF_TIME = {
    "video.decode": "video.decode_s", "video.open": "video.decode_s",
    "core.vb_derive": "core.vb_derive_s",
    "segmentation.analysis": "segmentation.analysis_s",
    "segmentation.segment": "segmentation.segment_s",
    "core.caller_prepare": "core.caller_prepare_s",
    "core.decompose": "core.decompose_s", "core.finalize": "core.finalize_s",
    "core.locate": "core.locate_s", "core.partial_save": "core.partial_save_s",
    "core.partial_load": "core.partial_load_s", "core.reduce": "core.reduce_s",
    "imaging.read": "imaging.read_s", "imaging.write": "imaging.write_s",
    "synth.record": "synth.record_s", "synth.dictionary": "synth.dictionary_s",
    "vbg.composite": "vbg.composite_s", "video.write": "video.write_s",
}
COUNTERS = {
    "video.frames_decoded": "video.frames_decoded",
    "segmentation.segment_calls": "segmentation.segment_calls",
    "core.frames_decomposed": "core.frames_decomposed",
    "core.window_flushes": "core.window_flushes",
    "core.pool_misses": "core.pool_misses",
    "core.locate_candidates": "core.locate_candidates",
    "bbtrace.location.shifts_abandoned": "core.locate_shifts_abandoned",
    "core.checkpoint_writes": "core.checkpoint_writes",
    "core.checkpoint_bytes": "core.checkpoint_bytes",
    "core.partial_bytes": "core.partial_bytes",
}


def load_spans(paths):
    """Reads span files; returns a list of (process record, spans)."""
    out = []
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        spans = [dict(id=s[0], parent=s[1], name=s[2], start=s[3], end=s[4],
                      cpu=s[6] - s[5]) for s in rec["spans"]]
        out.append((rec, spans))
    return out


def fold_processes(procs, into):
    """Adds self times and counters of traced processes into `into`."""
    for rec, spans in procs:
        for name, secs in stats.self_time_by_name(spans).items():
            if name in SELF_TIME:
                into[SELF_TIME[name]] = into.get(SELF_TIME[name], 0.0) + secs
        for name, value in rec["counters"].items():
            if name in COUNTERS:
                into[COUNTERS[name]] = into.get(COUNTERS[name], 0.0) + value
        peak = rec["counters"].get("core.peak_window_frames", 0)
        into["core.peak_window_frames"] = max(
            into.get("core.peak_window_frames", 0), peak)


def root_of(spans):
    return next(s for s in spans if s["parent"] < 0
                and s["name"].startswith("bbperf."))


def new_span_files(spans_dir, seen):
    files = sorted(set(glob.glob(os.path.join(spans_dir, "*.json"))) - seen)
    seen.update(files)
    return files


def traced(run, inputs, setup_files):
    """Tracing on: rounds of traced operations, each paired with the same
    operation untraced (the byte reference and the overhead baseline),
    until the time is up. Returns the per-layer metrics (medians over
    rounds for times and shares, first round for counts)."""
    seen = set(setup_files)
    t0 = time.monotonic()
    setup_layers = {}
    fold_processes(load_spans(setup_files), setup_layers)
    daemon = run.args.workload == "daemon_queue"
    untraced_drain = None
    if daemon:
        # A drain is too long to pair every round: one untraced drain,
        # after the direct attacks its jobs must reproduce.
        run.references(inputs)
        proc, _, _, _ = run.drain(inputs, inputs.queue)
        run.settle()
        untraced_drain = proc.wall if proc and not proc.problem() else None
    env = run.traced_env()
    rounds = []
    while True:
        m = {}
        traced_wall = untraced_wall = 0.0
        if daemon:
            proc, _, _, status = run.drain(inputs, inputs.queue,
                                           worker_bin="bbperf", env=env)
            run.settle()
            start = proc.start if proc else 0.0
            end = start + (proc.wall if proc else 0.0)
            procs = load_spans(new_span_files(run.spans_dir, seen))
            service_layers(m, procs, status, proc, start, end)
            if proc and untraced_drain:
                traced_wall, untraced_wall = proc.wall, untraced_drain
        else:
            procs = []
            for c in inputs.calls:
                plain, plain_ok, _, _ = run.attack(inputs, c, 1)
                proc, ok, _, _ = run.attack(inputs, c, 1, binary="bbperf",
                                            env=env)
                procs += load_spans(new_span_files(run.spans_dir, seen))
                if ok and plain_ok:
                    traced_wall += proc.wall
                    untraced_wall += plain.wall
        # Thread-pool use: the nproc-thread traced attack of the first call.
        proc, ok, _, _ = run.attack(inputs, inputs.calls[0], NPROC,
                                    binary="bbperf", env=env)
        for _, spans in load_spans(new_span_files(run.spans_dir, seen)):
            for name, key in (("core.decompose", "parallel.decompose_busy"),
                              ("core.caller_prepare", "parallel.caller_busy")):
                s = next((s for s in spans if s["name"] == name), None)
                if s and s["end"] > s["start"]:
                    m[key] = s["cpu"] / ((s["end"] - s["start"]) * NPROC)
        fold_processes(procs, m)
        m["trace.coverage"] = stats.weighted_coverage(
            [(root_of(spans), spans) for _, spans in procs])
        frames = sum(c.frames for c in inputs.calls)
        if m.get("video.frames_decoded"):
            m["video.decode_reuse"] = frames / m["video.frames_decoded"]
        if m.get("segmentation.segment_calls"):
            m["segmentation.segment_reuse"] = (
                frames / m["segmentation.segment_calls"])
        if untraced_wall:
            m["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
        rounds.append(m)
        if time.monotonic() - t0 >= run.args.seconds:
            break
    out = {}
    for name, _ in PER_LAYER:
        values = [r[name] for r in rounds if name in r]
        if name.endswith("_s") or name in ("trace.coverage",
                                           "trace.overhead_share",
                                           "parallel.decompose_busy",
                                           "parallel.caller_busy"):
            out[name] = statistics.median(values) if values else 0.0
        else:
            out[name] = values[0] if values else 0.0
    for name in ("synth.record_s", "synth.dictionary_s", "vbg.composite_s",
                 "video.write_s"):
        out[name] = setup_layers.get(name, 0.0)
    run.report["rounds"] = rounds
    return out


def service_layers(m, procs, status, drain_proc, start, end):
    """Service metrics of one traced drain, from the worker processes'
    root spans and the job records."""
    shard = [(root_of(s)["start"], root_of(s)["end"]) for rec, s in procs
             if "--shard" in rec["argv"]]
    reduce = [(root_of(s)["start"], root_of(s)["end"]) for rec, s in procs
              if rec["argv"][1:2] == ["reduce"]]
    m["service.shard_worker_s"] = sum(e - b for b, e in shard)
    m["service.reduce_worker_s"] = sum(e - b for b, e in reduce)
    # Jobs run one at a time: a job starts when the previous one finished
    # (the first when attackd started) and ends with its reduce.
    reduce.sort()
    job_start = start
    wait = supervise = 0.0
    for rb, re_ in reduce:
        mine = [(b, e) for b, e in shard if b >= job_start and e <= re_]
        if mine:
            wait += min(b for b, _ in mine) - start
            slowest = max(e - b for b, e in mine)
            supervise += (re_ - job_start) - slowest - (re_ - rb)
        job_start = re_
    m["service.queue_wait_s"] = wait
    m["service.supervise_s"] = supervise + max(0.0, end - job_start)
    counts = DAEMON_RE.search(drain_proc.stdout) if drain_proc else None
    if counts:
        m["service.workers_spawned"] = float(counts.group(8))
        m["service.retries"] = float(counts.group(6))
    jobs = (status or {}).get("jobs", [])
    if jobs:
        m["service.first_attempt_ratio"] = sum(
            1 for j in jobs if j.get("attempts") == 1) / len(jobs)


# ---- main -------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    def stop(signum, _frame):
        ops.kill_all()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        bins = build()
    except BenchError as e:
        log("error: %s" % e)
        return 2
    work = os.path.join(RUN_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    problem = ops.selftest(work)
    if problem:
        log("error: " + problem)
        return 1

    run = Run(args, bins, work)
    run.report["fingerprint"] = fingerprint()
    calib_before = calibrate()
    inputs, setup_times = run.setup()
    setup_files = sorted(glob.glob(os.path.join(run.spans_dir, "*.json")))

    if args.trace:
        layers = traced(run, inputs, setup_files)
        metrics = {name: metric(layers.get(name, 0.0), unit)
                   for name, unit in PER_LAYER}
        run.report["per_layer"] = layers
    else:
        got = run.measure(inputs)
        run.report["samples"] = got
        summary = {}
        for key in ("walls_1t", "walls_nt", "drain_s", "job_run_s"):
            if got[key]:
                summary[key] = stats.summarize(got[key])
        summary["setup_s"] = stats.summarize(setup_times)
        run.report["summary"] = summary
        frames = inputs.calls[0].frames

        def fps(key):
            return frames / summary[key]["median"] if key in summary else 0.0

        values = {
            "setup_s": summary["setup_s"]["median"],
            "attack_fps_1t": fps("walls_1t"),
            "attack_fps_nt": fps("walls_nt"),
            "jobs_per_min": (statistics.median(got["jobs_per_min"])
                             if got["jobs_per_min"] else 0.0),
            "job_run_s_p50": (summary["job_run_s"]["median"]
                              if "job_run_s" in summary else 0.0),
            "peak_rss_mb": run.ledger.maxrss_kb / 1024.0,
            "rbrr_verified": (statistics.mean(got["rbrr"])
                              if got["rbrr"] else 0.0),
            "locate_true_rank": (statistics.mean(got["ranks"])
                                 if got["ranks"] else 0.0),
            "ok_share": 1.0 - run.ledger.failed / max(1, run.ledger.attempted),
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in END_TO_END}
    calib_after = calibrate()
    run.report["calibration_s"] = {"before": calib_before,
                                   "after": calib_after}
    run.report["attempted"] = run.ledger.attempted
    run.report["failures"] = run.ledger.failures
    run.report["incorrect"] = run.incorrect
    run.report["metrics"] = metrics
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump(run.report, f, indent=1, sort_keys=True)
    # The inputs and outputs are tens of MB per run; their digests are in
    # the report, the logs and spans stay.
    shutil.rmtree(inputs.root)
    shutil.rmtree(os.path.join(work, "out"))

    fp = run.report["fingerprint"]
    print("host: nproc=%d compiler=%s build=%s commit=%s "
          "BB_KERNEL=%s BB_THREADS=%s" % (
              fp["nproc"], fp["compiler"], fp["build_type"], fp["git_commit"],
              fp["BB_KERNEL"], fp["BB_THREADS"]))
    print("calibration loop: %.4f s before, %.4f s after (reported only)" % (
        calib_before, calib_after))
    for key, s in sorted(run.report.get("summary", {}).items()):
        tail = ("p%.1f %.4f s" % (s["tail_pct"], s["tail"])
                if s["tail"] is not None else "no percentile with 10 beyond")
        print("timing %-10s median %.4f s, %s, n=%d" % (
            key, s["median"], tail, s["n"]))
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("operations: %d attempted, %d failed" % (
        run.ledger.attempted, run.ledger.failed))
    for reason in run.ledger.failures + run.incorrect:
        print("  FAILED: " + reason)
    # Crashes and timeouts are failed operations; `correct` is about bytes.
    correct = not run.incorrect and run.ledger.mismatches == 0
    print(json.dumps({"correct": correct, "attempted": run.ledger.attempted,
                      "failed": run.ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
