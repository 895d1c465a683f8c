"""Statistics helpers of the end-to-end benchmark.

summarize() reports a timing the way every metric of the benchmark is
reported: the median, the highest percentile that still has at least ten
samples beyond it, and the sample count. self_times() and coverage() turn
recorded spans into per-layer self time and trace coverage.
"""

import statistics
from collections import defaultdict

TAIL_SAMPLES = 10


def summarize(samples):
    """Returns {"median", "tail_pct", "tail", "n"} for a list of timings.

    The tail is the highest percentile with at least TAIL_SAMPLES samples
    above it: with n sorted samples that is the value at 0-based index
    n - TAIL_SAMPLES - 1, the 100 * (n - TAIL_SAMPLES) / n-th percentile.
    With n <= TAIL_SAMPLES no percentile qualifies and both tail fields are
    None.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("summarize() needs at least one sample")
    out = {"median": statistics.median(xs), "tail_pct": None, "tail": None,
           "n": n}
    if n > TAIL_SAMPLES:
        out["tail_pct"] = 100.0 * (n - TAIL_SAMPLES) / n
        out["tail"] = xs[n - TAIL_SAMPLES - 1]
    return out


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Maps span id -> self time for spans given as dicts with keys
    id, parent, start, end.

    A span's self time is its duration minus the part of its interval that
    its child spans cover. Children that run concurrently (thread-pool
    workers) are counted once where they overlap.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children[s["id"]]]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out


def self_time_by_name(spans):
    """Sums self time per span name."""
    per_id = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += per_id[s["id"]]
    return dict(totals)


def coverage(root, spans):
    """Share of the root span's interval covered by its child spans."""
    duration = root["end"] - root["start"]
    if duration <= 0:
        return 0.0
    kids = [(max(s["start"], root["start"]), min(s["end"], root["end"]))
            for s in spans if s["parent"] == root["id"]]
    return union_length(kids) / duration



def weighted_coverage(roots):
    """Share of several root spans covered by their child spans, each root
    weighted by its duration. `roots` holds (root, spans) pairs, one per
    traced process."""
    covered = total = 0.0
    for root, spans in roots:
        duration = root["end"] - root["start"]
        covered += coverage(root, spans) * duration
        total += duration
    return covered / total if total > 0 else 0.0
