"""Pieces of the gdp-serve benchmark that are worth testing on their own:
the percentile rule, span self times, the process CPU clock reader, the
protocol client and the reply checker."""

import ctypes
import json
import math
import os
import socket
import time

# ---------------------------------------------------------------------------
# Percentiles

# Percentiles a tail can be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples above it.
MIN_BEYOND = 10


def rank(n, q):
    """1-based nearest rank of percentile `q` among `n` sorted samples
    (the epsilon keeps 99.9 % of 10000 at rank 9990 despite rounding)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def beyond(n, q):
    """Samples strictly above the `q`-th percentile's rank."""
    return n - rank(n, q)


def highest_tail(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND
    samples beyond it, or None when even the median has too few."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def percentile(values, q):
    """Nearest-rank percentile of `values` (any order)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def summary(values):
    """p50 and the highest supported tail, each with its sample count."""
    n = len(values)
    tail = highest_tail(n)
    out = {"n": n, "p50": percentile(values, 50.0) if n else None}
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = percentile(values, tail)
        out["tail_beyond"] = beyond(n, tail)
    return out


# ---------------------------------------------------------------------------
# Spans


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children count once).

    `spans` is a list of dicts with `parent` (an index into the list, or
    -1) and `(start, end)` pairs under the keys `wall` and `cpu`. Returns a
    list of `{"wall": ns, "cpu": ns}` in the same order."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        own = {}
        for clock in ("wall", "cpu"):
            lo, hi = s[clock]
            covered = 0
            cursor = lo
            for a, b in sorted(spans[c][clock] for c in children[i]):
                a, b = max(a, cursor), min(b, hi)
                if b > a:
                    covered += b - a
                    cursor = b
            own[clock] = (hi - lo) - covered
        out.append(own)
    return out


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, stmt, parent, w0, w1, c0, c1 = line.rstrip("\n").split("\t")
            spans.append({
                "name": name,
                "stmt": int(stmt),
                "parent": int(parent),
                "wall": (int(w0), int(w1)),
                "cpu": (int(c0), int(c1)),
            })
    return spans


# ---------------------------------------------------------------------------
# Another process's CPU clock

_libc = ctypes.CDLL(None, use_errno=True)
_libc.clock_getcpuclockid.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_int)]
_libc.clock_getcpuclockid.restype = ctypes.c_int


def process_cpu_clock(pid):
    """The clock id of process `pid`'s CPU-time clock
    (clock_getcpuclockid(3)): CPU time of all its threads, including
    threads that have already exited, and none of the time it waited."""
    clock = ctypes.c_int()
    rc = _libc.clock_getcpuclockid(pid, ctypes.byref(clock))
    if rc != 0:
        raise OSError(rc, "clock_getcpuclockid(%d): %s" % (pid, os.strerror(rc)))
    return clock.value


def read_clock_ns(clock):
    return time.clock_gettime_ns(clock)


def running_threads(pid):
    """Threads of process `pid` that are running or runnable."""
    running = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/stat" % (pid, tid)) as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread has just exited
        running += state == "R"
    return running


def wait_idle(pid, timeout_s=1.0):
    """Wait until no thread of process `pid` is running.

    Another process's CPU clock does not include the time its threads have
    run since the last tick or context switch while they are still running
    (the kernel skips that pending time for other processes), so it is
    exact only once they have all blocked. Returns False on timeout."""
    deadline = time.monotonic() + timeout_s
    while running_threads(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0)
    return True


# ---------------------------------------------------------------------------
# /proc readers


def minor_faults(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[7])  # field 10, minflt; fields[0] is field 3


def vm_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM for pid %d" % pid)


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guests are already counted in user and nice.
    return fields[7], sum(fields[:8])


def steal_share(before, after):
    """Share of CPU time stolen between two cpu_jiffies() readings."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mount = parts[1].replace("\\040", " ")
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, parts[2]
    return kind


# ---------------------------------------------------------------------------
# The protocol client

PROMPT = "gdp> "


class Session:
    """One gdp-serve connection speaking the REPL protocol: send a line,
    read until the next prompt."""

    def __init__(self, path):
        """Connect only; the caller reads the greeting with read_reply()."""
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def read_reply(self):
        end = b"\n" + PROMPT.encode()
        while not (self.buf.endswith(end) or self.buf == PROMPT.encode()):
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        text = self.buf[: -len(PROMPT)].decode()
        self.buf = b""
        return text.splitlines()

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def ask(self, line):
        self.send(line)
        return self.read_reply()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Reply checking


def split_top(text, sep=", "):
    """Split on `sep` outside parentheses and brackets."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def parse_answer(line):
    """`X = a, P = pt(1.0, 2.0)` → {"X": "a", "P": "pt(1.0, 2.0)"}."""
    answer = {}
    for part in split_top(line):
        name, sep, value = part.partition(" = ")
        if not sep:
            raise ValueError("not an answer line: %r" % line)
        answer[name] = value
    return answer


def check_reply(expect, lines):
    """Compare a reply with the generator's expectation. Returns None when
    it matches, else a one-line reason."""
    kind = expect["t"]
    errors = [l for l in lines if l.startswith(("error:", "rolled back:", "incomplete:"))]
    if errors:
        return errors[0]
    if kind in ("yes", "no"):
        want = kind + "."
        return None if lines == [want] else "expected %s, got %r" % (want, lines[:3])
    if kind == "rows":
        if not expect["rows"]:
            return None if lines == ["no."] else "expected no., got %r" % lines[:3]
        try:
            got = {tuple(parse_answer(l)[v] for v in expect["vars"]) for l in lines}
        except (KeyError, ValueError) as e:
            return "unparsable answers %r (%s)" % (lines[:3], e)
        want = {tuple(r) for r in expect["rows"]}
        return None if got == want else "expected %s, got %s" % (sorted(want), sorted(got))
    if kind == "commit":
        want = "ok (%d facts, 0 rules, 0 constraints) committed as seq %d" % (
            expect["facts"], expect["seq"])
        return None if lines == [want] else "expected %r, got %r" % (want, lines[:3])
    if kind == "begin":
        return None if lines == ["transaction open (:commit or :rollback)."] else repr(lines)
    if kind == "buffered":
        want = "buffered (%d block(s); :commit applies)." % expect["n"]
        return None if lines == [want] else "expected %r, got %r" % (want, lines)
    if kind == "seq":
        want = "pinned at seq %d; head is seq %d." % (expect["seq"], expect["seq"])
        return None if lines == [want] else "expected %r, got %r" % (want, lines)
    if kind == "audit":
        violations = [l for l in lines if "'ERROR(" in l]
        if sorted(violations) != sorted(expect["violations"]):
            return "expected violations %s, got %s" % (expect["violations"], violations)
        summary_ok = any(l.startswith("%d violation(s)" % len(violations)) for l in lines)
        merged_ok = any(l.startswith("merged: ") for l in lines)
        return None if summary_ok and merged_ok else "malformed audit reply %r" % lines
    raise ValueError("unknown expectation %r" % kind)


def merged_steps(lines):
    """Steps of an audit reply's `merged:` line."""
    for l in lines:
        if l.startswith("merged: "):
            return int(l.split()[1])
    raise ValueError("no merged line in %r" % lines)


def load_stream(path):
    stmts = []
    with open(path) as f:
        for line in f:
            kind, family, text, expect = line.rstrip("\n").split("\t")
            stmts.append({"kind": kind, "family": family, "text": text,
                          "expect": json.loads(expect)})
    return stmts
