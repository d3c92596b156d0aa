#!/usr/bin/env python3
"""The gdp-serve benchmark: one run of one workload.

    python3 perfbench/run.py --workload query|ingest|audit --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The run builds `gdp-serve` and the
benchmark's own `gdp-perfbench` in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), generates the workload from the seed, starts
`gdp-serve --wal` over a Unix socket and drives it with one closed-loop
session, checking every reply. A statement's latency is the server's
process CPU time across it, read from the server's CPU clock before the
statement is sent and after its whole reply has arrived and the server
has gone back to waiting; that clock counts every server thread and none
of the time spent waiting or the steal the kernel reports. The stream is
sent three times (the read-only query stream to one server, the others
each to a freshly spawned one) and each statement keeps the median of its
readings. The server runs pinned to one CPU, where a host-speed reference
(`gdp-perfbench reference`) is timed between statements; other tenants
make the host run that CPU faster or slower within seconds, so every CPU
time is reported at the reference speed, with the time as read beside
it. Client wall time is kept as a diagnostic.

After the last pass the server is killed with SIGKILL and restarted over
the same files, which checks that no acknowledged commit was lost and
prices recovery. With `--trace 1` one pass runs in step with an in-process
replay of the same stream, which runs every statement untraced and traced
and so yields the per-layer metrics.

The statement counts are fixed per workload, so that every run does the
same work although the ingest and audit streams grow the knowledge base;
`--seconds` is recorded, and a run takes about 30-45 s on a 2-vCPU VM.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`. A wrong reply or a lost commit makes
`correct` false and the exit code 1. A run record with the environment
(cores, revision, WAL filesystem, steal share) and every figure with its
sample count is written under `.bench_runs/`.
"""

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

WORKLOADS = ("query", "ingest", "audit")
# Statement kinds whose CPU is the workload's statement latency.
MEASURED = {"query": ("query",), "ingest": ("commit", "end"), "audit": ("audit",)}
COMMITS = ("commit", "end")
# Each run sends the stream this many times and takes a statement's
# latency as the median of its readings: other tenants slow this host in
# phases of a few seconds, which the median of passes run seconds apart
# rides out. The read-only query stream is sent to one server; the others
# need a fresh server per pass.
PASSES = 3
# Servers spawned after each pass only to time start-up; `setup_s` is the
# median over these and the measuring servers. Cheap start-ups get more.
SETUP_SPAWNS = {"query": 1, "ingest": 2, "audit": 4}
# Restarts over the last pass's files; `recovery_s` is their median.
RESTARTS = {"query": 5, "ingest": 7, "audit": 15}
# The host-speed reference (`gdp-perfbench reference`) runs on the
# server's CPU at most every REF_EVERY_NS of the stream; a moment's
# slowness is the median of the REF_WINDOW readings nearest to it over
# REF_NOMINAL_NS, about the reference's CPU time on a quiet 2-vCPU VM.
REF_EVERY_NS = 50_000_000
REF_WINDOW = 9
REF_NOMINAL_NS = 2_550_000
FLUSH_POLICY = "gdp-serve default: fsync every commit, checkpoint every 32 commits"
CHECKPOINT_INTERVAL = 32

END_TO_END = ("setup_s", "stmt_cpu_p50_us", "stmt_cpu_tail_us", "recovery_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "stmt_cpu_p50_us": "us", "stmt_cpu_tail_us": "us",
    "recovery_s": "s", "peak_rss_mb": "MB",
}
FAMILIES = ("point", "proximity", "containment", "crossing", "temporal", "fuzzy")
PER_LAYER = (
    ("server.stmt_overhead_us", "us"),
    ("server.floor_cpu_us", "us"),
    ("lang.parse_us", "us"),
    ("lang.load_world_s", "s"),
    ("lang.load_us", "us"),
    ("server.render_us", "us"),
) + tuple(("spec.satisfy_us." + f, "us") for f in FAMILIES) + (
    ("solver.steps_per_query", "count"),
    ("solver.resolutions_per_query", "count"),
    ("kb.candidates_per_answer", "count"),
    ("kb.scans_per_query", "count"),
    ("store.commit_us", "us"),
    ("store.snapshot_us", "us"),
    ("checkpoint.fold_ms", "ms"),
    ("checkpoint.bytes", "count"),
    ("wal.bytes_per_commit", "count"),
    ("store.recover_ms", "ms"),
    ("proc.minflt_per_commit", "count"),
    ("audit.incremental_ms", "ms"),
    ("audit.rederive_ratio", "ratio"),
    ("table.hit_ratio", "ratio"),
    ("table.invalidations_per_commit", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
    ("commit_cpu_p50_us", "us"),
    ("disk_bytes_per_user_byte", "ratio"),
)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Fail(Exception):
    """A run that cannot produce a result."""


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["-p", "gdp", "--bin", "gdp-serve"],
                 ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise Fail("build failed: " + " ".join(cmd))
    serve = os.path.join(target, "release", "gdp-serve")
    gen = os.path.join(target, "release", "gdp-perfbench")
    return serve, gen


def read_meta(path):
    meta = {"env": {}}
    with open(path) as f:
        for line in f:
            key, value = line.rstrip("\n").split("\t", 1)
            if key == "env":
                k, v = value.split("=", 1)
                meta["env"][k] = v
            else:
                meta[key] = value
    return meta


class Host:
    """Where the run's processes go. With two or more CPUs the server, the
    reference and the replay share the last one and this client keeps the
    others, so that the reference runs where the server does."""

    def __init__(self, procs):
        cpus = sorted(os.sched_getaffinity(0))
        self.server_cpus = {cpus[-1]}
        self.client_cpus = set(cpus[:-1]) or self.server_cpus
        self.procs = procs
        self.speed = None

    def pin_client(self):
        os.sched_setaffinity(0, self.client_cpus)

    def spawn(self, cmd, **kw):
        """Start `cmd` on the server's CPU."""
        cpus = self.server_cpus
        proc = subprocess.Popen(cmd, preexec_fn=lambda: os.sched_setaffinity(0, cpus), **kw)
        self.procs.append(proc)
        return proc


class HostSpeed:
    """Readings of the host-speed reference on the server's CPU: how slow
    the host runs that CPU at each moment."""

    def __init__(self, gen, host):
        self.proc = host.spawn([gen, "reference"], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)
        self.times = []     # monotonic ns of each reading
        self.readings = []  # reference CPU time, ns
        self.read(3)        # warm up: page faults, first allocations
        self.times, self.readings = [], []

    def read(self, n=1):
        for _ in range(n):
            self.proc.stdin.write("step\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise Fail("the host-speed reference stopped")
            self.times.append(time.monotonic_ns())
            self.readings.append(int(line))

    def tick(self):
        """Take a reading if the last one is REF_EVERY_NS old."""
        if not self.times or time.monotonic_ns() - self.times[-1] >= REF_EVERY_NS:
            self.read()

    def slowness_between(self, t0_ns, t1_ns):
        """Slowness over an interval: the median of the readings taken in
        it, or the slowness at its middle when they are fewer than
        REF_WINDOW."""
        lo = bisect.bisect_left(self.times, t0_ns)
        hi = bisect.bisect_right(self.times, t1_ns)
        if hi - lo < REF_WINDOW:
            return self.slowness((t0_ns + t1_ns) // 2)
        return statistics.median(self.readings[lo:hi]) / REF_NOMINAL_NS

    def slowness(self, t_ns):
        """The median of the REF_WINDOW readings nearest to `t_ns`, over
        REF_NOMINAL_NS: 1.0 at the reference speed, 1.5 when the reference
        took half as long again."""
        j = bisect.bisect_left(self.times, t_ns)
        lo = max(0, min(j - REF_WINDOW // 2, len(self.times) - REF_WINDOW))
        return statistics.median(self.readings[lo:lo + REF_WINDOW]) / REF_NOMINAL_NS


class Server:
    """A gdp-serve process on a Unix socket, with its CPU clock."""

    def __init__(self, serve, work, name, wal, world, env, host):
        self.sock = os.path.join(work, name + ".sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        stderr = open(os.path.join(work, name + ".log"), "ab")
        host.speed.read(3)
        t0 = time.monotonic_ns()
        self.proc = host.spawn(
            [serve, "--unix", self.sock, "--wal", wal, "--load", world],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        stderr.close()
        self.clock = bl.process_cpu_clock(self.proc.pid)
        deadline = time.monotonic() + 120
        while True:
            if self.proc.poll() is not None:
                raise Fail("gdp-serve exited with %d during start-up (see %s.log)"
                           % (self.proc.returncode, name))
            try:
                self.session = bl.Session(self.sock)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise Fail("gdp-serve did not accept within 120 s")
                host.speed.tick()
                time.sleep(0.002)
        # Start-up ends when the server has greeted its first session and
        # gone back to waiting.
        self.session.read_reply()
        self.settle()
        self.startup_cpu_s = self.cpu_ns() / 1e9
        host.speed.read(3)
        self.startup_slowness = host.speed.slowness_between(t0, time.monotonic_ns())

    def cpu_ns(self):
        return bl.read_clock_ns(self.clock)

    def settle(self):
        """Wait until every server thread has blocked, so that its CPU
        clock holds all the work done so far."""
        if not bl.wait_idle(self.proc.pid):
            raise Fail("gdp-serve kept running for 1 s after a reply")

    def kill(self):
        self.session.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()


class WalLedger:
    """Bytes the store writes to its files, from file sizes after every
    commit: WAL appends (a rotation retires the segment to `.prev` and
    starts a fresh one) and checkpoint images (a new `.ckpt` inode)."""

    def __init__(self, wal):
        self.wal = wal
        self.wal_bytes = 0
        self.ckpt_bytes = 0
        self.last = self._stat(wal)
        self.last_ckpt = self._stat(wal + ".ckpt")

    @staticmethod
    def _stat(path):
        try:
            st = os.stat(path)
            return st.st_ino, st.st_size
        except FileNotFoundError:
            return None, 0

    def after_commit(self):
        now = self._stat(self.wal)
        if now[0] == self.last[0]:
            self.wal_bytes += now[1] - self.last[1]
        else:
            prev = self._stat(self.wal + ".prev")
            if prev[0] == self.last[0]:
                self.wal_bytes += prev[1] - self.last[1]
            self.wal_bytes += now[1]
        self.last = now
        ckpt = self._stat(self.wal + ".ckpt")
        if ckpt[0] is not None and ckpt[0] != self.last_ckpt[0]:
            self.ckpt_bytes += ckpt[1]
        self.last_ckpt = ckpt


def drive(server, stmts, ledger, failures, speed, step=None):
    """Send the stream through one session; returns per-statement records.
    `step`, when given, is called after each statement."""
    records = []
    pid = server.proc.pid
    for i, st in enumerate(stmts):
        speed.tick()
        commit = st["kind"] in COMMITS
        faults = bl.minor_faults(pid) if commit else 0
        c0 = server.cpu_ns()
        w0 = time.monotonic_ns()
        try:
            lines = server.session.ask(st["text"])
        except OSError as e:
            failures.append((i, "connection lost: %s" % e))
            break
        w1 = time.monotonic_ns()
        server.settle()
        c1 = server.cpu_ns()
        rec = {"kind": st["kind"], "family": st["family"], "cpu_us": (c1 - c0) / 1e3,
               "wall_us": (w1 - w0) / 1e3, "t_ns": (w0 + w1) // 2, "lines": lines}
        if commit:
            rec["minflt"] = bl.minor_faults(pid) - faults
            ledger.after_commit()
        reason = bl.check_reply(st["expect"], lines)
        rec["ok"] = reason is None
        if reason is not None:
            failures.append((i, "%s -> %s" % (st["text"][:80], reason)))
        records.append(rec)
        if step is not None:
            step()
    return records


def combine(passes, speed):
    """One record per statement: the median over the passes of its CPU
    time at the reference speed (`ref_us`), of its CPU time as read
    (`cpu_us`) and of its wall time (the last pass's replies and counts)."""
    merged = []
    for recs in zip(*passes):
        rec = dict(recs[-1])
        rec["ref_us"] = statistics.median(
            r["cpu_us"] / speed.slowness(r["t_ns"]) for r in recs)
        rec["cpu_us"] = statistics.median(r["cpu_us"] for r in recs)
        rec["wall_us"] = statistics.median(r["wall_us"] for r in recs)
        rec["ok"] = all(r["ok"] for r in recs)
        merged.append(rec)
    return merged


class Replay:
    """`gdp-perfbench replay`, advanced one statement at a time."""

    def __init__(self, gen, work, env, host):
        self.out = os.path.join(work, "replay")
        os.makedirs(self.out)
        self.cmd = [gen, "replay", "--dir", work, "--out", self.out]
        self.proc = host.spawn(self.cmd, env=env, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True)

    def step(self):
        self.proc.stdin.write("step\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline() != "done\n":
            raise Fail("replay stopped: " + " ".join(self.cmd))

    def finish(self):
        """End the stream; returns the plain and traced spans and the
        traced lane's counters."""
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise Fail("replay failed: " + " ".join(self.cmd))
        plain = bl.read_spans(os.path.join(self.out, "spans-plain.tsv"))
        traced = bl.read_spans(os.path.join(self.out, "spans-traced.tsv"))
        counters = {}
        with open(os.path.join(self.out, "counters.tsv")) as f:
            for line in f:
                stmt, key, value = line.rstrip("\n").split("\t")
                counters.setdefault(int(stmt), {})[key] = float(value)
        return plain, traced, counters


def p50_or_zero(values):
    return bl.percentile(values, 50.0) if values else 0.0


def layer_metrics(workload, stmts, records, ledger, acked, replayed):
    """Every per-layer metric; a layer the workload does not reach reads 0.
    `records` is the pass that ran in step with the replay, `replayed`
    what the replay returned."""
    plain, spans, counters = replayed
    selfs = bl.self_times(spans)
    stmt_cpu = {}      # statement -> traced CPU, ns
    attributed = {}    # statement -> share of its CPU covered by layer spans
    by_name = {}       # span name -> [(stmt, self cpu ns)]
    for s, own in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s["stmt"], own["cpu"]))
        if s["name"] == "stmt":
            total = s["cpu"][1] - s["cpu"][0]
            stmt_cpu[s["stmt"]] = total
            if total:
                attributed[s["stmt"]] = 1.0 - own["cpu"] / total
    plain_cpu = {s["stmt"]: s["cpu"][1] - s["cpu"][0] for s in plain if s["name"] == "stmt"}

    def cpu_of(name, scale, only=None):
        return [v / scale for stmt, v in by_name.get(name, [])
                if only is None or stmt in only]

    measured = {i for i, st in enumerate(stmts) if st["kind"] in MEASURED[workload]}
    queries = [i for i, st in enumerate(stmts) if st["kind"] == "query"]
    commits = [i for i, st in enumerate(stmts) if st["kind"] in COMMITS]
    folds = {i for n, i in enumerate(commits, 1) if n % CHECKPOINT_INTERVAL == 0}
    audits = [i for i, st in enumerate(stmts) if st["kind"] == "audit"]

    def total(ids, key):
        return sum(counters.get(i, {}).get(key, 0.0) for i in ids)

    m = {}
    m["server.stmt_overhead_us"] = p50_or_zero(
        [records[i]["cpu_us"] - plain_cpu[i] / 1e3 for i in measured if i < len(records)])
    m["server.floor_cpu_us"] = p50_or_zero(
        [r["cpu_us"] for r in records if r["kind"] == "seq"])
    m["lang.parse_us"] = p50_or_zero(cpu_of("lang.parse", 1e3) + cpu_of("lang.parse.probe", 1e3))
    m["lang.load_world_s"] = sum(cpu_of("lang.load_world", 1e9))
    m["lang.load_us"] = p50_or_zero(cpu_of("lang.load", 1e3))
    m["server.render_us"] = p50_or_zero(cpu_of("server.render", 1e3))
    for f in FAMILIES:
        ids = {i for i in queries if stmts[i]["family"] == f}
        m["spec.satisfy_us." + f] = p50_or_zero(cpu_of("spec.satisfy", 1e3, ids))
    nq = max(1, len(queries))
    m["solver.steps_per_query"] = total(queries, "steps") / nq if queries else 0.0
    m["solver.resolutions_per_query"] = total(queries, "resolutions") / nq if queries else 0.0
    m["kb.candidates_per_answer"] = (
        total(queries, "candidates") / max(1.0, total(queries, "answers")) if queries else 0.0)
    m["kb.scans_per_query"] = total(queries, "scans") / nq if queries else 0.0
    m["store.commit_us"] = p50_or_zero(cpu_of("store.commit", 1e3))
    m["store.snapshot_us"] = p50_or_zero(cpu_of("store.snapshot", 1e3))
    m["checkpoint.fold_ms"] = p50_or_zero(
        cpu_of("store.commit", 1e6, folds) + cpu_of("checkpoint.explicit", 1e6))
    ckpt = WalLedger._stat(ledger.wal + ".ckpt")[1]
    m["checkpoint.bytes"] = float(ckpt)
    m["wal.bytes_per_commit"] = ledger.wal_bytes / acked if acked else 0.0
    m["store.recover_ms"] = sum(cpu_of("store.recover", 1e6))
    commit_recs = [r for r in records if r["kind"] in COMMITS]
    m["proc.minflt_per_commit"] = (
        sum(r["minflt"] for r in commit_recs) / len(commit_recs) if commit_recs else 0.0)
    m["audit.incremental_ms"] = p50_or_zero(cpu_of("audit.incremental", 1e6))
    audit_recs = [r for r in records if r["kind"] == "audit"]
    m["audit.rederive_ratio"] = (
        sum(1 for r in audit_recs if bl.merged_steps(r["lines"]) > 0) / len(audit_recs)
        if audit_recs else 0.0)
    hits, misses = total(audits, "table_hits"), total(audits, "table_misses")
    m["table.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["table.invalidations_per_commit"] = (
        total(audits, "table_invalidations") / len(commits) if commits else 0.0)
    m["trace.overhead_pct"] = 100.0 * (
        sum(stmt_cpu.values()) - sum(plain_cpu.values())) / sum(plain_cpu.values())
    m["trace.attributed_pct"] = p50_or_zero(
        [100.0 * attributed[i] for i in measured if i in attributed])
    m["commit_cpu_p50_us"] = p50_or_zero([r["cpu_us"] for r in commit_recs])
    user = sum(len(st["text"].encode()) for st in stmts if st["kind"] in ("commit", "block"))
    m["disk_bytes_per_user_byte"] = (
        (ledger.wal_bytes + ledger.ckpt_bytes) / user if user else 0.0)
    return m


def git_revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run(args, root, procs):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(root, ".bench_build"))
    serve, gen = build(root, target)
    host = Host(procs)
    host.pin_client()
    # Paths stay relative to the checkout root (the working directory of
    # every process here), which keeps socket paths short.
    work = os.path.join(".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, root, serve, gen, work, host)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, serve, gen, work, host):
    w = args.workload
    t_start = time.monotonic()
    steal0 = bl.cpu_jiffies()
    cmd = [gen, "gen", "--workload", w, "--seed", str(args.seed), "--out", work]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise Fail("workload generation failed")
    meta = read_meta(os.path.join(work, "meta.tsv"))
    stmts = bl.load_stream(os.path.join(work, "stream.tsv"))
    env = dict(os.environ, **meta["env"])
    world = os.path.join(work, "world.gdp")
    failures = []
    host.speed = speed = HostSpeed(gen, host)

    # Each spawn builds the base image, loads the world and creates a fresh
    # WAL. Measuring servers serve the passes; after each pass a few more
    # are spawned only to time start-up, so that the set-up samples spread
    # over the run. A traced run makes one pass, in step with the replay.
    n_passes = 1 if args.trace else PASSES
    setup = []         # start-up CPU time as read, s
    setup_ref = []     # the same at the reference speed
    passes = []
    pass_steal = []
    peak_rss_mb = []   # VmHWM of each measuring server after its passes
    replayed = None

    def spawn(label):
        i = len(setup)
        wal = os.path.join(work, "wal-%d" % i, "spec.wal")
        os.makedirs(os.path.dirname(wal))
        server = Server(serve, work, "%s-%d" % (label, i), wal, world, env, host)
        setup.append(server.startup_cpu_s)
        setup_ref.append(server.startup_cpu_s / server.startup_slowness)
        return server, wal

    t_stream = time.monotonic()
    server = None
    for k in range(n_passes):
        if server is None:
            server, wal = spawn("serve")
            ledger = WalLedger(wal)
        replay = Replay(gen, work, env, host) if args.trace else None
        j0 = bl.cpu_jiffies()
        passes.append(drive(server, stmts, ledger, failures, speed, replay and replay.step))
        pass_steal.append(bl.steal_share(j0, bl.cpu_jiffies()))
        if replay is not None:
            replayed = replay.finish()
        # The read-only query stream can be sent to the same server again.
        if w != "query" or k == n_passes - 1:
            peak_rss_mb.append(bl.vm_hwm_kb(server.proc.pid) / 1024.0)
            server.kill()
            server = None
        for _ in range(0 if args.trace else SETUP_SPAWNS[w]):
            spawn("setup")[0].kill()
    stream_s = time.monotonic() - t_stream
    records = combine(passes, speed)
    acked = max([r["expect"]["seq"] for r in stmts if r["kind"] in COMMITS] or [0])
    if failures:
        acked = sum(1 for st, r in zip(stmts, passes[-1])
                    if st["kind"] in COMMITS and r["ok"])

    # Durability round trip: restart over the last pass's files.
    recovery = []
    recovery_ref = []
    for i in range(1 if args.trace else RESTARTS[w]):
        server = Server(serve, work, "restart-%d" % i, wal, world, env, host)
        recovery.append(server.startup_cpu_s)
        recovery_ref.append(server.startup_cpu_s / server.startup_slowness)
        if i == 0:
            head = server.session.ask(":seq")
            want = "pinned at seq %d; head is seq %d." % (acked, acked)
            if head != [want]:
                failures.append(("restart", "expected %r, got %r" % (want, head)))
            count = server.session.ask(meta["count_query"])
            want = "N = %s" % meta["final_count"]
            if count != [want]:
                failures.append(("restart", "count: expected %r, got %r" % (want, count)))
        server.kill()
    steal1 = bl.cpu_jiffies()
    attempted = len(stmts) * n_passes + 2

    stats = bl.summary([r["ref_us"] for r in records if r["kind"] in MEASURED[w]])
    if len(records) < len(stmts) or stats.get("tail") is None:
        raise Fail("stream incomplete: %d of %d statements" % (len(records), len(stmts)))
    as_read = bl.summary([r["cpu_us"] for r in records if r["kind"] in MEASURED[w]])
    e2e = {
        "setup_s": statistics.median(setup_ref),
        "stmt_cpu_p50_us": stats["p50"],
        "stmt_cpu_tail_us": stats["tail"],
        "recovery_s": statistics.median(recovery_ref),
        "peak_rss_mb": statistics.median(peak_rss_mb),
    }
    e2e_as_read = {
        "setup_s": statistics.median(setup),
        "stmt_cpu_p50_us": as_read["p50"],
        "stmt_cpu_tail_us": as_read["tail"],
        "recovery_s": statistics.median(recovery),
    }
    slowness = [v / REF_NOMINAL_NS for v in speed.readings]

    layers = None
    if args.trace:
        layers = layer_metrics(w, stmts, records, ledger, acked, replayed)

    # Figures under the names the workload's statements give them.
    named = {}

    for label, kinds, scale, unit in (
            ("query_cpu", ("query",), 1.0, "us"),
            ("commit_cpu", COMMITS, 1.0, "us"),
            ("audit_cpu", ("audit",), 1e3, "ms"),
            ("seq_cpu", ("seq",), 1.0, "us")):
        recs = [r for r in records if r["kind"] in kinds]
        if recs:
            named[label] = {
                "unit": unit,
                "cpu": bl.summary([r["ref_us"] / scale for r in recs]),
                "cpu_as_read": bl.summary([r["cpu_us"] / scale for r in recs]),
                "client_wall": bl.summary([r["wall_us"] / scale for r in recs]),
            }
    user = sum(len(st["text"].encode()) for st in stmts if st["kind"] in ("commit", "block"))
    steal = bl.steal_share(steal0, steal1)
    record = {
        "workload": w, "seed": args.seed, "trace": args.trace, "seconds_arg": args.seconds,
        "nproc": os.cpu_count(), "git_revision": git_revision(root),
        "wal_fs": bl.fs_type(work), "flush_policy": FLUSH_POLICY,
        "steal_share": steal, "stream_wall_s": stream_s,
        "run_wall_s": time.monotonic() - t_start,
        "world_clauses": int(meta["world_clauses"]), "statements": len(stmts),
        "host_slowness": {"n": len(slowness), "p10": bl.percentile(slowness, 10.0),
                          "p50": bl.percentile(slowness, 50.0),
                          "p90": bl.percentile(slowness, 90.0)},
        "setup_cpu_s": setup, "recovery_cpu_s": recovery, "peak_rss_mb": peak_rss_mb,
        "acked_commits": acked, "wal_bytes": ledger.wal_bytes,
        "checkpoint_bytes_written": ledger.ckpt_bytes, "user_bytes": user,
        "stmt_cpu": stats, "by_statement_kind": named,
        "passes": [{"steal_share": steal_k,
                    "p50_us_as_read": bl.percentile([r["cpu_us"] for r in recs
                                                     if r["kind"] in MEASURED[w]], 50.0),
                    "host_slowness_p50": statistics.median(
                        speed.slowness(r["t_ns"]) for r in recs)}
                   for steal_k, recs in zip(pass_steal, passes)],
        "by_family": {f: {"n": len(v), "p50_us": bl.percentile(v, 50.0),
                          "p90_us": bl.percentile(v, 90.0), "max_us": max(v)}
                      for f, v in families(records).items()},
        "end_to_end": e2e, "end_to_end_as_read": e2e_as_read, "per_layer": layers,
        "failures": [list(f) for f in failures[:20]],
    }
    os.makedirs(os.path.join(root, ".bench_runs"), exist_ok=True)
    rec_path = os.path.join(root, ".bench_runs", "%s-seed%d-trace%d-%d.json" % (
        w, args.seed, args.trace, int(time.time())))
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1)

    report(record, rec_path)
    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        for name in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": UNITS[name]}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def families(records):
    out = {}
    for r in records:
        out.setdefault(r["family"], []).append(r["ref_us"])
    return out


def report(r, path):
    """Human-readable figures, every one with its unit and sample count."""
    out = sys.stdout
    print("workload %s, seed %d: %d statements over a %d-clause world; nproc %d, "
          "steal %.1f%%, WAL on %s" % (r["workload"], r["seed"], r["statements"],
                                       r["world_clauses"], r["nproc"],
                                       100 * r["steal_share"], r["wal_fs"]), file=out)
    h = r["host_slowness"]
    print("  host slowness (reference CPU time / %d ns): p10 %.3f, p50 %.3f, p90 %.3f "
          "(n=%d); CPU times below are at the reference speed, as read in brackets"
          % (REF_NOMINAL_NS, h["p10"], h["p50"], h["p90"], h["n"]), file=out)
    e, a = r["end_to_end"], r["end_to_end_as_read"]
    print("  setup_s             %10.4f s   (median of %d spawns; %.4f s)"
          % (e["setup_s"], len(r["setup_cpu_s"]), a["setup_s"]), file=out)
    print("  recovery_s          %10.4f s   (median of %d restarts; %.4f s)"
          % (e["recovery_s"], len(r["recovery_cpu_s"]), a["recovery_s"]), file=out)
    print("  peak_rss_mb         %10.1f MB  (median of %d servers)"
          % (e["peak_rss_mb"], len(r["peak_rss_mb"])), file=out)
    for label, v in r["by_statement_kind"].items():
        cpu, raw, wall, unit = v["cpu"], v["cpu_as_read"], v["client_wall"], v["unit"]
        print("  %-19s %10.1f %s (n=%d; %.1f %s; client wall p50 %.1f %s)" % (
            "%s_p50_%s" % (label, unit), cpu["p50"], unit, cpu["n"], raw["p50"], unit,
            wall["p50"], unit), file=out)
        if cpu.get("tail_q", 50.0) > 50.0:
            print("  %-19s %10.1f %s (n=%d, %d beyond; %.1f %s; client wall %.1f %s)" % (
                "%s_p%g_%s" % (label, cpu["tail_q"], unit), cpu["tail"], unit, cpu["n"],
                cpu["tail_beyond"], raw["tail"], unit, wall["tail"], unit), file=out)
    if r["user_bytes"]:
        print("  disk_bytes_per_user_byte %.3f ratio (%d WAL + %d checkpoint bytes / %d "
              "statement bytes, %d commits)" % (
                  (r["wal_bytes"] + r["checkpoint_bytes_written"]) / r["user_bytes"],
                  r["wal_bytes"], r["checkpoint_bytes_written"], r["user_bytes"],
                  r["acked_commits"]), file=out)
    if r["per_layer"]:
        for name, unit in PER_LAYER:
            print("  %-34s %14.3f %s" % (name, r["per_layer"][name], unit), file=out)
    for f in r["failures"]:
        print("  FAILED %s: %s" % tuple(f), file=out)
    print("  run record: %s" % path, file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    for need in ("Cargo.toml", os.path.join("crates", "gdp", "Cargo.toml"),
                 os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, need)):
            log("not the root of a gdp checkout: %s is missing" % need)
            return 2
    procs = []
    try:
        result = run(args, root, procs)
    except (Fail, OSError, ValueError) as e:
        log("run failed: %s" % e)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
