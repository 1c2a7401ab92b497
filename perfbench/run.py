#!/usr/bin/env python3
"""MeRLiN repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds
merlin_cli, merlin_serve and the layer driver (perfbench/layers.cc) from
source into .bench_build/ (or $CARGO_TARGET_DIR); later runs reuse that
build.  Inputs are generated from --seed; every campaign's outcome class
counts are checked against a reference computed with the engine's fast
paths off.  The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (product entry points,
no tracing, every time converted to a 3.0 GHz reference clock by the
perfbench/clock.cc probe); with --trace 1 they are the per-layer ones.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

JOBS = min(4, len(os.sched_getaffinity(0)))
CLIENTS = min(3, JOBS)
SETUP_REPEATS = 9
SERVE_SETUP_REPEATS = 3
# Timed intervals are reported at this core clock; see core_ghz().
REF_GHZ = 3.0

MIBENCH = ["susan_c", "susan_s", "susan_e", "stringsearch", "djpeg", "sha",
           "fft", "qsort", "cjpeg", "caes"]
SPEC = ["bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng", "libquantum",
        "h264ref", "omnetpp", "astar"]
ALL_WORKLOADS = MIBENCH + SPEC
TRUTH_WORKLOADS = ["qsort", "sha", "fft", "susan_c", "caes", "gcc", "mcf",
                   "hmmer"]
STRUCTURES = ["rf", "sq", "l1d"]
# Table-1 size variants of the speedup figures (Figs. 8-10).
SIZE_VARIANTS = {"rf": ("regs", [256, 128, 64]),
                 "sq": ("sq_entries", [64, 32, 16]),
                 "l1d": ("l1d_kb", [64, 32, 16])}

ESTIMATE_FAULTS = 3000
TRUTH_FAULTS = 6000
PREP_FAULTS = 60000
# One size for every serve spec, so faults_per_s does not depend on which
# kinds of submission happened to complete.
SERVE_FAULTS = 500
SERVE_LIST_LEN = 500
SERVE_SECTIONS = 4
SERVE_CHUNKS = [1024, 2048, 8192]  # mem_chunk_bytes of section-hit specs
SERVE_KIND_BLOCK = ["hit"] * 2 + ["section"] * 2 + ["shared"] * 2 + ["own"] * 4
SERVE_SLICE_SECONDS = 2.5  # mix time between two clock probes
TRACED_MIX_SECONDS = 8.0
TRACED_FRESH_SPECS = 120  # serve_mixed specs the traced run drives per layer

# Every CampaignSpec member with its default, in toJson() order.
SPEC_DEFAULTS = {
    "workload": "", "structure": "rf", "regs": 256, "sq_entries": 64,
    "l1d_kb": 64, "window": None, "faults": 1000, "split": "byte",
    "max_group_size": 100, "reps_per_group": 1, "seed": 1,
    "checkpoint_interval": 512, "max_checkpoints": 128, "early_exit": True,
    "replay": True, "timeout_factor": 3, "mem_chunk_bytes": 4096,
    "mode": "estimate", "relyzer": False, "path_depth": 5,
}
# Members that never change a campaign's outcome; the oracle ignores them.
ENGINE_KNOBS = ("early_exit", "replay", "mem_chunk_bytes",
                "checkpoint_interval", "max_checkpoints")
COUNT_FIELDS = ("initial_faults", "ace_masked", "survivors", "num_groups",
                "injections", "merlin_estimate", "survivor_truth")

WORKLOADS = ("estimate_cold", "truth_sweep", "prep_grid", "serve_mixed")


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure (cheap once cached), then build what is stale."""
    out = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no MeRLiN source tree at " + ROOT)
    r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "-j", str(JOBS), "--target",
                        "merlin_cli", "merlin_serve", "perfbench_layers",
                        "perfbench_clock"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return {name: os.path.join(out, "merlin", name)
            for name in ("merlin_cli", "merlin_serve")} | {
        name: os.path.join(out, name)
        for name in ("perfbench_layers", "perfbench_clock")}


# ------------------------------------------------------------------ clock

def core_ghz(bins):
    """The core clock JOBS busy threads run at now, in GHz.

    A shared host moves its clock with the load of its other tenants, so
    the same work can take 1.6x longer in a busy hour.  Every timed
    interval is therefore bracketed by this probe and reported at
    REF_GHZ: wall * measured clock / REF_GHZ.
    """
    r = subprocess.run([bins["perfbench_clock"], str(JOBS)],
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("clock probe failed")
    return float(r.stdout)


class RefClock:
    """Scales consecutive wall intervals to REF_GHZ.

    tick() probes the clock; an interval between two ticks is scaled by
    the mean of the two readings.  The probes fall between intervals, so
    their own run time is in no interval.
    """

    def __init__(self, bins):
        self.bins = bins
        self.ghz = []
        self.tick()

    def tick(self):
        self.ghz.append(core_ghz(self.bins))

    def scale(self):
        """Factor for the interval that ended at the last tick."""
        return (self.ghz[-2] + self.ghz[-1]) / 2.0 / REF_GHZ

    def timed(self, fn):
        """Run @p fn between two ticks; returns (reference s, result)."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self.tick()
        return wall * self.scale(), out


# ----------------------------------------------------------------- inputs

def spec(**members):
    s = dict(SPEC_DEFAULTS)
    for k, v in members.items():
        if k not in s:
            raise KeyError(k)
        s[k] = v
    return s


def identity(s):
    """A spec with the outcome-invariant engine knobs removed, hashed."""
    text = json.dumps({k: v for k, v in s.items() if k not in ENGINE_KNOBS},
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeds(rng):
    return rng.randrange(1, 2**31)


def batch_specs(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "estimate_cold":
        return [spec(workload=w, structure=s, faults=ESTIMATE_FAULTS,
                     seed=seeds(rng), mode="estimate")
                for w in ALL_WORKLOADS for s in STRUCTURES]
    if workload == "truth_sweep":
        return [spec(workload=w, structure=s, faults=TRUTH_FAULTS,
                     seed=seeds(rng), mode="truth")
                for w in TRUTH_WORKLOADS for s in STRUCTURES]
    if workload == "prep_grid":
        out = []
        for s in STRUCTURES:
            member, sizes = SIZE_VARIANTS[s]
            for size in sizes:
                for w in ALL_WORKLOADS:
                    out.append(spec(workload=w, structure=s,
                                    faults=PREP_FAULTS, seed=seeds(rng),
                                    mode="grouping_only", **{member: size}))
        return out
    raise KeyError(workload)


def shuffled_cycle(rng, items):
    """Endless seeded shuffles of @p items: every item once per pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def serve_inputs(seed):
    """Warm specs plus one closed-loop submission list per client.

    Kinds: "hit" (a warm spec, served whole from the store), "section"
    (a warm spec differing only in mem_chunk_bytes, served from the
    section tables), "shared" (a fresh spec every client submits in the
    same order, so it is simulated once and coalesced or hit), "own"
    (a fresh spec of this client alone).  Kinds come in shuffled blocks
    of SERVE_KIND_BLOCK and specs walk shuffled passes over the
    (workload, structure) grid, so every seed submits the same mix.
    """
    rng = random.Random("serve_mixed:%d" % seed)
    grid = [(w, s) for w in ALL_WORKLOADS for s in STRUCTURES]
    warm = [spec(workload=w, structure=s, faults=SERVE_FAULTS,
                 seed=seeds(rng)) for w, s in grid]

    def fresh(cells):
        w, s = next(cells)
        return spec(workload=w, structure=s, faults=SERVE_FAULTS,
                    seed=seeds(rng))

    shared_cells = shuffled_cycle(rng, grid)
    shared = [fresh(shared_cells) for _ in range(SERVE_LIST_LEN)]
    lists = []
    for _ in range(CLIENTS):
        kinds = shuffled_cycle(rng, SERVE_KIND_BLOCK)
        hits = shuffled_cycle(rng, warm)
        sections = shuffled_cycle(rng, [dict(w, mem_chunk_bytes=c)
                                        for w in warm for c in SERVE_CHUNKS])
        own_cells = shuffled_cycle(rng, grid)
        items, next_shared = [], 0
        for _ in range(SERVE_LIST_LEN):
            kind = next(kinds)
            if kind == "hit":
                s = next(hits)
            elif kind == "section":
                s = next(sections)
            elif kind == "shared":
                s = shared[next_shared]
                next_shared += 1
            else:
                s = fresh(own_cells)
            items.append((kind, s))
        lists.append(items)
    return warm, lists


def fresh_specs(lists):
    """Distinct specs of the lists that the daemon must simulate."""
    seen, out = set(), []
    for items in lists:
        for kind, s in items:
            if kind in ("shared", "own") and identity(s) not in seen:
                seen.add(identity(s))
                out.append(s)
    return out


def write_manifest(path, specs):
    with open(path, "w") as f:
        json.dump({"campaigns": specs}, f)


# ---------------------------------------------------------------- oracle

def counts_of(result):
    return {k: result.get(k) for k in COUNT_FIELDS}


def load_store(path):
    with open(path) as f:
        return json.load(f)["campaigns"]


def run_suite(bins, manifest, store):
    """merlin_cli suite on a cold store; returns (wall_s, rusage, rc)."""
    for p in (store, store + ".journal"):
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)
    cmd = [bins["merlin_cli"], "suite", manifest, "--jobs", str(JOBS),
           "--out", store]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru, p.returncode


def reference(bins, workload, seed, specs, work):
    """Identity -> class counts with early exit and replay off.

    Committed tables (perfbench/ref/) cover the default and the held-out
    seed; any other seed is computed here, before timing, and cached in
    the build directory.
    """
    name = "%s-seed%d.json" % (workload, seed)
    for path in (os.path.join(HERE, "ref", name),
                 os.path.join(build_dir(), "ref", name)):
        if os.path.exists(path):
            with open(path) as f:
                table = json.load(f)
            if all(identity(s) in table for s in specs):
                return table
    t0 = time.perf_counter()
    table = compute_reference(bins, specs, work)
    log("reference for %s seed %d: %d campaigns in %.1f s" %
        (workload, seed, len(table), time.perf_counter() - t0))
    os.makedirs(os.path.join(build_dir(), "ref"), exist_ok=True)
    with open(os.path.join(build_dir(), "ref", name), "w") as f:
        f.write(dump_table(table))
    return table


def dump_table(table):
    """One campaign per line, sorted: the committed-table format."""
    return "{\n" + ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v))
                               for k, v in sorted(table.items())) + "\n}\n"


def compute_reference(bins, specs, work):
    ref_specs, seen = [], set()
    for s in specs:
        if identity(s) in seen:
            continue
        seen.add(identity(s))
        r = dict(s, early_exit=False, replay=False)
        if s["mode"] == "grouping_only":
            r["checkpoint_interval"] = 0  # nothing is injected
        ref_specs.append(r)
    manifest = os.path.join(work, "reference.json")
    store = os.path.join(work, "reference-store.json")
    write_manifest(manifest, ref_specs)
    _, _, rc = run_suite(bins, manifest, store)
    if rc != 0:
        fail("reference suite failed (exit %d)" % rc)
    return {identity(e["spec"]): counts_of(e["result"])
            for e in load_store(store).values()}


def check(table, s, result):
    """True when @p result matches the reference and nothing quarantined."""
    want = table.get(identity(s))
    return (want is not None and counts_of(result) == want
            and not result.get("quarantine"))


def check_store(table, specs, store):
    """(attempted, failed) for one suite iteration's output store."""
    try:
        by_id = {identity(e["spec"]): e["result"]
                 for e in load_store(store).values()}
    except (OSError, ValueError, KeyError):
        return len(specs), len(specs)
    failed = sum(1 for s in specs
                 if identity(s) not in by_id
                 or not check(table, s, by_id[identity(s)]))
    return len(specs), failed


# ------------------------------------------------------------------ wire

class Wire:
    """merlin-wire-v1 client: 4-byte big-endian length + JSON object."""

    def __init__(self, path, client):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
            reply, _ = self.request({"type": "hello",
                                     "format": "merlin-wire-v1",
                                     "client": client})
            if reply.get("type") != "ok":
                raise RuntimeError("handshake refused: %r" % reply)
        except BaseException:
            self.sock.close()
            raise

    def _recvn(self, n):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise RuntimeError("daemon closed the connection")
            buf += chunk
        return bytes(buf)

    def request(self, obj):
        """Send one request; returns (reply, reply frame bytes)."""
        data = json.dumps(obj).encode()
        self.sock.sendall(struct.pack(">I", len(data)) + data)
        n = struct.unpack(">I", self._recvn(4))[0]
        return json.loads(self._recvn(n)), n + 4

    def close(self):
        self.sock.close()


class Daemon:
    """One merlin_serve process on a fresh store; always reaped."""

    def __init__(self, bins, work, tag):
        self.dir = os.path.join(work, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # Relative to the checkout root: socket paths are length-capped.
        self.socket = os.path.relpath(os.path.join(self.dir, "s.sock"))
        self.store = os.path.join(self.dir, "store.json")
        self.rusage = None
        self.proc = subprocess.Popen(
            [bins["merlin_serve"], "--socket", self.socket, "--store",
             self.store, "--jobs", str(JOBS), "--sections",
             str(SERVE_SECTIONS)], stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while True:
            try:
                Wire(self.socket, "probe").close()
                return
            except (OSError, RuntimeError):
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    self.stop()
                    fail("merlin_serve did not start")
                time.sleep(0.005)

    def stop(self):
        """Drain over the wire (SIGKILL as a last resort) and reap."""
        if self.rusage is not None:
            return
        if self.proc.returncode is None:
            try:
                w = Wire(self.socket, "admin")
                w.request({"type": "shutdown"})
                w.close()
            except (OSError, RuntimeError):
                self.proc.terminate()
        deadline = time.monotonic() + 60
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline += 60
            time.sleep(0.01)
        self.rusage = ru
        self.proc.returncode = os.waitstatus_to_exitcode(status)


def submit_and_wait(wire, s, rid, poll_queue=False):
    """Closed-loop submission: submit, then block on result.

    Returns (latency_s, reply, reply_bytes, queue_wait_s or None).
    With @p poll_queue, polls the ticket's state between the two to time
    how long it sat queued (the traced run only).
    """
    t0 = time.perf_counter()
    sub, _ = wire.request({"type": "submit", "id": rid, "spec": s,
                           "resume": True})
    if sub.get("type") != "submitted":
        return time.perf_counter() - t0, sub, 0, None
    qwait = None
    if poll_queue and sub.get("state") == "queued":
        while True:
            st, _ = wire.request({"type": "status", "id": rid})
            if st.get("state") != "queued":
                qwait = time.perf_counter() - t0
                break
    res, nbytes = wire.request({"type": "result", "id": rid})
    return time.perf_counter() - t0, res, nbytes, qwait


def warm_up(daemon, warm):
    """Submit the warm specs through the daemon itself and wait."""
    w = Wire(daemon.socket, "warmup")
    try:
        for i, s in enumerate(warm):
            reply, _ = w.request({"type": "submit", "id": i, "spec": s,
                                  "resume": True})
            if reply.get("type") != "submitted":
                fail("warm-up submit refused: %r" % reply)
        for i in range(len(warm)):
            reply, _ = w.request({"type": "result", "id": i})
            if reply.get("state") != "done":
                fail("warm-up campaign failed: %r" % reply)
    finally:
        w.close()


class ClientMix:
    """Closed-loop clients over the per-client lists, one connection each.

    run() plays every list on from where the previous run() stopped until
    its deadline passes; each client finishes the submission in flight.
    """

    def __init__(self, daemon, lists, table, poll_queue=False):
        self.lists, self.table, self.poll_queue = lists, table, poll_queue
        self.next = [0] * len(lists)
        self.errors = []
        self.wires = []
        for idx in range(len(lists)):
            try:
                self.wires.append(Wire(daemon.socket, "c%d" % idx))
            except (OSError, RuntimeError) as e:
                self.errors.append(repr(e))
                self.wires.append(None)

    def _client(self, idx, deadline, out):
        items = self.lists[idx]
        try:
            while self.next[idx] < len(items) and \
                    time.perf_counter() < deadline:
                rid = self.next[idx]
                self.next[idx] += 1
                kind, s = items[rid]
                lat, reply, nbytes, qwait = submit_and_wait(
                    self.wires[idx], s, rid, self.poll_queue)
                ok = (reply.get("type") == "result"
                      and reply.get("state") == "done"
                      and check(self.table, s, reply.get("result", {})))
                out.append({
                    "kind": kind, "latency": lat, "ok": ok,
                    "result": reply.get("result", {}),
                    "bytes": nbytes, "queue_wait": qwait,
                    "sections_hit": reply.get("sections_hit", 0)})
        except (OSError, RuntimeError, ValueError) as e:
            self.errors.append(repr(e))
            self.wires[idx].close()
            self.wires[idx] = None

    def run(self, seconds):
        """Returns (completed submissions, elapsed wall seconds)."""
        deadline = time.perf_counter() + seconds
        per_client = [[] for _ in self.lists]
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(i, deadline, per_client[i]))
                   for i, w in enumerate(self.wires) if w is not None]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        return [r for rs in per_client for r in rs], elapsed

    def exhausted(self):
        return all(w is None or n >= len(items) for w, n, items in
                   zip(self.wires, self.next, self.lists))

    def close(self):
        for w in self.wires:
            if w is not None:
                w.close()


# ------------------------------------------------------------- workloads

def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_setup(clock, fn, repeats):
    """Median reference-clock time of @p repeats set-ups.

    Returns (median, result of the last set-up).
    """
    times, last = [], None
    for _ in range(repeats):
        t, last = clock.timed(fn)
        times.append(t)
    return statistics.median(times), last


def batch_setup(bins, workload, seed, work):
    """Generate the inputs and validate them (every workload built)."""
    specs = batch_specs(workload, seed)
    manifest = os.path.join(work, "manifest.json")
    write_manifest(manifest, specs)
    r = subprocess.run([bins["perfbench_layers"], "build", manifest],
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("input validation failed")
    return specs, manifest


def run_batch(bins, workload, seed, seconds, work):
    clock = RefClock(bins)
    setup_s, (specs, manifest) = timed_setup(
        clock, lambda: batch_setup(bins, workload, seed, work), SETUP_REPEATS)
    table = reference(bins, workload, seed, specs, work)
    store = os.path.join(work, "store.json")
    walls, times, rss, attempted, failed = [], [], [], 0, 0
    clock.tick()
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        wall, ru, rc = run_suite(bins, manifest, store)
        clock.tick()
        walls.append(wall)
        times.append(wall * clock.scale())
        rss.append(ru.ru_maxrss / 1024.0)
        a, f = check_store(table, specs, store) if rc == 0 else \
            (len(specs), len(specs))
        attempted += a
        failed += f
    results = [e["result"] for e in load_store(store).values()]
    log("%s: %d iterations, walls %s s, clock %s GHz, times at %.1f GHz "
        "%s s" % (workload, len(times), " ".join("%.3f" % w for w in walls),
                  " ".join("%.2f" % g for g in clock.ghz), REF_GHZ,
                  " ".join("%.3f" % t for t in times)))
    # Rates are over the whole run (total work / total time), which
    # averages the host's second-to-second swings better than a median.
    return attempted, failed, end_to_end(
        setup_s, [t * 1e3 for t in times],
        len(specs) / statistics.mean(times), results,
        statistics.mean(times), statistics.median(rss))


def end_to_end(setup_s, latencies_ms, campaigns_per_s, results, time_s,
               rss_mb):
    """The end-to-end metrics every workload reports.

    A "submission" is one suite run for the batch workloads and one
    campaign submitted over the wire for serve_mixed.  @p results were
    classified in @p time_s; all times are at the reference clock.
    """
    faults = sum(r["initial_faults"] for r in results)
    injected = sum(r["injections"] for r in results)
    p90 = (statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
           if len(latencies_ms) > 1 else latencies_ms[0])
    log("submissions timed: %d" % len(latencies_ms))
    return {
        "setup_s": metric(setup_s, "s"),
        "faults_per_s": metric(faults / time_s, "1/s"),
        "campaigns_per_s": metric(campaigns_per_s, "1/s"),
        "reduction_x": metric(faults / max(injected, 1), "x"),
        "submit_ms_p50": metric(statistics.median(latencies_ms), "ms"),
        "submit_ms_p90": metric(p90, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def serve_setup(bins, warm, work):
    d = Daemon(bins, work, "serve")
    try:
        warm_up(d, warm)
    except BaseException:
        d.stop()
        raise
    return d


def run_serve(bins, seed, seconds, work):
    warm, lists = serve_inputs(seed)
    table = reference(bins, "serve_mixed", seed, warm + fresh_specs(lists),
                      work)
    clock = RefClock(bins)
    daemon, mix, times = None, None, []
    done, walls, elapsed = [], [], 0.0
    try:
        # Each set-up is a fresh daemon on a fresh store, warmed through
        # the daemon itself; the previous one is drained outside the
        # timed region.
        for _ in range(SERVE_SETUP_REPEATS):
            if daemon:
                daemon.stop()
                daemon = None
                clock.tick()
            t, daemon = clock.timed(lambda: serve_setup(bins, warm, work))
            times.append(t)
        mix = ClientMix(daemon, lists, table)
        # The mix runs in slices with the clients idle at the probes.
        deadline = time.perf_counter() + seconds
        while not mix.exhausted():
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            part, wall = mix.run(min(SERVE_SLICE_SECONDS, left))
            clock.tick()
            k = clock.scale()
            for r in part:
                r["latency"] *= k
            done += part
            walls.append(wall)
            elapsed += wall * k
    finally:
        if mix:
            mix.close()
        if daemon:
            daemon.stop()
    errors = mix.errors
    if errors:
        log("client errors:", errors)
    if not done:
        fail("no submission completed")
    if mix.exhausted():
        log("warning: serve_mixed lists ran out before the deadline")
    attempted = len(done) + len(errors)
    failed = sum(1 for r in done if not r["ok"]) + len(errors)
    kinds = {k: sum(1 for r in done if r["kind"] == k)
             for k in ("hit", "section", "shared", "own")}
    log("serve_mixed: %d submissions %r in %.2f s wall, clock %s GHz, "
        "%.2f s at %.1f GHz" % (len(done), kinds, sum(walls),
                                " ".join("%.2f" % g for g in clock.ghz),
                                elapsed, REF_GHZ))
    return attempted, failed, end_to_end(
        statistics.median(times), [r["latency"] * 1e3 for r in done],
        len(done) / elapsed, [r["result"] for r in done if r["ok"]],
        elapsed, daemon.rusage.ru_maxrss / 1024.0)


# ---------------------------------------------------------- traced run

def layer_run(bins, specs, work):
    """The layer driver over @p specs; returns its JSON output."""
    manifest = os.path.join(work, "layers.json")
    write_manifest(manifest, specs)
    r = subprocess.run([bins["perfbench_layers"], "trace", manifest,
                        os.path.join(work, "layers"), str(JOBS)],
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("layer driver failed")
    return json.loads(r.stdout.strip().splitlines()[-1])


def wire_probe(daemon, samples=200):
    """Global status round trips on an idle daemon."""
    w = Wire(daemon.socket, "probe")
    try:
        rtts = []
        for _ in range(samples):
            t0 = time.perf_counter()
            reply, _ = w.request({"type": "status"})
            rtts.append((time.perf_counter() - t0) * 1e6)
        return statistics.median(rtts), reply["stats"]
    finally:
        w.close()


def sched_metrics(done, stats, pool_busy_frac, rtt_us):
    waits = [r["queue_wait"] * 1e3 for r in done
             if r["queue_wait"] is not None]
    return {
        "sched.queue_wait_ms_p50": metric(
            statistics.median(waits) if waits else 0.0, "ms"),
        "sched.executed": metric(stats["executed"], "count"),
        "sched.cache_hits": metric(stats["cache_hits"], "count"),
        "sched.coalesced": metric(stats["coalesced"], "count"),
        "sched.section_hits": metric(
            sum(r["sections_hit"] for r in done), "count"),
        "sched.pool_busy_frac": metric(pool_busy_frac, "ratio"),
        "io.wire_rtt_us_p50": metric(rtt_us, "us"),
        "io.result_reply_bytes_mean": metric(
            statistics.mean(r["bytes"] for r in done) if done else 0.0,
            "bytes"),
    }


LAYER_UNITS = {
    "workloads.build_ms": "ms", "uarch.core_mcycles_per_s": "Mcycles/s",
    "uarch.golden_cycles": "cycles", "profile.ace_overhead_frac": "ratio",
    "profile.finalize_ms": "ms", "replay.record_overhead_frac": "ratio",
    "replay.trace_bytes": "bytes", "replay.masked_ratio": "ratio",
    "replay.skip_ratio": "ratio", "faultsim.golden_s": "s",
    "faultsim.golden_runs": "count", "faultsim.checkpoints": "count",
    "faultsim.capture_us_mean": "us", "faultsim.capture_bytes_copied":
    "bytes", "faultsim.inject_s": "s", "faultsim.inject_us_p50": "us",
    "faultsim.inject_us_p99": "us", "faultsim.injections": "count",
    "faultsim.sim_runs": "count", "faultsim.early_exit_ratio": "ratio",
    "faultsim.dedup_aliases": "count", "faultsim.quarantined": "count",
    "faultsim.restore_us_mean": "us", "faultsim.restore_bytes_copied":
    "bytes", "merlin.sample_ms": "ms", "merlin.group_ms": "ms",
    "merlin.finish_ms": "ms", "merlin.ace_prune_ratio": "ratio",
    "merlin.groups": "count", "io.store_save_ms_mean": "ms",
    "io.store_bytes": "bytes", "io.store_load_ms": "ms",
    "io.journal_append_us_mean": "us", "io.journal_fsyncs": "count",
    "obs.unattributed_frac": "ratio",
}


def avf_errors(results):
    """|MeRLiN AVF - full-injection AVF| per truth campaign, in pp."""
    errs = []
    for r in results:
        if r.get("survivor_truth") is None:
            continue
        n = r["initial_faults"]
        est_masked = r["merlin_estimate"][0]
        truth_masked = r["survivor_truth"][0] + r["ace_masked"]
        errs.append(abs(est_masked - truth_masked) / n * 100.0)
    return errs


def traced(bins, workload, seed, work):
    """Per-layer metrics: product run, layer driver, daemon pass."""
    if workload == "serve_mixed":
        warm, lists = serve_inputs(seed)
        table = reference(bins, workload, seed, warm + fresh_specs(lists),
                          work)
        specs = fresh_specs(lists)[:TRACED_FRESH_SPECS]
    else:
        specs = batch_specs(workload, seed)
        lists = None
        table = reference(bins, workload, seed, specs, work)

    # Product path, untraced, over exactly the specs the layer driver runs.
    manifest = os.path.join(work, "manifest.json")
    write_manifest(manifest, specs)
    store = os.path.join(work, "store.json")
    wall_u, ru, rc = run_suite(bins, manifest, store)
    if rc != 0:
        fail("suite failed (exit %d)" % rc)
    attempted, failed = check_store(table, specs, store)
    product = {identity(e["spec"]): counts_of(e["result"])
               for e in load_store(store).values()}

    # The same inputs through each layer's public functions.
    lay = layer_run(bins, specs, work)
    for c in lay["campaigns"]:
        attempted += 1
        failed += int(counts_of(c) != product.get(identity(c["spec"]))
                      or c["quarantined"] != 0)
    m = {k: metric(v, LAYER_UNITS[k]) for k, v in lay["metrics"].items()}
    m["obs.traced_wall_ratio"] = metric(lay["wall_s"] / wall_u, "ratio")
    errs = avf_errors([e["result"] for e in load_store(store).values()])
    m["merlin.avf_err_pp_mean"] = metric(
        statistics.mean(errs) if errs else 0.0, "pp")
    m["merlin.avf_err_pp_max"] = metric(max(errs) if errs else 0.0, "pp")

    # sched and io-wire layers through the daemon.
    if workload == "serve_mixed":
        d = serve_setup(bins, warm, work)
    else:
        d = Daemon(bins, work, "serve")
    try:
        if workload == "serve_mixed":
            mix = ClientMix(d, lists, table, poll_queue=True)
            try:
                done, _ = mix.run(TRACED_MIX_SECONDS)
            finally:
                mix.close()
            errors = mix.errors
        else:
            done, errors = daemon_batch(d, specs, table)
        rtt, stats = wire_probe(d)
    finally:
        d.stop()
    attempted += len(done) + len(errors)
    failed += sum(1 for r in done if not r["ok"]) + len(errors)
    # CPU time over available thread time: the pool's own busy counter
    # counts nested help-running twice, so it cannot give a fraction.
    busy = (ru.ru_utime + ru.ru_stime) / (wall_u * JOBS)
    m.update(sched_metrics(done, stats, busy, rtt))
    return attempted, failed, m


def daemon_batch(daemon, specs, table):
    """Submit a whole manifest over one connection, then collect it."""
    w = Wire(daemon.socket, "batch")
    done, errors = [], []
    try:
        sent = []
        for i, s in enumerate(specs):
            reply, _ = w.request({"type": "submit", "id": i, "spec": s,
                                  "resume": True})
            sent.append((time.perf_counter(), reply))
        waiting = {i for i, (_, r) in enumerate(sent)
                   if r.get("state") == "queued"}
        started = {}
        while waiting:
            for i in sorted(waiting):
                st, _ = w.request({"type": "status", "id": i})
                if st.get("state") != "queued":
                    started[i] = time.perf_counter()
                    waiting.discard(i)
        for i, s in enumerate(specs):
            reply, nbytes = w.request({"type": "result", "id": i})
            ok = reply.get("state") == "done" and \
                check(table, s, reply.get("result", {}))
            qwait = started[i] - sent[i][0] if i in started else None
            done.append({"ok": ok, "bytes": nbytes, "queue_wait": qwait,
                         "sections_hit": reply.get("sections_hit", 0)})
    except (OSError, RuntimeError, ValueError) as e:
        errors.append(repr(e))
    finally:
        w.close()
    return done, errors


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    bins = build()
    work = os.path.join(build_dir(), "run", "%s-%d" % (args.workload,
                                                       os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            attempted, failed, metrics = traced(bins, args.workload,
                                                args.seed, work)
        elif args.workload == "serve_mixed":
            attempted, failed, metrics = run_serve(bins, args.seed,
                                                   args.seconds, work)
        else:
            attempted, failed, metrics = run_batch(bins, args.workload,
                                                   args.seed, args.seconds,
                                                   work)
        trace = os.path.join(work, "layers", "trace.json")
        if os.path.exists(trace):
            os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
            shutil.copy(trace, os.path.join(
                build_dir(), "traces",
                "%s-seed%d.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
