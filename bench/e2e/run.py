#!/usr/bin/env python3
"""Served end-to-end benchmark of talus (see README.md in this directory).

Builds example_talus_server, e2e_loadgen and e2e_probe from this checkout,
starts the server unchanged on a fresh database, drives one workload over
the wire protocol, checks every reply, and reads the server's own outputs
(/proc/<pid>, GET /metrics, PROPERTY talus.*) at both ends of the timed
window.

  python3 bench/e2e/run.py                      # every workload, then traced
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --repeat N --out A.json [--out B.json]
  python3 bench/e2e/run.py --compare A.json B.json
  python3 bench/e2e/run.py --self-test

The last line of a single run is one JSON object: correct, attempted,
failed and metrics — the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import http.client
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"
SERVER = BUILD / "talus" / "example_talus_server"
LOADGEN = BUILD / "e2e_loadgen"
PROBE = BUILD / "e2e_probe"
TRACES = BUILD / "traces"

SETUPS = 3  # Set-ups per untraced run; setup_s is their median.
WARMUP_S = 2.0  # Closed loop before the timed window, not timed.
SAMPLE_S = 0.25  # Period of the database directory size samples.
# Background work counts as finished after this many idle polls in a row.
QUIESCE_POLLS = 3
QUIESCE_POLL_S = 0.05
QUIESCE_TIMEOUT_S = 60
MIN_FREE_BYTES = 2 << 30
# --compare never flags a change smaller than this absolute amount.
FLOORS = {"setup_s": 0.05}

# Children get SIGKILL if this script dies, even by SIGKILL.
DIE_WITH_PARENT = (["setpriv", "--pdeathsig", "KILL", "--"]
                   if shutil.which("setpriv") else [])


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


# ---- Preflight and build ---------------------------------------------------


def preflight():
    """Refuses hosts the numbers would not be comparable on; returns the
    1-minute load average at start."""
    for needed in ("CMakeLists.txt", "src", "examples/talus_server.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} is missing: run from a full "
                             "source checkout")
    cpus = len(os.sched_getaffinity(0))
    if cpus < 4:
        raise BenchError(f"needs 4 CPUs (4 client connections against 4 "
                         f"request workers), have {cpus}")
    BUILD.mkdir(parents=True, exist_ok=True)
    free = shutil.disk_usage(BUILD).free
    if free < MIN_FREE_BYTES:
        raise BenchError(f"needs {MIN_FREE_BYTES >> 30} GiB free under "
                         f"{BUILD}, have {free >> 20} MiB")
    load1 = os.getloadavg()[0]
    if load1 > 1:
        log(f"warning: 1-minute load average is {load1:.2f} at start; "
            "numbers may be noisy")
    return load1


def build():
    log_path = BUILD / "build.log"
    with open(log_path, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(len(os.sched_getaffinity(0))), "--target",
                      "example_talus_server", "e2e_loadgen", "e2e_probe"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


# ---- The server and what it reports ---------------------------------------


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise BenchError("server closed the connection")
        buf += chunk
    return buf


class Server:
    """example_talus_server on a fresh database, as an operator starts it."""

    def __init__(self, db):
        self.port = free_port()
        db.parent.mkdir(parents=True, exist_ok=True)
        self.log_path = db.parent / f"{db.name}.server.log"
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            DIE_WITH_PARENT + [str(SERVER), f"--path={db}",
                               f"--port={self.port}"],
            stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout=30):
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError("server exited at start:\n" +
                                 self.log_path.read_text())
            try:
                if self.http("/healthz").startswith("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("server not ready after %ds" % timeout)
            time.sleep(0.005)

    def quiesce(self):
        """Waits until no shard has a queued memtable, a queued or running
        flush or compaction, or an active subcompaction (talus.exec)."""
        deadline = time.monotonic() + QUIESCE_TIMEOUT_S
        idle = 0
        while idle < QUIESCE_POLLS:
            text = self.properties(["talus.exec"])["talus.exec"]
            busy = re.findall(r"\b(?:imm_queued|queued|running|active)=(\d+)",
                              text)
            if not busy:
                raise BenchError(f"talus.exec has no job counts: {text}")
            idle = idle + 1 if all(n == "0" for n in busy) else 0
            if time.monotonic() > deadline:
                raise BenchError(f"background work still running after "
                                 f"{QUIESCE_TIMEOUT_S}s:\n{text}")
            time.sleep(QUIESCE_POLL_S)

    def http(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def properties(self, names):
        """PROPERTY requests over the wire protocol (docs/PROTOCOL.md)."""
        out = {}
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=10) as sock:
            for request_id, name in enumerate(names, 1):
                payload = struct.pack("<I", len(name)) + name.encode()
                body = (bytes([0xC3, 1, 0x07, 0]) +
                        struct.pack("<Q", request_id) + payload)
                sock.sendall(struct.pack("<I", len(body)) + body)
                (length,) = struct.unpack("<I", recv_exact(sock, 4))
                frame = recv_exact(sock, length)
                (text_len,) = struct.unpack_from("<I", frame, 12)
                text = frame[16:16 + text_len].decode("utf-8", "replace")
                if frame[2] != 0:
                    raise BenchError(f"PROPERTY {name}: {text}")
                out[name] = text
        return out

    def proc_stats(self):
        """CPU seconds, read/write syscalls, context switches (all
        threads) and peak RSS of the server process."""
        pid = self.proc.pid
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        cpu_s = (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")
        io = dict(line.split(": ") for line in
                  Path(f"/proc/{pid}/io").read_text().splitlines())
        # Threads alive now; ShardedDB::Write's per-shard commit threads
        # come and go, and their switches leave the sum when they exit.
        ctx = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                status = Path(f"/proc/{pid}/task/{task}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if "ctxt_switches:" in line:
                    ctx += int(line.split()[1])
        hwm_kb = 0
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
        return {"cpu_s": cpu_s, "syscalls": int(io["syscr"]) +
                int(io["syscw"]), "ctx": ctx, "hwm_mb": hwm_kb / 1024}

    def engine_snapshot(self):
        metrics = {}
        for line in self.http("/metrics").splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                metrics[series] = float(value)
        props = self.properties(["talus.stats", "talus.num-runs"])
        stats = {}
        for token in props["talus.stats"].split():
            key, eq, value = token.partition("=")
            if eq:
                stats[key] = float(value)
        return {"metrics": metrics, "stats": stats,
                "runs": int(props["talus.num-runs"])}

    def stop(self):
        """SIGTERM (the server drains), SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def policy_design(model_text):
    """merge=... T=... of shard 0, as e2e_probe reports it."""
    start = model_text.find("design: ")
    if start < 0:
        return ""
    end = model_text.find(" levels=", start)
    return model_text[start + 8:end if end >= 0 else None]


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except FileNotFoundError:
                pass
    return total


class DirSampler(threading.Thread):
    """Bytes under the database directory, sampled every SAMPLE_S."""

    def __init__(self, path):
        super().__init__(daemon=True)
        self.path = path
        self.samples = []
        self.done = threading.Event()

    def run(self):
        while True:
            self.samples.append(dir_bytes(self.path))
            if self.done.wait(SAMPLE_S):
                return

    def finish(self):
        """The mean of the samples."""
        self.done.set()
        self.join()
        return statistics.mean(self.samples)


# ---- One served run --------------------------------------------------------


class Process:
    """A child process, killed if it outlives its deadline or an exception
    leaves the `with` block that holds it."""

    def __init__(self, cmd, timeout, **kw):
        self.name = Path(cmd[0]).name
        self.proc = subprocess.Popen(DIE_WITH_PARENT + cmd, text=True, **kw)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.timer.cancel()

    def line(self):
        text = self.proc.stdout.readline()
        if not text:
            raise BenchError(f"{self.name} exited with code "
                             f"{self.proc.wait()}")
        return text.strip()

    def send(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()


def served_run(run_dir, workload, seed, seconds, setups, shift=False):
    """Set up `setups` times (fresh server, preload, background work
    drained), keep the last server, then warm up and run the timed window
    with it."""
    setup_s = []
    server = None
    try:
        for k in range(setups):
            db = run_dir / f"{workload}-{k}"
            start = time.perf_counter()
            server = Server(db)
            server.wait_ready()
            with Process([str(LOADGEN), f"--port={server.port}",
                          f"--workload={workload}", f"--seed={seed}",
                          "--mode=preload"], 120,
                         stdout=subprocess.PIPE) as preload:
                result = json.loads(preload.line())
            if result["failed"]:
                raise BenchError(f"preload failed: {result['errors']}")
            server.quiesce()
            setup_s.append(time.perf_counter() - start)
            if k + 1 < setups:
                server.stop()
                shutil.rmtree(db)
        with Process(
                [str(LOADGEN), f"--port={server.port}",
                 f"--workload={workload}", f"--seed={seed}", "--mode=run",
                 f"--warmup={WARMUP_S}", f"--seconds={seconds}"] +
                (["--shift-expected-version"] if shift else []),
                WARMUP_S + seconds + 120, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE) as gen:
            run = run_window(server, gen, db)
        run["setup_s"] = setup_s
        return run
    finally:
        if server is not None:
            server.stop()


def run_window(server, gen, db):
    """Drives e2e_loadgen through the timed window, reading the server's
    counters at its start and at its end."""
    if gen.line() != "ready":
        raise BenchError("e2e_loadgen: expected 'ready'")
    # Engine counters first and /proc last at the start, the reverse at the
    # end, so the scrapes stay outside the measured deltas.
    engine = [server.engine_snapshot()]
    proc = [server.proc_stats()]
    sampler = DirSampler(db)
    sampler.start()
    gen.send("go")
    if gen.line() != "done":
        raise BenchError("e2e_loadgen: expected 'done'")
    mean_bytes = sampler.finish()
    proc.append(server.proc_stats())
    engine.append(server.engine_snapshot())
    design = policy_design(server.properties(["talus.model"])["talus.model"])
    gen.send("verify")
    result = json.loads(gen.line())
    return {"result": result, "engine": engine, "proc": proc,
            "mean_bytes": mean_bytes, "design": design,
            "shards": int(engine[1]["stats"]["shards"])}


def ratio(num, den):
    return num / den if den > 0 else 0.0


def histogram_percentile(m0, m1, op, p):
    """p-th percentile of talus_latency_us{op} over the window, from the
    difference of the cumulative buckets, interpolated inside a bucket."""
    prefix = f'talus_latency_us_bucket{{op="{op}",le="'
    buckets = []
    for series, count in m1.items():
        if series.startswith(prefix):
            le = series[len(prefix):-2]
            buckets.append((math.inf if le == "+Inf" else float(le),
                            count - m0.get(series, 0)))
    buckets.sort()
    total = buckets[-1][1] if buckets else 0
    if total <= 0:
        return 0.0
    target = p / 100 * total
    prev_le, prev_count = 0.0, 0.0
    for le, count in buckets:
        if count >= target:
            if math.isinf(le):
                return prev_le
            return prev_le + (le - prev_le) * (target - prev_count) / (
                count - prev_count)
        prev_le, prev_count = le, count
    return prev_le


def served_metrics(run):
    """Every metric the served run gives: the end-to-end ones and the
    server-side per-layer ones, read from the server's own outputs."""
    e0, e1 = run["engine"]
    m0, m1 = e0["metrics"], e1["metrics"]
    p0, p1 = run["proc"]
    res = run["result"]
    ops = res["ops"]
    window = res["window_s"]
    primary = res["latency"][res["primary"]]

    def delta(family, labels=""):
        """Change over the window of the family's series that carry
        `labels`, summed."""
        return sum(v - m0.get(k, 0) for k, v in m1.items()
                   if k.partition("{")[0] == family and labels in k)

    def total(family):
        """The family's series summed, since the server started."""
        return sum(v for k, v in m1.items() if k.partition("{")[0] == family)

    def stat(key):
        return e1["stats"][key] - e0["stats"][key]

    lookups = delta("talus_amp_lookups_total")
    probes = delta("talus_amp_files_probed_total")
    negatives = delta("talus_amp_filter_negatives_total")
    false_pos = delta("talus_amp_bloom_fp_total")
    busy_us = (delta("talus_latency_us_sum", 'op="compaction"') +
               delta("talus_latency_us_sum", 'op="flush"'))
    return {
        # End to end.
        "write_amp": ratio(total("talus_amp_bytes_written_total"),
                           total("talus_amp_user_payload_bytes_total")),
        "read_amp": ratio(probes, lookups),
        "space_amp": run["mean_bytes"] / res["live_bytes"],
        "rss_mb": p1["hwm_mb"],
        "setup_s": statistics.median(run["setup_s"]),
        # Per layer.
        "served.throughput_kops": ops / window / 1e3,
        "served.p50_us": primary["p50_us"],
        "served.p99_us": primary["p99_us"],
        "server.cpu_us_per_op": (p1["cpu_s"] - p0["cpu_s"]) * 1e6 / ops,
        "server.syscalls_per_op": (p1["syscalls"] - p0["syscalls"]) / ops,
        "server.ctx_switches_per_op": (p1["ctx"] - p0["ctx"]) / ops,
        "server.coalesced_ops_per_batch": ratio(
            delta("talus_server_coalesced_ops_total"),
            delta("talus_server_coalesced_batches_total")),
        "write.group_size_avg": ratio(stat("batches"),
                                      stat("group_commits")),
        "write.group_wait_avg_us": ratio(stat("write_queue_wait_us"),
                                         stat("batches")),
        "wal.append_p99_us": histogram_percentile(m0, m1, "wal_append", 99),
        "mem.hit_rate": ratio(delta("talus_amp_memtable_hits_total"),
                              lookups),
        "read.blocks_per_get": ratio(delta("talus_amp_block_reads_total"),
                                     lookups),
        "filter.negative_rate": ratio(negatives, probes),
        "filter.fp_rate": ratio(false_pos, false_pos + negatives),
        "cache.block_hit_rate": ratio(stat("bc_hits"),
                                      stat("bc_hits") + stat("bc_misses")),
        "cache.table_hit_rate": ratio(stat("tc_hits"),
                                      stat("tc_hits") + stat("tc_misses")),
        "compaction.write_amp": ratio(
            delta("talus_flush_bytes_written_total") +
            delta("talus_compaction_bytes_written_total"),
            delta("talus_amp_user_payload_bytes_total")),
        "compaction.busy_s_per_s": busy_us / 1e6 / window,
        "compaction.p99_ms": histogram_percentile(m0, m1, "compaction",
                                                  99) / 1e3,
        "exec.stall_ms_per_s": delta("talus_stall_micros_total") / 1e3 /
        window,
        "exec.stops": delta("talus_stalls_total", 'regime="stop"'),
        "policy.runs": e1["runs"],
    }


def probe_run(run_dir, workload, seed, seconds, kops):
    TRACES.mkdir(parents=True, exist_ok=True)
    trace = TRACES / f"trace_{workload}.jsonl"
    with Process(
            [str(PROBE), f"--workload={workload}", f"--seed={seed}",
             f"--db={run_dir / (workload + '-probe')}", f"--trace={trace}",
             f"--warmup={WARMUP_S}", f"--seconds={seconds}",
             f"--kops={kops}"],
            WARMUP_S + seconds + 150, stdout=subprocess.PIPE) as probe:
        result = json.loads(probe.line())
    result["trace"] = str(trace)
    return result


# ---- Single runs -----------------------------------------------------------


# Client-side timings: printed with every run and kept by --repeat, but not
# end-to-end metrics (README.md, "Why the timings are not gated").
TIMINGS = ("served.throughput_kops", "served.p50_us", "served.p99_us",
           "server.cpu_us_per_op")


def print_run(run, values):
    res = run["result"]
    log(f"  setups " + " ".join(f"{s:.3f}" for s in run["setup_s"]) + " s")
    log(f"  window {res['window_s']:.2f} s, {res['ops']} ops, "
        f"attempted {res['attempted']}, failed {res['failed']} "
        f"(error_rate {ratio(res['failed'], res['attempted']):.3g})")
    for op, lat in res["latency"].items():
        log(f"  {op:>4}: n={lat['n']} p50={lat['p50_us']:.1f} us "
            f"p99={lat['p99_us']:.1f} us p99.9={lat['p999_us']:.1f} us")
    log("  " + ", ".join(f"{name} {values[name]:.4g}" for name in TIMINGS))
    puts = res["latency"].get("put", {}).get("n", 0)
    if puts < 0.95 * res["puts_per_s"] * res["window_s"]:
        log(f"  warning: {puts} PUTs, behind the schedule of "
            f"{res['puts_per_s']:.0f}/s; the tree's shape will differ")
    for err in res["errors"]:
        log(f"  error: {err}")


def single_run(bench, workload, seed, seconds, trace, shift=False):
    """One run as the benchmark contract defines it; returns the result
    object (correct, attempted, failed, metrics) and the run's timings."""
    specs = bench["per_layer" if trace else "end_to_end"]
    run_dir = BUILD.parent / f"e2e-run-{os.getpid()}"
    try:
        if not trace:
            run = served_run(run_dir, workload, seed, seconds, SETUPS, shift)
            values = served_metrics(run)
            log(f"[{workload} seed={seed}]")
            print_run(run, values)
            attempted = run["result"]["attempted"]
            failed = run["result"]["failed"]
            mismatch = None
        else:
            # Half the window served, half in the probe.
            run = served_run(run_dir, workload, seed, seconds / 2, 1, shift)
            values = served_metrics(run)
            log(f"[{workload} seed={seed} traced] served run:")
            print_run(run, values)
            probe = probe_run(run_dir, workload, seed, seconds / 2,
                              values["served.throughput_kops"])
            log(f"  probe: {probe['spans']} {run['result']['primary']} "
                f"spans at {probe['kops']:.1f} kops, trace {probe['trace']}")
            if probe["failed"]:
                log(f"  probe error: {probe['error']}")
            values.update(probe["metrics"])
            values["server.residual_us"] = (values["served.p50_us"] -
                                            probe["metrics"]["shard.p50_us"])
            attempted = run["result"]["attempted"] + probe["attempted"]
            failed = run["result"]["failed"] + probe["failed"]
            mismatch = None
            if (probe["design"], probe["shards"]) != (run["design"],
                                                      run["shards"]):
                mismatch = (f"probe runs {probe['design']} on "
                            f"{probe['shards']} shards, the server "
                            f"{run['design']} on {run['shards']}")
                log("  error: " + mismatch)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
        log(f"  {spec['name']:<34} {values[spec['name']]:>14.6g} "
            f"{spec['unit']}")
    result = {"correct": failed == 0 and mismatch is None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, {name: values[name] for name in TIMINGS}


# ---- Repeats and comparison ------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def build_meta(seconds, load1):
    meta = {"seconds": seconds, "setups": SETUPS, "warmup_s": WARMUP_S,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_1m": load1,
            "git_sha": "unknown", "compiler": "unknown",
            "build_type": "unknown"}
    try:
        meta["git_sha"] = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                meta["build_type"] = line.split("=", 1)[1]
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
                meta["compiler"] = subprocess.run(
                    [compiler, "--version"], capture_output=True,
                    text=True).stdout.splitlines()[0]
    return meta


def run_values(run):
    """A --repeat run's end-to-end metrics and timings, by name."""
    values = {k: m["value"] for k, m in run["metrics"].items()}
    values.update(run["timings"])
    return values


def summarize(bench, runs_by_workload):
    """Per (metric, workload): median, quartiles, spreads; returns them.
    The timings are listed too, with no bound."""
    bounds = {s["name"]: s["bound"] for s in bench["end_to_end"]}
    summary = {}
    for workload, runs in runs_by_workload.items():
        for name in list(bounds) + list(TIMINGS):
            values = [run_values(r)[name] for r in runs]
            q1, med, q3 = quartiles(values)
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3,
                "iqr_spread": (q3 - q1) / med if med else 0.0,
                "range_spread": (max(values) - min(values)) / med
                if med else 0.0}
    log(f"{'workload':<12} {'metric':<24} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = " !" if bound and s["iqr_spread"] > bound / 3 else ""
            log(f"{workload:<12} {name:<24} {s['median']:>12.5g} "
                f"{s['q1']:>12.5g} {s['q3']:>12.5g} "
                f"{s['iqr_spread']:>8.3f} {s['range_spread']:>9.3f} "
                f"{bound if bound else '-':>6}{flag}")
    return summary


def repeat(bench, workloads, n, seed0, seconds, outs, load1):
    """n rounds over the workloads, seeds seed0, seed0+1, ...; round i goes
    to outs[i % len(outs)], so two outputs are sets of the same code taken
    in alternation, under the same host conditions."""
    meta = build_meta(seconds, load1)
    sets = [{"meta": meta, "runs": {}} for _ in outs or [None]]
    every = {}
    failed = 0
    for i in range(n):
        for workload in workloads:
            r, timings = single_run(bench, workload, seed0 + i, seconds, 0)
            r["seed"] = seed0 + i
            r["timings"] = timings
            sets[i % len(sets)]["runs"].setdefault(workload, []).append(r)
            every.setdefault(workload, []).append(r)
            failed += r["failed"] + (0 if r["correct"] else 1)
    log(f"all {n} rounds:")
    summarize(bench, every)
    for out, results in zip(outs or [], sets):
        results["summary"] = summarize(bench, results["runs"])
        Path(out).write_text(json.dumps(results, indent=1) + "\n")
        log(f"wrote {out}")
    return failed == 0


def compare(bench, path_a, path_b):
    """Applies BENCHMARK.json's bounds to the medians of B against base A."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    ok = True
    for workload in a["runs"]:
        cells = []
        for spec in bench["end_to_end"]:
            name = spec["name"]
            va = [r["metrics"][name]["value"] for r in a["runs"][workload]]
            vb = [r["metrics"][name]["value"] for r in
                  b["runs"].get(workload, [])]
            if not vb:
                cells.append(f"{name} missing")
                ok = False
                continue
            q1, ma, q3 = quartiles(va)
            mb = statistics.median(vb)
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            spread = (q3 - q1) / ma
            b_beats_all = (max(vb) < min(va) if sign > 0
                           else min(vb) > max(va))
            if spread > spec["bound"] and not b_beats_all:
                verdict = "unresolved"
            elif (worse > spec["bound"] and
                  abs(mb - ma) > FLOORS.get(name, 0)):
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            ok = ok and verdict == "ok"
            cells.append(f"{name} {ma:.4g}->{mb:.4g} ({-worse:+.1%}) "
                         f"{verdict}")
        failures = sum(r["failed"] for r in b["runs"].get(workload, []))
        if failures:
            ok = False
            cells.append(f"{failures} failed ops")
        log(f"{workload}: " + "; ".join(cells))
    log("compare: " + ("all within bounds" if ok else "NOT within bounds"))
    return ok


def self_test():
    """A run whose expected versions are shifted by one must fail."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         "read_hot", "--seed", "1", "--seconds", "2", "--trace", "0",
         "--shift-expected-version"],
        capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    error_rate = ratio(result["failed"], result["attempted"])
    log(f"self-test: exit code {proc.returncode}, error_rate "
        f"{error_rate:.3f}, correct {result['correct']}")
    return proc.returncode != 0 and error_rate > 0 and not result["correct"]


# ---- Main ------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out", action="append")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--shift-expected-version", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        return 0 if compare(bench, *args.compare) else 1
    names = [w["name"] for w in bench["workloads"]]
    if args.workload and args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    seconds = args.seconds or bench["run_seconds"]
    load1 = preflight()
    build()
    if args.self_test:
        return 0 if self_test() else 1
    if args.repeat:
        ok = repeat(bench, [args.workload] if args.workload else names,
                    args.repeat, args.seed, seconds, args.out, load1)
        return 0 if ok else 1
    if args.workload:
        result, _ = single_run(bench, args.workload, args.seed, seconds,
                               args.trace, args.shift_expected_version)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    ok = True
    for trace in (0, 1):
        for workload in names:
            result, _ = single_run(bench, workload, args.seed, seconds, trace)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
