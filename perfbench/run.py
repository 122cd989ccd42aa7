#!/usr/bin/env python3
"""End-to-end benchmark of the tdfa daemon and batch engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the CLI and
the benchmark helper (perfbench/pbtool.ml) with dune, writes the seeded
inputs and their oracles into a scratch directory under the checkout,
drives the real entry points (a `tdfa serve` daemon over its Unix socket
from this single-threaded client, or `tdfa batch --jobs 1` processes),
checks every response, and prints a human-readable table followed by one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, from pbtool's in-process
traced run of the same request stream. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve-kernels", "serve-floorplan", "batch-corpus")
SETUP_STARTS = 21  # daemon/batch starts per run; setup_s is their median
BUILD_TARGETS = ["./bin/tdfa_cli.exe", "./perfbench/pbtool.exe"]
TDFA = os.path.join("_build", "default", "bin", "tdfa_cli.exe")
PBTOOL = os.path.join("_build", "default", "perfbench", "pbtool.exe")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build():
    for need in ("dune-project", "bin/tdfa_cli.ml", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail_setup("not a tdfa source checkout (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", *BUILD_TARGETS],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail_setup("build failed", 1)


def pbtool(*args, capture=False):
    r = subprocess.run([PBTOOL, *map(str, args)], check=True,
                       stdout=subprocess.PIPE if capture else sys.stderr)
    return r.stdout.decode() if capture else None


def calib_ms():
    return float(pbtool("calib", capture=True))


def percentiles(values):
    """p50, p90 and p99, interpolating between closest ranks."""
    q = statistics.quantiles(values, n=100, method="inclusive")
    return {"req_p50_ms": q[49], "req_p90_ms": q[89], "req_p99_ms": q[98]}


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------


class Daemon:
    """One `tdfa serve` process and one client connection to it."""

    def __init__(self, sock_path):
        self.sock_path = sock_path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([TDFA, "serve", "-s", sock_path],
                                     stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        try:
            if b"listening" not in line:
                raise RuntimeError("daemon did not start: %r" % line)
            self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.conn.connect(sock_path)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.buf = b""

    def request(self, frame):
        """Send one frame, return (reply bytes, seconds)."""
        t0 = time.perf_counter()
        self.conn.sendall(frame)
        buf = self.buf
        while True:
            i = buf.find(b"\n")
            if i >= 0:
                break
            chunk = self.conn.recv(1 << 20)
            if not chunk:
                raise RuntimeError("daemon closed the connection")
            buf += chunk
        dt = time.perf_counter() - t0
        self.buf = buf[i + 1:]
        return buf[:i], dt

    def close(self):
        try:
            self.request(b'{"op":"shutdown"}\n')
        finally:
            self.conn.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def check_serve(expect, replies):
    """Check one pass of replies against the oracle lines; return the
    number of failed operations."""
    failed = 0
    last_analyze = None
    for exp, raw in zip(expect, replies):
        ok = False
        try:
            r = json.loads(raw)
            out = r.get("output", "")
            kind = exp["check"]
            if not r.get("ok"):
                ok = False
            elif kind == "analyze":
                last_analyze = out
                ok = "predicted worst-case map (peak %s K)" % exp["peak"] in out
            elif kind == "reanalyze":
                ok = out == last_analyze
            elif kind == "predict":
                ok = r["peak_lo_k"] <= exp["peak"] <= r["peak_hi_k"]
            elif kind == "lint":
                ok = out.startswith("lint ")
            elif kind == "trace":
                ok = ("measured steady peak (RC simulator): %s K" % exp["peak"]
                      in out)
            elif kind == "place":
                got = float(re.search(r"placement peak ([0-9.]+) K", out)[1])
                rr = re.search(r"round-robin baseline peak ([0-9.]+) K", out)[1]
                ok = rr == exp["rr_peak"] and got <= float(rr)
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += 0 if ok else 1
    return failed


class SetupProbe:
    """Set-up samples spread over the measured window: between passes, a
    start is taken whenever fewer than their share of SETUP_STARTS have
    been, so setup_s sees the same host phases as the passes it sits
    between. `start()` performs one start and returns its seconds."""

    def __init__(self, start, seconds):
        self.start = start
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.samples = []

    def between_passes(self):
        share = min(1.0, (time.perf_counter() - self.t0) / self.seconds)
        while len(self.samples) < SETUP_STARTS * share:
            self.samples.append(self.start())

    def median(self):
        while len(self.samples) < SETUP_STARTS:
            self.samples.append(self.start())
        return statistics.median(self.samples)


def daemon_start(work):
    d = Daemon(os.path.join(work, "setup.sock"))
    d.close()
    return d.ready_s


def run_serve(work, seconds):
    with open(os.path.join(work, "requests.jsonl"), "rb") as f:
        frames = [line for line in f if line.strip()]
    with open(os.path.join(work, "expect.jsonl")) as f:
        expect = [json.loads(line) for line in f if line.strip()]
    assert len(frames) == len(expect)
    d = Daemon(os.path.join(work, "d.sock"))
    try:
        # One unmeasured pass: the daemon's lazy state settles first.
        warm = [d.request(fr)[0] for fr in frames]
        passes = [warm]
        timings = []
        setup = SetupProbe(lambda: daemon_start(work), seconds)
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            setup.between_passes()
            replies, lat = [], []
            for fr in frames:
                reply, dt = d.request(fr)
                replies.append(reply)
                lat.append(dt)
            passes.append(replies)
            timings.append(lat)
        rss = vm_hwm_mb(d.proc.pid)
        setup_s = setup.median()
    finally:
        d.close()
    failed = sum(check_serve(expect, p) for p in passes)
    attempted = len(frames) * len(passes)
    lat = [dt for pass_lat in timings for dt in pass_lat]
    ms = [x * 1000.0 for x in lat]
    return {
        "attempted": attempted,
        "failed": failed,
        "requests": len(ms),
        "passes": len(timings),
        "setup_s": setup_s,
        "req_per_s": len(lat) / sum(lat),
        **percentiles(ms),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# batch workload
# ---------------------------------------------------------------------------


def timed_batch(files, cache, out_path):
    """One `tdfa batch --jobs 1` process, with an on-disk cache unless
    `cache` is None: (seconds, peak RSS MB, stdout)."""
    cache_args = [] if cache is None else ["--cache", cache]
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen([TDFA, "batch", "--jobs", "1", *cache_args,
                              *files], stdout=out)
        _, status, ru = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        raise RuntimeError("tdfa batch exited %d" % p.returncode)
    with open(out_path) as f:
        return dt, ru.ru_maxrss / 1024.0, f.read()


def run_batch(work, seconds):
    corpus = os.path.join(work, "corpus")
    edits = os.path.join(work, "edits")
    names = sorted(os.listdir(corpus))
    edited = set(os.listdir(edits))
    live = os.path.join(work, "live")
    cache = os.path.join(work, "cache")
    out = os.path.join(work, "out.txt")
    files = [os.path.join(live, n) for n in names]

    # Set-up: a batch of one trivial function, without a cache so that
    # no fsync of a cache entry is timed.
    tiny = os.path.join(work, "setup.tdfa")

    def one_pass():
        shutil.rmtree(live, ignore_errors=True)
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(corpus, live)
        cold_s, cold_rss, cold = timed_batch(files, cache, out)
        lat_ms = [float(x) for x in
                  pbtool("jobtimes", cache, *files, capture=True).split()]
        for n in edited:
            shutil.copyfile(os.path.join(edits, n), os.path.join(live, n))
        rerun_s, rerun_rss, rerun = timed_batch(files, cache, out)
        return {"cold_s": cold_s, "rerun_s": rerun_s,
                "rss": max(cold_rss, rerun_rss), "cold": cold,
                "rerun": rerun, "lat_ms": lat_ms}

    warm = one_pass()
    passes = []
    setup = SetupProbe(lambda: timed_batch([tiny], None, out)[0], seconds)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        setup.between_passes()
        passes.append(one_pass())
    setup_s = setup.median()

    # Oracle: every job converges, cold reports are identical pass to
    # pass, and every unchanged job keeps its cold fingerprint.
    failed = 0
    attempted = 0
    for p in [warm] + passes:
        cl, rl = p["cold"].splitlines(), p["rerun"].splitlines()
        attempted += 2 * len(names)
        if (len(cl) != len(names) or len(rl) != len(names)
                or p["cold"] != warm["cold"]):
            failed += 2 * len(names)
            continue
        for n, c, r in zip(names, cl, rl):
            failed += 0 if " converged " in c else 1
            failed += 0 if (n in edited or c == r) and " converged " in r else 1
    cold_s = [p["cold_s"] for p in passes]
    lat_ms = [x for p in passes for x in p["lat_ms"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "jobs": len(names),
        "requests": len(lat_ms),
        "setup_s": setup_s,
        "req_per_s": len(names) * len(passes) / sum(cold_s),
        **percentiles(lat_ms),
        "cold_s": statistics.median(cold_s),
        "rerun_s": statistics.median(p["rerun_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def declared_metrics(key):
    """(name, unit) pairs of one metric list of BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[key]]


def traced_run(workload, seed, work, seconds):
    """The --trace 1 run: a short untraced run of the real entry points,
    then pbtool's in-process traced replay of the same stream. Returns
    the untraced result extended with the per-layer metrics."""
    if workload == "batch-corpus":
        res = run_batch(work, seconds / 4)
        untraced_ms = 1000.0 * (res["cold_s"] + res["rerun_s"]) / (2 * res["jobs"])
    else:
        res = run_serve(work, seconds / 4)
        untraced_ms = 1000.0 / res["req_per_s"]
    traced = json.loads(pbtool("layers", workload, seed, work, seconds / 2,
                               capture=True))
    res.update(traced["metrics"])
    res["transport_overhead_ms"] = untraced_ms - res["request_ms"]
    res["exact_repeat"] = traced["exact_repeat"]
    res["attempted"] += traced["requests"]
    res["failed"] += 0 if traced["exact_repeat"] else 1
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # A terminated run still unwinds: the daemon is shut down and waited
    # for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    work = os.path.join(".pbwork", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        pbtool("gen", a.workload, a.seed, work)
        calib_before = calib_ms()
        if a.trace:
            res = traced_run(a.workload, a.seed, work, a.seconds)
        elif a.workload == "batch-corpus":
            res = run_batch(work, a.seconds)
        else:
            res = run_serve(work, a.seconds)
        calib_after = calib_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".pbwork")
        except OSError:
            pass
    res["fail_ratio"] = res["failed"] / res["attempted"]
    res["host.calib_ms"] = (calib_before + calib_after) / 2
    for k, v in sorted(res.items()):
        print("%-24s %s" % (k, v))
    declared = declared_metrics("per_layer" if a.trace else "end_to_end")
    metrics = {name: {"value": res[name], "unit": unit}
               for name, unit in declared}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
