#!/usr/bin/env python3
"""The repository benchmark: three workloads against the release `hotspots`.

    python3 perfbench/run.py --workload fig5c-nat --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root. It builds the default release binary
(`cargo build --release -p hotspots-experiments --bin hotspots`, no
`--features`) and the in-process harness under `perfbench/harness`, then
measures the workload for `--seconds` and checks every output.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
replica of the workload and prints the per-layer metrics. Each metric is
printed by name with unit, median and sample count; the last line of
standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
The exit code is 1 when any output check failed, 2 on a usage or build
error. `--workload all` also checks each workload's preset at the scale
of `results/golden/`.

The seed drives the serve-mix catalogue and request order only;
fig5c-nat and million-slammer are the paper's fixed presets, so their
reports can be compared with `perfbench/expected/`.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("fig5c-nat", "million-slammer", "serve-mix")

# The default seed is the tuning seed; confirm claims on the held-out
# seed 20061 as well.
TUNING_SEED = 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "targeting.fill_ns": "ns",
    "netmodel.route_ns": "ns",
    "netmodel.delivered_ratio": "ratio",
    "sim.lookup_ns": "ns",
    "sim.lookup_hit_ratio": "ratio",
    "sim.population_synth_s": "s",
    "sim.population_build_s": "s",
    "sim.store_bytes": "bytes",
    "sim.engine.target_gen_s": "s",
    "sim.engine.routing_s": "s",
    "sim.engine.lookup_s": "s",
    "sim.engine.observe_s": "s",
    "sim.engine.merge_s": "s",
    "sim.engine.probes_per_s": "1/s",
    "telescope.observe_ns": "ns",
    "telescope.sensor_hit_ratio": "ratio",
    "core.subrun_s.max": "s",
    "core.subrun_s.min": "s",
    "scenario.runset_util": "ratio",
    "scenario.parse_us": "us",
    "scenario.canon_hash_us": "us",
    "scenario.build_s": "s",
    "telemetry.report_us": "us",
    "serve.store_get_us": "us",
    "serve.store_insert_ms": "ms",
    "serve.evictions": "count",
    "serve.hit_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p90_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.requests_per_s": "1/s",
    "experiments.render_ms": "ms",
    "trace.overhead_pct": "%",
}

# fig5c-nat: the `fig5c --quick` study with its detection window cut
# from 3000 to 800 simulated seconds so that one run takes ~2.5 s;
# NAT fraction, placements and sensor counts are the preset's.
FIG5C_MAX_TIME = 800.0

# serve-mix: the catalogue outgrows the store, so a session mixes
# hits, misses and evictions (about three hits per miss).
SERVE_PRESETS = (
    "xmode-uniform",
    "xmode-blaster",
    "xmode-slammer",
    "xmode-codered2-nat",
    "xmode-hitlist",
    "xmode-hitlist-latency",
    "xmode-outage",
    "xmode-blackhole",
    "fig5-outage",
)
SERVE_CATALOGUE = 36
SERVE_MAX_ENTRIES = 12
SERVE_REQUESTS = 240
SERVE_ZIPF_S = 1.3
SERVE_SHAPE_SEED = 7

# untraced units a traced run also times, after one warm-up unit: the
# reference for the tracing overhead
TRACE_UNTRACED_UNITS = 3

REPORT_VOLATILE = ("wall_seconds", "peak_step_seconds", "phases")

# set-up repetitions after each timed unit
SETUP_REPS = {"fig5c-nat": 5, "million-slammer": 1, "serve-mix": 5}

CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A usage, build or environment failure: exit 2, no result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def rank(n, p):
    """Nearest rank (1-based) of percentile `p` among `n` samples, in
    exact arithmetic so that e.g. p99.9 of 10000 is rank 9990."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES with at least ten of `n` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if n - rank(n, p) >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(values)[rank(len(values), p) - 1]


def summary(values):
    """`median (n=.., min .., max ..)` with the highest resolvable tail."""
    n = len(values)
    text = f"{statistics.median(values):.6g} (n={n}, min {min(values):.6g}, max {max(values):.6g}"
    tail = tail_percentile(n)
    if tail is not None and tail > 50.0:
        text += f", p{tail:g} {percentile(values, tail):.6g}"
    return text + ")"


# ---------------------------------------------------------------------------
# Build and fingerprint
# ---------------------------------------------------------------------------


def target_dir(root):
    return root / os.environ.get("CARGO_TARGET_DIR", "target")


def check_checkout(root):
    for rel in ("Cargo.toml", "crates/experiments/Cargo.toml", "perfbench/harness/Cargo.toml"):
        if not (root / rel).is_file():
            raise BenchError(f"{rel} not found: run from the repository root")


def build(root):
    """Builds both binaries; cargo's output goes to stderr."""
    cmds = [
        ["cargo", "build", "--release", "--offline", "-p", "hotspots-experiments", "--bin", "hotspots"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/harness/Cargo.toml"],
    ]
    # one target dir for both workspaces, so the harness lands beside `hotspots`
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir(root).resolve()))
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir(root) / "release"
    return release / "hotspots", release / "perfbench-harness"


def compiled_features(root):
    """Cargo features of the first-party crates in the measured binary."""
    proc = subprocess.run(
        ["cargo", "tree", "--offline", "-p", "hotspots-experiments", "-e", "normal",
         "-f", "{p} {f}", "--prefix", "none"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    features = {}
    for line in proc.stdout.splitlines():
        m = re.match(r"^(hotspots[\w-]*) v\S+ \([^)]*\) ?([\w,-]*)", line)
        if m and m.group(2):
            features[m.group(1)] = m.group(2)
    return features


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tool_version(cmd, root):
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


SOURCE_DIRS = ("crates", "vendor", "perfbench/harness")


def source_digest(root):
    """SHA-256 over the sources the two binaries are built from; names
    the build when the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in SOURCE_DIRS:
        files += [p for p in (root / top).rglob("*") if p.is_file() and "target" not in p.relative_to(root).parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root, workload):
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    commit = tool_version(["git", "rev-parse", "HEAD"], root) if (root / ".git").exists() else "unknown"
    threads = {"fig5c-nat": cores, "million-slammer": 1, "serve-mix": 1}[workload]
    return {
        "cores": cores,
        "cpu_model": cpu_model(),
        "rustc": tool_version(["rustc", "--version"], root),
        "git_commit": commit,
        "source_sha256": source_digest(root),
        "features": compiled_features(root),
        "effective_threads": threads,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid):
    """Peak resident set (`VmHWM`) of a live process in MB, or None."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


class PeakRss(threading.Thread):
    """Samples a child's `VmHWM` every 10 ms until `finish`.

    The child's `ru_maxrss` cannot serve: a child spawned from this
    process counts the interpreter's own high-water mark from before its
    `exec`, which hides the peak of any program smaller than Python."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0.0
        self.done = threading.Event()
        self.start()

    def run(self):
        while not self.done.is_set():
            self.sample()
            self.done.wait(0.01)

    def sample(self):
        value = vm_hwm_mb(self.pid)
        if value is not None:
            self.peak = max(self.peak, value)

    def finish(self):
        """Stops sampling; call before the child is reaped."""
        self.done.set()
        self.join()
        return self.peak


def measured_run(cmd, root, stderr_path):
    """Runs `cmd` to completion: (wall seconds, peak RSS in MB, exit, stdout)."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=err, text=True)
        peak = PeakRss(proc.pid)
        try:
            out = proc.stdout.read()
            rss = peak.finish()
            code = proc.wait()
            wall = time.perf_counter() - t0
        except BaseException:
            peak.finish()
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
    return wall, rss, code, out


def harness(binary, args, root, work):
    """Runs the harness and returns its result object (the last line)
    with the process's wall time added as `wall_s`."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [str(binary), *args], cwd=root, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    (work / f"harness-{args[0]}.out").write_text(proc.stdout + proc.stderr, encoding="utf-8")
    if proc.stderr.strip():
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"harness {' '.join(args)} failed: {proc.stderr.strip()}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.perf_counter() - t0
    for name, value in out["metrics"].items():
        if name.startswith("self_s."):
            log(f"  {name} {value:.6g} s")
    return out


def set_toml_key(text, section, key, value):
    """Replaces `key = ...` inside `[section]` of a flat TOML document."""
    out, current, done = [], None, False
    for line in text.splitlines():
        header = re.match(r"^\[([^\]]+)\]\s*$", line)
        if header:
            current = header.group(1)
        elif current == section and re.match(rf"^{re.escape(key)}\s*=", line):
            line = f"{key} = {value}"
            done = True
        out.append(line)
    if not done:
        raise BenchError(f"no {key} in [{section}]")
    return "\n".join(out) + "\n"


def preset_spec(hotspots, root, name, quick):
    cmd = [str(hotspots), "spec", name] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"hotspots spec {name} failed: {proc.stderr.strip()}")
    return proc.stdout


def canonical(report_line):
    report = json.loads(report_line)
    for key in REPORT_VOLATILE:
        report.pop(key, None)
    return report


def report_balances(report):
    return report["delivered"] + report["dropped_total"] == report["probes_sent"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Result:
    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def fail(self, why):
        self.failed += 1
        log(f"check failed: {why}")


def workload_spec(workload, hotspots, root):
    """The spec file text a `hotspots run` workload measures."""
    if workload == "fig5c-nat":
        text = preset_spec(hotspots, root, "fig5c", quick=True)
        return set_toml_key(text, "study.detection", "max_time", repr(FIG5C_MAX_TIME))
    return preset_spec(hotspots, root, "bench-million", quick=False)


def sample_setup(workload, harness_bin, input_path, root, work, res):
    """Set-up samples, taken between units so that they see the same
    machine as the units do."""
    setup = harness(harness_bin, ["setup", workload, str(input_path), str(SETUP_REPS[workload])], root, work)
    res.samples.setdefault("setup_s", []).extend(setup["samples"])


def write_workload_spec(workload, hotspots, root, work):
    spec_path = work / "spec.toml"
    spec_path.write_text(workload_spec(workload, hotspots, root), encoding="utf-8")
    return spec_path


def run_unit(workload, hotspots, spec_path, root, work, res, unit):
    """One checked `hotspots run` of the workload: (wall s, peak RSS MB)."""
    expected = json.loads((HERE / "expected" / f"{workload}.json").read_text(encoding="utf-8"))
    cmd = [str(hotspots), "run", str(spec_path)]
    if workload == "fig5c-nat":
        cmd += ["--threads", "0"]
    wall, rss, code, out = measured_run(cmd, root, work / "unit.stderr")
    res.attempted += 1
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        res.fail(f"{workload} unit {unit}: exit {code}")
    else:
        report = canonical(lines[-1])
        if not report_balances(report):
            res.fail(f"{workload} unit {unit}: delivered + dropped_total != probes_sent")
        # equal to the expected report, so every unit's report is identical
        if report != expected:
            res.fail(f"{workload} unit {unit}: report differs from perfbench/expected: {json.dumps(report)}")
    return wall, rss


def run_units(workload, bins, root, work, seconds, res):
    """fig5c-nat / million-slammer: `hotspots run` until `seconds` pass."""
    hotspots, harness_bin = bins
    spec_path = write_workload_spec(workload, hotspots, root, work)
    deadline = None
    unit = 0
    while deadline is None or time.perf_counter() < deadline:
        wall, rss = run_unit(workload, hotspots, spec_path, root, work, res, unit)
        if deadline is None:
            # the first unit warms the page cache and is not timed
            deadline = time.perf_counter() + seconds
        else:
            res.add("wall_s", wall)
            res.add("peak_rss_mb", rss)
            sample_setup(workload, harness_bin, spec_path, root, work, res)
        unit += 1


GOLDEN_PRESET = {"fig5c-nat": "fig5c", "million-slammer": "bench-million"}


def golden_check(workload, hotspots, root, work, res):
    """The workload's preset at golden scale vs `results/golden/`."""
    name = GOLDEN_PRESET.get(workload)
    if name is None:
        return
    cmd = [str(hotspots), "run", name, "--quick"]
    _, _, code, out = measured_run(cmd, root, work / "golden.stderr")
    res.attempted += 1
    golden_path = root / "results" / "golden" / f"{name}.jsonl"
    golden = json.loads(golden_path.read_text(encoding="utf-8").splitlines()[0])
    lines = out.strip().splitlines()
    if code != 0 or not lines or canonical(lines[-1]) != golden:
        res.fail(f"{name} --quick differs from {golden_path.relative_to(root)}")
    else:
        log(f"golden: {name} --quick matches {golden_path.relative_to(root)}")


def serve_picks():
    """The catalogue rank each submit of a session asks for: one fixed
    Zipf draw, so every seed sees the same numbers of hits, misses and
    evictions."""
    weights = [1.0 / (r + 1) ** SERVE_ZIPF_S for r in range(SERVE_CATALOGUE)]
    return random.Random(SERVE_SHAPE_SEED).choices(range(SERVE_CATALOGUE), weights=weights, k=SERVE_REQUESTS)


def serve_catalogue(seed, templates):
    """Spec texts of the serve-mix catalogue, by rank.

    The seed decides which preset sits at which rank, but moves a preset
    only among ranks that miss the store equally often in the fixed
    rank sequence, so every preset runs as many times whatever the seed:
    the request order varies with the seed, the work of the misses does
    not. Every entry gets its own seed-derived `sim.rng_seed`."""
    picks = serve_picks()
    hits, _ = lru_model(picks, SERVE_MAX_ENTRIES)
    misses = [0] * SERVE_CATALOGUE
    for rank, hit in zip(picks, hits):
        misses[rank] += not hit
    presets = [SERVE_PRESETS[r % len(SERVE_PRESETS)] for r in range(SERVE_CATALOGUE)]
    rng = random.Random(seed)
    for count in sorted(set(misses)):
        ranks = [r for r in range(SERVE_CATALOGUE) if misses[r] == count]
        names = [presets[r] for r in ranks]
        rng.shuffle(names)
        for r, name in zip(ranks, names):
            presets[r] = name
    rng_seeds = rng.sample(range(1, 1 << 31), SERVE_CATALOGUE)
    return [
        set_toml_key(templates[preset], "sim", "rng_seed", str(rng_seed))
        for preset, rng_seed in zip(presets, rng_seeds)
    ]


def serve_requests(seed, templates):
    """The session's request lines and the catalogue rank each submits."""
    catalogue = serve_catalogue(seed, templates)
    picks = serve_picks()
    return [json.dumps({"op": "submit", "spec": catalogue[r]}) for r in picks], picks


def lru_model(picks, capacity):
    """Which requests the store should answer: (hit flags, stats)."""
    lru = OrderedDict()
    hits, evictions = [], 0
    for key in picks:
        if key in lru:
            lru.move_to_end(key)
            hits.append(True)
            continue
        hits.append(False)
        lru[key] = True
        if len(lru) > capacity:
            lru.popitem(last=False)
            evictions += 1
    n_hits = sum(hits)
    stats = {"entries": len(lru), "hits": n_hits, "misses": len(picks) - n_hits,
             "runs": len(picks) - n_hits, "rejected": 0, "evictions": evictions}
    return hits, stats


def serve_session(hotspots, root, work, lines, expected_stats, first_by_hash, res, tag):
    """One closed-loop session on a fresh cache dir: (wall, rss, latencies)."""
    cache = work / f"cache-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    cmd = [str(hotspots), "serve", "--cache-dir", str(cache), "--max-entries", str(SERVE_MAX_ENTRIES)]
    latencies = []
    with open(work / "serve.stderr", "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True, bufsize=1)
        peak = PeakRss(proc.pid)
        try:
            for line in lines:
                t = time.perf_counter()
                proc.stdin.write(line + "\n")
                proc.stdin.flush()
                response = proc.stdout.readline()
                latencies.append(time.perf_counter() - t)
                res.attempted += 1
                doc = json.loads(response) if response else {}
                if not doc.get("ok"):
                    res.fail(f"serve-mix: error response {response.strip()[:200]}")
                    continue
                first = first_by_hash.setdefault(doc["hash"], response)
                if response != first:
                    res.fail(f"serve-mix: response for {doc['hash']} differs from the first")
            proc.stdin.write('{"op":"stats"}\n')
            proc.stdin.flush()
            stats = json.loads(proc.stdout.readline() or "{}")
            peak.sample()  # the server is idle and alive: its final peak
            rss = peak.finish()
            proc.stdin.close()
            proc.stdout.read()
            proc.wait()
            wall = time.perf_counter() - t0
        except BaseException:
            peak.finish()
            proc.kill()
            proc.wait()
            raise
        proc.stdout.close()
    stats.pop("ok", None)
    if stats != expected_stats:
        res.fail(f"serve-mix: stats {stats} != client count {expected_stats}")
    if proc.returncode != 0:
        res.fail(f"serve-mix: server exited {proc.returncode}")
    return wall, rss, latencies


def serve_setup(seed, bins, root, work):
    hotspots = bins[0]
    templates = {name: preset_spec(hotspots, root, name, quick=True) for name in SERVE_PRESETS}
    lines, picks = serve_requests(seed, templates)
    hits, stats = lru_model(picks, SERVE_MAX_ENTRIES)
    session_path = work / "session.jsonl"
    session_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines, hits, stats, session_path


def split_latencies(latencies, hits):
    hit_ms = [1e3 * t for t, h in zip(latencies, hits) if h]
    miss_ms = [1e3 * t for t, h in zip(latencies, hits) if not h]
    return hit_ms, miss_ms


def run_serve(seed, bins, root, work, seconds, res):
    hotspots, harness_bin = bins
    lines, hits, stats, session_path = serve_setup(seed, bins, root, work)
    first_by_hash = {}
    all_hit_ms, all_miss_ms = [], []
    deadline = None
    session = 0
    while deadline is None or time.perf_counter() < deadline:
        wall, rss, latencies = serve_session(hotspots, root, work, lines, stats, first_by_hash, res, session)
        if deadline is None:
            deadline = time.perf_counter() + seconds
        else:
            res.add("wall_s", wall)
            res.add("peak_rss_mb", rss)
            hit_ms, miss_ms = split_latencies(latencies, hits)
            all_hit_ms += hit_ms
            all_miss_ms += miss_ms
            sample_setup("serve-mix", harness_bin, session_path, root, work, res)
        session += 1
    log(f"serve-mix: {len(lines)} submits per session, {stats['hits']} hits / {stats['misses']} misses / "
        f"{stats['evictions']} evictions; catalogue {SERVE_CATALOGUE}, --max-entries {SERVE_MAX_ENTRIES}")
    if all_hit_ms and all_miss_ms:
        log(f"  hit latency ms:  {summary(all_hit_ms)}")
        log(f"  miss latency ms: {summary(all_miss_ms)}")
        log(f"  requests/s:      {summary([len(lines) / w for w in res.samples['wall_s']])}")


def trace_workload(workload, seed, bins, root, work, res):
    """The traced replica; returns the per-layer metric values.

    Before it, the run times TRACE_UNTRACED_UNITS untraced units after a
    warm-up unit, all checked like any other. `trace.overhead_pct` is
    the traced run's wall (replica, references and replays together)
    over the median untraced `wall_s`, minus one. A serve-mix session's
    `requests_per_s` is its submits over its wall, so for serve-mix this
    is also the untraced `requests_per_s` over the traced one, minus one."""
    hotspots, harness_bin = bins
    walls = []
    if workload == "serve-mix":
        lines, hits, stats, session_path = serve_setup(seed, bins, root, work)
        first_by_hash = {}
        sessions = []
        for i in range(TRACE_UNTRACED_UNITS + 1):
            wall, _, latencies = serve_session(hotspots, root, work, lines, stats, first_by_hash, res, "trace")
            if i > 0:
                walls.append(wall)
                sessions.append(latencies)
        out = harness(harness_bin, ["trace", workload, str(session_path), str(work), str(SERVE_MAX_ENTRIES)], root, work)
        hit_ms, miss_ms = split_latencies([t for latencies in sessions for t in latencies], hits * len(sessions))
        run_ms = out["values"]["run_ms"]
        waits = [1e3 * t - r for latencies in sessions for t, h, r in zip(latencies, hits, run_ms) if not h]
        out["metrics"].update({
            "serve.hit_p50_ms": percentile(hit_ms, 50),
            "serve.hit_p90_ms": percentile(hit_ms, 90),
            "serve.miss_p50_ms": percentile(miss_ms, 50),
            "serve.requests_per_s": statistics.median(len(lines) / w for w in walls),
            "serve.queue_wait_ms": statistics.median(waits),
        })
    else:
        spec_path = write_workload_spec(workload, hotspots, root, work)
        for i in range(TRACE_UNTRACED_UNITS + 1):
            wall, _ = run_unit(workload, hotspots, spec_path, root, work, res, i)
            if i > 0:
                walls.append(wall)
        out = harness(harness_bin, ["trace", workload, str(spec_path), str(work)], root, work)
    untraced = statistics.median(walls)
    out["metrics"]["trace.overhead_pct"] = 100.0 * (out["wall_s"] - untraced) / untraced
    log(f"{workload} traced run {out['wall_s']:.6g} s; untraced wall_s median {summary(walls)}")
    for name, ok in out["checks"].items():
        res.attempted += 1
        if not ok:
            res.fail(name)
    return out["metrics"]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def result_metrics(values, trace):
    """The result line's metrics: every name of the metric set, in order.
    Layers a workload does not exercise report 0."""
    names = PER_LAYER if trace else END_TO_END
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names.items()}


def run_workload(workload, args, bins, root, golden):
    work = target_dir(root) / "perfbench-work" / workload
    work.mkdir(parents=True, exist_ok=True)
    res = Result()
    log(f"fingerprint: {json.dumps(fingerprint(root, workload), sort_keys=True)}")
    if golden:
        golden_check(workload, bins[0], root, work, res)
    if args.trace:
        values = trace_workload(workload, args.seed, bins, root, work, res)
        for name in PER_LAYER:
            shown = f"{values[name]:.6g}" if name in values else "0 (layer not exercised)"
            log(f"{workload} {name} [{PER_LAYER[name]}] = {shown}")
    else:
        if workload == "serve-mix":
            run_serve(args.seed, bins, root, work, args.seconds, res)
        else:
            run_units(workload, bins, root, work, args.seconds, res)
        values = {}
        for name, unit in END_TO_END.items():
            samples = res.samples[name]
            values[name] = statistics.median(samples)
            log(f"{workload} {name} [{unit}] median {summary(samples)}")
    frac = res.failed / res.attempted if res.attempted else 1.0
    log(f"{workload} failed_frac [ratio] {frac:.6g} ({res.failed} failed of {res.attempted} attempted)")
    return {
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": result_metrics(values, args.trace),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=TUNING_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    try:
        check_checkout(root)
        bins = build(root)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        golden = args.workload == "all"
        results = [run_workload(w, args, bins, root, golden) for w in workloads]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    for result in results:
        print(json.dumps(result), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
