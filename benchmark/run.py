#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `sa` command.

The thin unison is reproduced three ways, and each is one workload:

  scale   `sa run`: min-plus-one stabilization on a 10^5-node random
          4-regular graph, two engine units one after the other.
  verify  `sa verify`: exhaustive closure/convergence checking of the
          committed verify instances plus AlgAU's full space on cycle-4.
  serve   `sa serve --workers 2` under a closed loop of two clients, each
          job a small seeded AlgAU + MIS/LE sweep.

BENCHMARK.json gates verify and serve. scale runs only by hand: on a shared
two-CPU host its run-to-run spread exceeds the 0.25 bound (see SCALE_NODES),
so its layers are measured by every traced run instead.

Run from the repository root:

  python3 benchmark/run.py --workload verify --seed 1 --seconds 40 --trace 0

`--trace 0` builds the release `sa` (and this benchmark's harness) once,
then repeats the workload with tracing off for `--seconds` seconds and
reports the end-to-end metrics (medians over the repetitions):

  wall_s       one operation of the workload: a `sa run`, a `sa verify`, or
               one serve job from connect to `job-finished` (its median
               latency)
  setup_s      spawn of `sa` to its first readiness signal (`running …`,
               the first `exploring`, the daemon's first `hello`), timed by
               the harness over at least SETUP_SAMPLES spawns stopped once
               ready
  peak_rss_mb  peak resident set of the `sa` process (the daemon for serve)
  work_per_s   node-rounds/s (scale), explored states/s (verify), finished
               jobs/s (serve)

`--trace 1` is the separate traced run. Whichever `--workload` it is given,
it profiles all three (every traced run reports every per-layer metric):
for each workload one untraced pass, then one traced pass, reported as
`<workload>.<layer metric>`. The spans are recorded by the harness
(`benchmark/harness`), around calls into each layer's public functions,
because `sa` itself records none. Each trace ends with the share of the
traced wall its top-level spans cover (`trace.coverage`) and the traced
pass's slowdown against the untraced pass (`trace.overhead_frac`).

Every output is checked; a wrong output counts as a failed operation, and a
run with one reports `"correct": false` with whatever metrics the right
outputs still gave. The last line of standard output is the JSON summary
`{"correct", "attempted", "failed", "metrics"}`; the lines before it are a
readable report with sample counts. Exit code 2 without a summary means the
benchmark itself could not run. The benchmark writes only under
`.bench_runs/` (one fresh directory per run, removed afterwards) and the
cargo target directory (`$CARGO_TARGET_DIR`, default `.bench_build`).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HARNESS_MANIFEST = os.path.join("benchmark", "harness", "Cargo.toml")

# Every `sa` process may take at most this long; a run must end in 180 s.
PROCESS_TIMEOUT_S = 150.0

# Set-up samples per run: spawns of `sa`, each stopped once ready. Where a
# workload repeats, a batch of SETUP_BATCH precedes every repetition, so the
# samples span the run and a momentary stall of the host cannot move a whole
# run's setup_s; the last batch tops them up to SETUP_SAMPLES.
SETUP_SAMPLES = 41
SETUP_BATCH = 15

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

# --- scale ------------------------------------------------------------------
# Why: graph generation, the sparse step pipeline, the oracle and large
# checkpoints do nearly all the work; the job, socket and explorer layers do
# almost none. This is the committed `examples/specs/scale.json` shape at a
# size that fits ten or more repetitions into one run: at 10^5 nodes the
# step working set (CSR adjacency, two clock arrays, frontier bitsets; ~4 MB)
# is twice a 2 MiB per-core L2, and the graph build's pairing and edge set
# are larger still. Checkpoints every 16 steps write binary checkpoints (the
# default of 1000 writes none in the unit's 69 steps).
#
# Random-regular build cost depends on the seed: the configuration model's
# rejection loop redraws the whole pairing until it is simple, and the number
# of draws is geometric (1.5 s vs 32 s at 10^6 nodes for adjacent seeds; 2.2 s
# to 6 s per run at 10^5 nodes over graph seeds 1 to 5). A graph drawn from
# `--seed` would make every end-to-end metric swing several-fold from run to
# run, so the graph keeps `scale.json`'s own graph seed. The spec schema has
# no unit-seed offset (units are seeded 0..k-1), so `--seed` does not reach
# this workload's inputs.
#
# Not in BENCHMARK.json: on a shared two-vCPU Intel Xeon host, the middle
# half of ten 30 s runs spread 16-28% of the median wall_s, about twice
# verify's spread, and the medians of two such sets moved 28% in setup_s;
# the bound is 25%. Every traced run still profiles it.
SCALE_NODES = 100_000
SCALE_GRAPH_SEED = 13
SCALE_CHECKPOINT_EVERY = 16
SCALE_SPEC = {
    "name": "scale",
    "graph_seed": SCALE_GRAPH_SEED,
    "checkpoint_format": "binary",
    "timings": True,
    "tasks": [
        {
            "id": "SCALE",
            "kind": "stabilization",
            "algorithms": ["min-plus-one"],
            "topologies": [{"kind": "random-regular", "n": SCALE_NODES, "deg": 4}],
            "schedulers": ["synchronous"],
            "engines": ["serial", {"kind": "sharded", "threads": 2}],
            "seeds": 1,
            "diameter_bound": 25,
            "max_rounds": 400,
            "verify_rounds": 64,
        }
    ],
}
# Per unit (expansion order: serial, then sharded-2): the measured outcome
# every run must reproduce.
SCALE_EXPECTED = {
    "stabilization_rounds": 5,
    "stabilization_steps": 5,
    "verification_rounds": 64,
    "total_steps": 69,
    "violations": [],
    "faults_injected": 0,
    "recovery_rounds": [],
    "unrecovered": 0,
}

# --- verify -----------------------------------------------------------------
# Why: the explorer is the only busy layer. Its visited sets range from
# cache-resident (324 states) to far beyond L2 (810,000). Fair-schedule SCC
# analysis runs beside randomized reachability and counterexample-trace
# reconstruction. Exploration is exhaustive, so the inputs need no seed.
VERIFY_SPEC = {
    "name": "verify-bench",
    "tasks": [
        {"id": "V1", "kind": "verify", "algorithms": ["algau"],
         "topologies": [{"kind": "path", "n": 2}, {"kind": "cycle", "n": 3}]},
        {"id": "V2", "kind": "verify", "algorithms": ["algau"],
         "topologies": [{"kind": "torus", "rows": 3, "cols": 3}],
         "space": "reachable", "fault_radius": 1},
        {"id": "V3", "kind": "verify", "algorithms": ["min-plus-one"],
         "topologies": [{"kind": "path", "n": 3}, {"kind": "cycle", "n": 4}]},
        {"id": "V4", "kind": "verify", "algorithms": ["le"],
         "topologies": [{"kind": "complete", "n": 2}],
         "space": "reachable", "fault_radius": 1},
        {"id": "V5", "kind": "verify", "algorithms": ["mis"],
         "topologies": [{"kind": "path", "n": 2}],
         "space": "reachable", "fault_radius": 1},
        {"id": "V6", "kind": "verify",
         "algorithms": [{"kind": "reset-attempt", "period": 3}],
         "topologies": [{"kind": "cycle", "n": 5}]},
        {"id": "V7", "kind": "verify", "algorithms": ["algau"],
         "topologies": [{"kind": "cycle", "n": 4}]},
    ],
}
# unit id -> (closure, convergence, states, edges). Every unit certifies
# except LE closure (the observational-oracle caveat) and the reset-attempt
# strawman's convergence (a fair cycle).
VERIFY_EXPECTED = {
    "V1-algau-path-2-full": ("certified", "certified", 324, 652),
    "V1-algau-cycle-3-full": ("certified", "certified", 5832, 23856),
    "V2-algau-torus-3x3-reachable-r1": ("certified", "certified", 16096, 386566),
    "V3-min-plus-one-path-3-full": ("certified", "certified", 131, 759),
    "V3-min-plus-one-cycle-4-full": ("certified", "certified", 1121, 12943),
    "V4-le-complete-2-reachable-r1": ("VIOLATED", "certified", 9066, 31640),
    "V5-mis-path-2-reachable-r1": ("certified", "certified", 90489, 394508),
    "V6-reset-attempt-p3-cycle-5-full": ("certified", "VIOLATED", 7776, 37076),
    "V7-algau-cycle-4-full": ("certified", "certified", 810000, 6843152),
}
VERIFY_TRACES = {
    "V4-le-complete-2-reachable-r1.closure",
    "V6-reset-attempt-p3-cycle-5-full.convergence",
}

# --- serve ------------------------------------------------------------------
# Why: socket accept and framing, fsync'd job persistence, dispatch, report
# rendering and result archiving sit on the critical path while the engine
# does little; and the engine runs its dense, masked, asynchronous,
# randomized path, the opposite of scale's. A closed loop: two clients in one
# load-generator process, each opening a fresh connection per job as
# `sa submit --watch` does, so at most two jobs (8 units) are outstanding on
# the daemon's two workers. The job mix comes from `--seed`: every
# topology x scheduler x algorithm combination once per block of jobs, with
# seeded graph seeds and a seeded order within each block. (A pool of a few
# random specs made the mean job cost, and with it every metric, depend on
# which specs the seed happened to draw.)
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
# The daemon keeps memory per job it has run, so its peak RSS is read after a
# fixed number of jobs; the untraced window runs at least this many.
SERVE_RSS_JOBS = 500
SERVE_TOPOLOGIES = [
    {"kind": "torus", "rows": 4, "cols": 4},
    {"kind": "grid", "rows": 4, "cols": 4},
    {"kind": "hypercube", "dim": 4},
    {"kind": "cycle", "n": 16},
    {"kind": "random-regular", "n": 16, "deg": 3},
    {"kind": "random-regular", "n": 16, "deg": 4},
]
SERVE_SCHEDULERS = [
    {"kind": "uniform-random", "p": 0.25},
    {"kind": "uniform-random", "p": 0.5},
    "central",
    "round-robin",
]
# The traced serve pass: one window per daemon, at least this many jobs (so
# every per-layer p95 has TAIL_SAMPLES samples beyond it).
SERVE_TRACE_SECONDS = 5.0
SERVE_TRACE_MIN_JOBS = 20 * TAIL_SAMPLES

WORKLOADS = ("scale", "verify", "serve")


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong output)."""


def say(line=""):
    print(line, flush=True)


def percentile(values, q):
    """The q-th percentile (0 < q < 100), or None when fewer than
    TAIL_SAMPLES samples lie beyond it."""
    ordered = sorted(values)
    if len(ordered) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"run.py: wrong output: {problem}", file=sys.stderr, flush=True)
        return not problems


# --- build and environment ---------------------------------------------------

def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    return env


def build():
    """Builds the release `sa` and the harness; returns their paths."""
    for needed in ("Cargo.toml", os.path.join("crates", "sa-cli"), HARNESS_MANIFEST):
        if not os.path.exists(needed):
            raise BenchError(f"{needed} not found: run from the repository root")
    env = cargo_env()
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "sa-cli", "--bin", "sa"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", HARNESS_MANIFEST],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "sa"), os.path.join(release, "sa-benchmark")


def source_id():
    """The commit, or (outside a git checkout) a digest of the sources."""
    if os.path.isdir(".git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --- processes -----------------------------------------------------------------

class Sa:
    """One `sa` child process: its exit code, wall time and peak RSS. Its
    output goes to `<name>.log` in the run directory, so a chatty child
    never blocks on a full pipe."""

    # Children not yet reaped; `main` stops them if the run ends early.
    live = set()

    def __init__(self, cmd, cwd, name, env=None):
        self.log = os.path.join(cwd, f"{name}.log")
        with open(self.log, "wb") as log:
            self.t_spawn = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                         stdout=log, stderr=subprocess.STDOUT)
        Sa.live.add(self)
        self.timer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def finish(self):
        """Reaps the child; returns (exit code, wall s, peak MB)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.t_spawn
        self.timer.cancel()
        Sa.live.discard(self)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0

    def kill(self):
        self.proc.kill()
        os.wait4(self.proc.pid, 0)
        self.proc.returncode = -signal.SIGKILL
        self.timer.cancel()
        Sa.live.discard(self)

    def text(self):
        with open(self.log, "rb") as f:
            return f.read().decode(errors="replace")


def run_harness(harness, args, cwd):
    """Runs an `sa-benchmark` command; returns its wall seconds."""
    start = time.perf_counter()
    done = subprocess.run([harness] + args, cwd=cwd, timeout=PROCESS_TIMEOUT_S,
                          stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"sa-benchmark {args[0]} failed")
    return time.perf_counter() - start


def setup_samples(harness, run_dir, ready, cmd, count, env=None):
    """`count` spawn-to-readiness times (s) of `cmd`, timed by the harness,
    each spawn stopped once ready; `{k}` in `cmd` becomes the spawn's index.
    `ready` is `stdout:TEXT`, `stderr:TEXT` or `socket:PATH`."""
    done = subprocess.run([harness, "setup", "setup.json", str(count), ready] + cmd,
                          cwd=run_dir, env=env, timeout=PROCESS_TIMEOUT_S, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"set-up probe of {' '.join(cmd)} failed")
    return read_json(os.path.join(run_dir, "setup.json"))


def timed_window(seconds, probe, repetition):
    """Runs `repetition(k)` for k = 0, 1, … until `seconds` have passed (at
    least once), each after a batch of set-up probes; `probe(name, count)`
    returns `count` set-up samples, spawning into `name` with `{k}` in it.
    Returns (set-up samples, repetitions run)."""
    setups = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        setups += probe(f"probe{k}-{{k}}", SETUP_BATCH)
        repetition(k)
        k += 1
    if len(setups) < SETUP_SAMPLES:
        setups += probe("probe-{k}", SETUP_SAMPLES - len(setups))
    return setups, k


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_bytes(path):
    """The file's bytes, or None if it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


class Samples:
    """A run's correct repetitions and its set-up samples."""

    def __init__(self):
        self.walls, self.rates, self.rsss, self.setups = [], [], [], []

    def add(self, wall, rate, rss):
        self.walls.append(wall)
        self.rates.append(rate)
        self.rsss.append(rss)

    def metrics(self):
        """The end-to-end metrics: (median, unit, sample count) by name.
        Without a correct repetition only `setup_s` is measured."""
        return {name: (statistics.median(values), unit, len(values)) for name, values, unit in (
            ("wall_s", self.walls, "s"), ("setup_s", self.setups, "s"),
            ("peak_rss_mb", self.rsss, "MB"), ("work_per_s", self.rates, "1/s")) if values}


# --- scale -----------------------------------------------------------------

def scale_doc(path):
    """EXPERIMENTS.json without its (nondeterministic) timings blocks."""
    doc = read_json(path)
    for unit in doc.get("units", []):
        unit.pop("timings", None)
    return doc


def scale_problems(doc, reference):
    units = doc.get("units", [])
    if len(units) != 2:
        return [f"scale: expected 2 units, found {len(units)}"]
    problems = []
    for unit in units:
        result = unit.get("result", {})
        for key, want in SCALE_EXPECTED.items():
            if result.get(key) != want:
                problems.append(f"scale: {unit.get('id')}: {key} = {result.get(key)!r}, "
                                f"want {want!r}")
    if reference is not None and doc != reference:
        problems.append("scale: EXPERIMENTS.json differs from the reference run's")
    return problems


def scale_node_rounds(doc):
    return sum(SCALE_NODES * (u["result"]["stabilization_rounds"] + u["result"]["verification_rounds"])
               for u in doc["units"])


def scale_command(sa, out):
    return [sa, "run", "scale.json", "--out", out,
            "--checkpoint-every", str(SCALE_CHECKPOINT_EVERY)]


def scale_env():
    # Units run one after the other: one worker (the sharded unit's two
    # lanes are then the only threads busy).
    env = dict(os.environ)
    env["SA_BENCH_THREADS"] = "1"
    return env


def scale_once(sa, run_dir, out, checks, reference):
    """One `sa run` into `out`; returns (its EXPERIMENTS.json without
    timings, or None if wrong; wall s; peak MB)."""
    child = Sa(scale_command(sa, out), run_dir, out, scale_env())
    code, wall, rss = child.finish()
    doc = None
    if code != 0:
        problems = [f"scale: sa run exited {code}: {child.text()[-400:]}"]
    else:
        try:
            doc = scale_doc(os.path.join(run_dir, out, "EXPERIMENTS.json"))
            problems = scale_problems(doc, reference)
        except (OSError, ValueError, AttributeError) as e:
            problems = [f"scale: unreadable EXPERIMENTS.json: {e!r}"]
    if not checks.op(problems):
        doc = None
    return doc, wall, rss


def scale_workload(sa, harness, run_dir, seconds, checks):
    write_json(os.path.join(run_dir, "scale.json"), SCALE_SPEC)
    samples = Samples()
    reference = None

    def probe(name, count):
        return setup_samples(harness, run_dir, "stdout:running ", scale_command(sa, name), count,
                             scale_env())

    def repetition(k):
        nonlocal reference
        doc, wall, rss = scale_once(sa, run_dir, f"it{k}", checks, reference)
        shutil.rmtree(os.path.join(run_dir, f"it{k}"), ignore_errors=True)
        if doc is not None:
            reference = reference or doc
            samples.add(wall, scale_node_rounds(doc) / wall, rss)

    samples.setups, k = timed_window(seconds, probe, repetition)
    say(f"scale: {k} sa run(s) of {SCALE_NODES} nodes; node_rounds_per_s is "
        f"sum(n * (stabilization + verification rounds)) / wall")
    return samples.metrics()


# --- verify ----------------------------------------------------------------

def verify_problems(out_dir):
    try:
        doc = read_json(os.path.join(out_dir, "VERIFY.json"))
    except (OSError, ValueError) as e:
        return {"VERIFY.json": [f"verify: unreadable VERIFY.json: {e}"]}, 0
    seen = {}
    states = 0
    for unit in doc.get("units", []):
        uid = unit.get("unit")
        got = (unit.get("closure"), unit.get("convergence"), unit.get("states"), unit.get("edges"))
        want = VERIFY_EXPECTED.get(uid)
        problems = []
        if want is None:
            problems.append(f"verify: unexpected unit {uid}")
        elif got != want:
            problems.append(f"verify: {uid}: (closure, convergence, states, edges) = {got}, want {want}")
        seen[uid] = problems
        states += unit.get("states") or 0
    for uid in VERIFY_EXPECTED:
        seen.setdefault(uid, [f"verify: unit {uid} missing"])
    traces = os.path.join(out_dir, "traces")
    for stem in VERIFY_TRACES:
        for ext in (".json", ".txt"):
            if not os.path.exists(os.path.join(traces, stem + ext)):
                seen[stem.split(".")[0]].append(f"verify: trace {stem}{ext} missing")
    return seen, states


def verify_command(sa, out):
    return [sa, "verify", "verify.json", "--out", out]


def verify_once(sa, run_dir, out, checks):
    """One `sa verify` into `out`; returns (every unit right, wall s, peak
    MB, explored states)."""
    child = Sa(verify_command(sa, out), run_dir, out)
    code, wall, rss = child.finish()
    per_unit, states = verify_problems(os.path.join(run_dir, out))
    # Two units are violated by design, so `sa verify` exits 1.
    if code != 1:
        per_unit.setdefault("exit", []).append(
            f"verify: sa verify exited {code}, want 1: {child.text()[-400:]}")
    for problems in per_unit.values():
        checks.op(problems)
    return all(not p for p in per_unit.values()), wall, rss, states


def verify_workload(sa, harness, run_dir, seconds, checks):
    write_json(os.path.join(run_dir, "verify.json"), VERIFY_SPEC)
    samples = Samples()

    def probe(name, count):
        return setup_samples(harness, run_dir, "stderr:exploring", verify_command(sa, name), count)

    def repetition(k):
        ok, wall, rss, states = verify_once(sa, run_dir, f"it{k}", checks)
        shutil.rmtree(os.path.join(run_dir, f"it{k}"), ignore_errors=True)
        if ok:
            samples.add(wall, states / wall, rss)

    samples.setups, k = timed_window(seconds, probe, repetition)
    say(f"verify: {k} sa verify run(s) of {len(VERIFY_EXPECTED)} instances, "
        f"{sum(v[2] for v in VERIFY_EXPECTED.values())} states each")
    return samples.metrics()


# --- serve -----------------------------------------------------------------

def serve_plan(seed):
    """The seeded job mix: one spec per combination, and the order jobs use
    them (each block of len(specs) jobs runs every spec once)."""
    rng = random.Random(seed)
    specs = []
    for topology in SERVE_TOPOLOGIES:
        for scheduler in SERVE_SCHEDULERS:
            for algorithm in ("mis", "le"):
                specs.append({
                    "name": f"serve-{seed}-{len(specs)}",
                    "graph_seed": rng.randrange(1 << 31),
                    "tasks": [{
                        "id": "J",
                        "kind": "stabilization",
                        "algorithms": ["algau", algorithm],
                        "topologies": [topology],
                        "schedulers": [scheduler],
                        "seeds": 2,
                    }],
                })
    sequence = []
    while len(sequence) < 20000:
        block = list(range(len(specs)))
        rng.shuffle(block)
        sequence.extend(block)
    return specs, sequence


def serve_command(sa, name):
    return [sa, "serve", "--socket", f"{name}.sock", "--state-dir", name,
            "--workers", str(SERVE_WORKERS)]


def connect(path, deadline):
    """Connects to the daemon's socket, retrying until it listens."""
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if time.perf_counter() > deadline:
                raise BenchError(f"daemon at {path} never accepted a connection")
            time.sleep(0.0005)


def read_line(sock_file):
    line = sock_file.readline()
    if not line:
        raise BenchError("daemon closed the connection")
    return json.loads(line)


class Daemon:
    """`sa serve` with a fresh state directory, started and greeted."""

    def __init__(self, sa, run_dir, name):
        self.socket = f"{name}.sock"
        self.child = Sa(serve_command(sa, name), run_dir, name)
        self.state_dir = os.path.join(run_dir, name)
        with connect(self.socket, time.perf_counter() + 30) as s, s.makefile("rb") as f:
            hello = read_line(f)
        if hello.get("event") != "hello":
            raise BenchError(f"daemon greeted with {hello}")

    def shutdown(self):
        """Stops the daemon (killing it if it no longer answers); returns
        (exit code, peak RSS MB)."""
        try:
            with connect(self.socket, time.perf_counter() + 5) as s, s.makefile("rwb") as f:
                read_line(f)
                f.write(b'{"op": "shutdown"}\n')
                f.flush()
                read_line(f)
        except (BenchError, OSError, ValueError):
            self.child.proc.kill()
        code, _, rss = self.child.finish()
        return code, rss


def serve_load(harness, run_dir, daemon, specs, sequence, seconds, min_jobs, firehose, name):
    plan = {"socket": daemon.socket, "specs": specs, "sequence": sequence,
            "clients": SERVE_CLIENTS, "seconds": seconds, "min_jobs": min_jobs,
            "firehose": firehose, "rss_after_jobs": SERVE_RSS_JOBS,
            "daemon_pid": daemon.child.proc.pid}
    write_json(os.path.join(run_dir, f"{name}.plan.json"), plan)
    run_harness(harness, ["load", f"{name}.plan.json", f"{name}.records.json"], run_dir)
    return read_json(os.path.join(run_dir, f"{name}.records.json"))


def serve_check(sa, run_dir, daemon, specs, records, checks):
    """Checks every job: acked, finished, clean, and its EXPERIMENTS.json
    byte-identical to a batch `sa run` of the same spec (checked here,
    outside the timed load). Returns the records of the right jobs."""
    batch = {}
    for idx in sorted({r["spec"] for r in records if r["job"]}):
        spec_path = os.path.join(run_dir, f"batch{idx}.json")
        write_json(spec_path, specs[idx])
        out = os.path.join(run_dir, f"batch{idx}")
        done = subprocess.run([sa, "run", spec_path, "--out", out], capture_output=True,
                              timeout=PROCESS_TIMEOUT_S)
        batch[idx] = read_bytes(os.path.join(out, "EXPERIMENTS.json")) \
            if done.returncode == 0 else None
    ok = []
    for r in records:
        problems = []
        status = r.get("status") or {}
        if r["error"]:
            problems.append(f"serve: job {r['job']} (spec {r['spec']}): {r['error']}")
        elif status.get("state") != "finished" or status.get("clean") is not True:
            problems.append(f"serve: job {r['job']} ended {status}")
        else:
            path = os.path.join(daemon.state_dir, "jobs", r["job"], "out", "EXPERIMENTS.json")
            want = batch.get(r["spec"])
            if want is None:
                problems.append(f"serve: batch sa run of spec {r['spec']} failed")
            elif read_bytes(path) != want:
                problems.append(f"serve: job {r['job']}: EXPERIMENTS.json differs from batch sa run")
        if checks.op(problems):
            ok.append(r)
    return ok


def serve_session(sa, harness, run_dir, name, specs, sequence, seconds, min_jobs, firehose, checks):
    """One daemon under load, then shut down; returns (daemon, load
    records, right jobs' records, daemon peak RSS MB)."""
    daemon = Daemon(sa, run_dir, name)
    try:
        loaded = serve_load(harness, run_dir, daemon, specs, sequence, seconds, min_jobs,
                            firehose, name)
    finally:
        code, rss = daemon.shutdown()
    checks.op([] if code == 0 else [f"serve: sa serve exited {code}: {daemon.child.text()[-400:]}"])
    ok = serve_check(sa, run_dir, daemon, specs, loaded["jobs"], checks)
    return daemon, loaded, ok, rss


def serve_workload(sa, harness, run_dir, seconds, seed, checks):
    specs, sequence = serve_plan(seed)
    samples = Samples()
    # One load window: the probes (set-up here is mostly the daemon's accept
    # poll, and steady) all come before it.
    samples.setups = setup_samples(harness, run_dir, "socket:probe{k}.sock",
                                   serve_command(sa, "probe{k}"), SETUP_SAMPLES)
    _, loaded, ok, rss = serve_session(sa, harness, run_dir, "state", specs, sequence,
                                       seconds, SERVE_RSS_JOBS, False, checks)
    window = loaded["window_ns"] / 1e9
    say(f"serve: {len(loaded['jobs'])} job(s) from {SERVE_CLIENTS} closed-loop clients in "
        f"{window:.3f} s against {SERVE_WORKERS} workers (fsync on), {len(ok)} right")
    latencies = [(r["finished"] - r["connect"]) / 1e9 for r in ok]
    if latencies:
        say(f"  job_p50_ms {statistics.median(latencies) * 1e3:.4f} ms (n={len(latencies)})")
        p95 = percentile(latencies, 95)
        if p95 is None:
            say(f"  job_p95_ms not reported: fewer than {TAIL_SAMPLES} samples beyond it")
        else:
            say(f"  job_p95_ms {p95 * 1e3:.4f} ms (n={len(latencies)})")
        rate = len(ok) / window
        say(f"  jobs_per_s {rate:.4f} 1/s")
        # 0 when fewer than SERVE_RSS_JOBS jobs ran; then the peak at shutdown.
        hwm = loaded["daemon_hwm_bytes"] / 2**20 or rss
        say(f"  daemon peak RSS {hwm:.4f} MB after {SERVE_RSS_JOBS} jobs, "
            f"{rss:.4f} MB after all {len(loaded['jobs'])}")
        samples.add(statistics.median(latencies), rate, hwm)
    return samples.metrics()


# --- traced run --------------------------------------------------------------

class Layers:
    """Per-layer metrics with their sample counts, in report order."""

    def __init__(self):
        self.rows = []

    def add(self, name, samples, unit, p95=False):
        """Reports the p50 of `samples`, and their p95 where at least
        TAIL_SAMPLES samples lie beyond it. A metric without samples (its
        layer never ran, because an output was wrong) is left out."""
        if not samples:
            say(f"  {name} not measured: no samples")
            return
        self.rows.append((name, statistics.median(samples), unit, len(samples)))
        if p95:
            tail = percentile(samples, 95)
            if tail is None:
                say(f"  {name}.p95 not reported: fewer than {TAIL_SAMPLES} samples beyond it")
            else:
                self.rows.append((name + ".p95", tail, unit, len(samples)))


def spans_of(doc, name, ident=None):
    return [s for s in doc["spans"] if s["name"] == name and (ident is None or ident in s["id"])]


def duration(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def coverage(doc):
    """Share of the traced wall covered by top-level spans."""
    top = sum(s["end_ns"] - s["start_ns"] for s in doc["spans"] if s["parent"] is None)
    return top / doc["wall_ns"]


def trace_scale(sa, harness, run_dir, layers, checks):
    write_json(os.path.join(run_dir, "scale.json"), SCALE_SPEC)
    doc, untraced_wall, _ = scale_once(sa, run_dir, "untraced", checks, None)
    traced_wall = run_harness(harness, ["trace-scale", "scale.json", "traced", "scale.spans.json"],
                              run_dir)
    try:
        mirror = scale_doc(os.path.join(run_dir, "traced", "EXPERIMENTS.json"))
        checks.op(scale_problems(mirror, doc))
    except (OSError, ValueError, AttributeError) as e:
        checks.op([f"scale: traced mirror wrote no readable EXPERIMENTS.json: {e!r}"])
    spans = read_json(os.path.join(run_dir, "scale.spans.json"))
    units = sorted({s["id"] for s in spans_of(spans, "exec.step")})

    def per_unit(name, count=None):
        out = []
        for uid in units:
            picked = spans_of(spans, name, uid)
            out.append(sum(s["counts"].get(count, 0) for s in picked) if count
                       else sum(duration(s) for s in picked))
        return out

    layers.add("scale.graph.build_s", [duration(s) for s in spans_of(spans, "graph.build")], "s")
    layers.add("scale.exec.init_s", [duration(s) for s in spans_of(spans, "exec.init")], "s")
    for engine in ("serial", "sharded-2"):
        steps = [s for uid in units if f"--{engine}--" in uid for s in spans_of(spans, "exec.step", uid)]
        step_s = sum(duration(s) for s in steps)
        activations = sum(s["counts"]["activations"] for s in steps)
        layers.add(f"scale.exec.step_s.{engine}", [step_s] if steps else [], "s")
        layers.add(f"scale.exec.ns_per_activation.{engine}",
                   [step_s * 1e9 / activations] if activations else [], "ns")
    activations = per_unit("exec.step", "activations")
    changed = per_unit("exec.step", "changed")
    layers.add("scale.exec.activations", activations, "count")
    layers.add("scale.exec.changed", changed, "count")
    layers.add("scale.exec.changed_frac", [c / a for c, a in zip(changed, activations) if a],
               "ratio")
    layers.add("scale.oracle.s", per_unit("oracle"), "s")
    layers.add("scale.oracle.checks", per_unit("oracle", "checks"), "count")
    ckpts = spans_of(spans, "ckpt.encode")
    layers.add("scale.ckpt.encode_s", [duration(s) for s in ckpts], "s")
    layers.add("scale.ckpt.bytes", [s["counts"]["bytes"] for s in ckpts], "bytes")
    writes = spans_of(spans, "io.write")
    layers.add("scale.io.write_s", [sum(duration(s) for s in writes)] if writes else [], "s")
    layers.add("scale.io.writes", [len(writes)] if writes else [], "count")
    layers.add("scale.io.bytes", [sum(s["counts"]["bytes"] for s in writes)] if writes else [],
               "bytes")
    aggregates = [duration(s) for s in spans_of(spans, "report.aggregate")]
    layers.add("scale.report.aggregate_s", aggregates, "s")
    layers.add("scale.report.render_s", [duration(s) for s in spans_of(spans, "report.render")], "s")
    layers.add("scale.trace.coverage", [coverage(spans)], "ratio")
    layers.add("scale.trace.overhead_frac", [(traced_wall - untraced_wall) / untraced_wall], "ratio")
    builds = [duration(s) for s in spans_of(spans, "graph.build")]
    if builds and aggregates:
        build = statistics.median(builds)
        say(f"scale: traced {len(units)} unit(s); each unit built its graph once under "
            f"graph.build ({build:.3f} s), and report.aggregate ({aggregates[0]:.3f} s = "
            f"{aggregates[0] / build:.2f} builds) builds each unit's cell graph again")


def trace_verify(sa, harness, run_dir, layers, checks):
    write_json(os.path.join(run_dir, "verify.json"), VERIFY_SPEC)
    child = Sa(verify_command(sa, "untraced"), run_dir, "untraced")
    code, untraced_wall, _ = child.finish()
    traced_wall = run_harness(harness, ["trace-verify", "verify.json", "traced",
                                        "verify.spans.json"], run_dir)
    for out in ("untraced", "traced"):
        for problems in verify_problems(os.path.join(run_dir, out))[0].values():
            checks.op(problems)
    same = read_bytes(os.path.join(run_dir, "untraced", "VERIFY.json")) == \
        read_bytes(os.path.join(run_dir, "traced", "VERIFY.json"))
    checks.op([] if code == 1 and same else
              [f"verify: sa verify exited {code} / traced VERIFY.json differs: {not same}"])
    spans = read_json(os.path.join(run_dir, "verify.spans.json"))
    explores = spans_of(spans, "explore")
    for s in explores:
        inst = s["id"].split("-", 1)[1]
        states = s["counts"]["states"]
        layers.add(f"verify.explore.s.{inst}", [duration(s)], "s")
        layers.add(f"verify.explore.states.{inst}", [states], "states")
        layers.add(f"verify.explore.edges.{inst}", [s["counts"]["edges"]], "edges")
        layers.add(f"verify.explore.states_per_s.{inst}", [states / duration(s)], "1/s")
    largest = max(explores, key=lambda s: s["counts"]["states"], default=None)
    layers.add("verify.explore.bytes_per_state",
               [largest["counts"]["hwm_growth_bytes"] / largest["counts"]["states"]]
               if largest and largest["counts"]["states"] else [], "bytes")
    renders = spans_of(spans, "verify.render")
    layers.add("verify.render_s", [sum(duration(s) for s in renders)] if renders else [], "s")
    layers.add("verify.trace.coverage", [coverage(spans)], "ratio")
    layers.add("verify.trace.overhead_frac", [(traced_wall - untraced_wall) / untraced_wall],
               "ratio")
    if largest:
        say(f"verify: explore.bytes_per_state is peak-RSS growth over {largest['id']} "
            f"({largest['counts']['states']:.0f} states)")


def serve_phases(loaded, jobs):
    """Per job in `jobs` (ms): accept, submit, queue, run, finish, and the
    share of the client's connect-to-job-finished time the phases cover."""
    events = {}
    for e in loaded["events"]:
        events.setdefault(e["job"], []).append(e)
    phases = []
    for r in loaded["jobs"]:
        if r["job"] not in jobs:
            continue
        evs = events.get(r["job"], [])
        accepted = [e["t"] for e in evs if e["event"] == "job-accepted"]
        started = [e["t"] for e in evs if e["event"] == "unit-started"]
        finished = [e["t"] for e in evs if e["event"] == "unit-finished"]
        done = [e["t"] for e in evs if e["event"] == "job-finished"]
        if not (r["finished"] and accepted and started and finished and done):
            continue
        first, last, end = min(started), max(finished), done[0]
        # The client timeline, cut at the daemon's events and clamped to it.
        cut = [r["connect"], r["hello"]], [r["submit"], r["ack"]], \
            [r["ack"], max(r["ack"], first)], [max(r["ack"], first), max(r["ack"], last)], \
            [max(r["ack"], last), max(r["ack"], min(end, r["finished"]))]
        covered = sum(b - a for a, b in cut)
        phases.append({
            "accept": (r["hello"] - r["connect"]) / 1e6,
            "submit": (r["ack"] - r["submit"]) / 1e6,
            "queue": (first - accepted[0]) / 1e6,
            "run": (last - first) / 1e6,
            "finish": (end - last) / 1e6,
            "covered": covered,
        })
    return phases


def trace_serve(sa, harness, run_dir, seed, layers, checks):
    specs, sequence = serve_plan(seed)
    _, untraced, ok_u, _ = serve_session(sa, harness, run_dir, "untraced", specs, sequence,
                                         SERVE_TRACE_SECONDS, 0, False, checks)
    daemon, traced, ok_t, _ = serve_session(sa, harness, run_dir, "traced", specs, sequence,
                                            SERVE_TRACE_SECONDS, SERVE_TRACE_MIN_JOBS, True,
                                            checks)
    replay_wall = run_harness(harness, ["trace-serve", daemon.state_dir, "replay",
                                        "serve.spans.json"], run_dir)
    spans = read_json(os.path.join(run_dir, "serve.spans.json"))
    checks.op([f"serve: replayed EXPERIMENTS.json differs for {j}" for j in spans["mismatched"]])
    # Phases of the right jobs only; the firehose must have seen each of them.
    phases = serve_phases(traced, {r["job"] for r in ok_t})
    checks.op([] if len(phases) == len(ok_t) else
              [f"serve: firehose saw {len(phases)} of {len(ok_t)} finished jobs"])
    for phase in ("accept", "submit", "queue", "run", "finish"):
        layers.add(f"serve.{phase}_ms", [p[phase] for p in phases], "ms", p95=True)
    jobs = sorted({s["id"] for s in spans["spans"]})

    def per_job(name, count=None):
        out = {j: 0.0 for j in jobs}
        n = {j: 0 for j in jobs}
        for s in spans["spans"]:
            if s["name"] == name:
                out[s["id"]] += s["counts"].get(count, 0) if count else duration(s)
                n[s["id"]] += 1
        return list(out.values()), list(n.values())

    write_s, writes = per_job("io.write")
    layers.add("serve.io.write_s", write_s, "s", p95=True)
    layers.add("serve.io.writes", writes, "count")
    layers.add("serve.io.bytes", per_job("io.write", "bytes")[0], "bytes")
    layers.add("serve.report.aggregate_s", per_job("report.aggregate")[0], "s", p95=True)
    layers.add("serve.report.render_s", per_job("report.render")[0], "s", p95=True)
    lanes = SERVE_CLIENTS * traced["window_ns"]
    layers.add("serve.trace.coverage", [sum(p["covered"] for p in phases) / lanes], "ratio")
    if ok_u and ok_t:
        p50 = [statistics.median([(r["finished"] - r["connect"]) for r in ok]) for ok in (ok_u, ok_t)]
        layers.add("serve.trace.overhead_frac", [(p50[1] - p50[0]) / p50[0]], "ratio")
    else:
        layers.add("serve.trace.overhead_frac", [], "ratio")
    say(f"serve: traced {len(phases)} job(s) with a firehose subscriber; the report/archive "
        f"replay of {len(jobs)} job(s) took {replay_wall:.3f} s, spans covering "
        f"{coverage(spans):.4f} of it")


# --- main ------------------------------------------------------------------

WORK_NAMES = {"scale": "node_rounds_per_s", "verify": "states_per_s", "serve": "jobs_per_s"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The workloads run `sa` as deployed: no engine overrides, escape
    # hatches, fault injection or skipped fsyncs from the caller's
    # environment.
    for name in [k for k in os.environ if k.startswith("SA_")]:
        del os.environ[name]
    sa, harness = build()
    say(f"host: nproc={os.cpu_count()} cpu={cpu_model()!r} source={source_id()}")
    run_dir = os.path.join(ROOT, ".bench_runs", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Socket paths are relative to the run directory: an absolute one could
    # exceed the 108-byte AF_UNIX limit in a deep checkout.
    os.chdir(run_dir)
    checks = Checks()
    try:
        if args.trace:
            layers = Layers()
            trace_scale(sa, harness, run_dir, layers, checks)
            trace_verify(sa, harness, run_dir, layers, checks)
            trace_serve(sa, harness, run_dir, args.seed, layers, checks)
            for name, value, unit, n in layers.rows:
                say(f"  {name:<58} {value:>16.6g} {unit:<6} n={n}")
            metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in layers.rows}
        else:
            if args.workload == "scale":
                measured = scale_workload(sa, harness, run_dir, args.seconds, checks)
            elif args.workload == "verify":
                measured = verify_workload(sa, harness, run_dir, args.seconds, checks)
            else:
                measured = serve_workload(sa, harness, run_dir, args.seconds, args.seed, checks)
            metrics = {}
            for name, (value, unit, n) in measured.items():
                metrics[name] = {"value": value, "unit": unit}
                say(f"  {name:<12} {value:.6g} {unit} (median, n={n})")
            say(f"  ({args.workload}: work_per_s is {WORK_NAMES[args.workload]})")
    finally:
        for child in list(Sa.live):
            child.kill()
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    # A terminated run still stops and reaps its children (`main`'s finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr, flush=True)
        sys.exit(2)
