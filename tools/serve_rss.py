#!/usr/bin/env python3
"""Daemon memory against jobs run.

Drives a fresh `sa serve --workers 2` with the serve benchmark's seeded job
mix (`serve_plan` in benchmark/run.py) from two closed-loop clients, as that
workload does: each client opens a connection per job, submits the spec
inline and watches it to `job-finished`. Every `--every` finished jobs it
reads the daemon's VmRSS, VmHWM and thread count from /proc. At the end it
prints them, the VmRSS growth per job between the first and the last
reading, and whether every job finished clean and the daemon exited 0 after
`shutdown`.

Run from the repository root after `cargo build --release`:

  python3 tools/serve_rss.py --seed 3 --jobs 2000 --every 500
"""

import argparse
import importlib.util
import itertools
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

CLIENTS = 2
WORKERS = 2


def serve_plan(seed):
    """The benchmark's job mix, read from benchmark/run.py (without writing
    a bytecode cache under benchmark/)."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join("benchmark", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.serve_plan(seed)


def proc_status(pid):
    """(VmRSS bytes, VmHWM bytes, threads) of `pid`."""
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM", "Threads"):
                fields[key] = int(value.split()[0])
    return fields["VmRSS"] * 1024, fields["VmHWM"] * 1024, fields["Threads"]


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.settimeout(60)
        self.file = self.sock.makefile("rwb")
        self.recv()  # hello

    def send(self, request):
        self.file.write(json.dumps(request).encode() + b"\n")
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            raise RuntimeError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


def run_job(path, spec, client):
    """Submits and watches one job; returns its final status."""
    conn = Connection(path)
    try:
        conn.send({"op": "submit", "spec": spec, "client": f"c{client}"})
        ack = conn.recv()
        if ack.get("ok") is not True:
            raise RuntimeError(f"submit refused: {ack}")
        conn.send({"op": "watch", "job": ack["job"]})
        if conn.recv().get("ok") is not True:
            raise RuntimeError(f"watch refused for {ack['job']}")
        while True:
            event = conn.recv()
            if event.get("event") == "job-finished" and event.get("job") == ack["job"]:
                return event["status"]
    finally:
        conn.close()


def wait_for_socket(path, deadline):
    while True:
        try:
            Connection(path).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.001)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sa", default=os.path.join("target", "release", "sa"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=2000)
    parser.add_argument("--every", type=int, default=500)
    args = parser.parse_args()

    specs, sequence = serve_plan(args.seed)
    with tempfile.TemporaryDirectory(prefix="sa-serve-rss-") as tmp:
        path = os.path.join(tmp, "sa.sock")
        daemon = subprocess.Popen(
            [args.sa, "serve", "--socket", path, "--state-dir", os.path.join(tmp, "state"),
             "--workers", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            wait_for_socket(path, time.monotonic() + 30)
            cursor = itertools.count()
            lock = threading.Lock()
            done = [0]
            failures = []
            readings = []

            def client(index):
                while True:
                    k = next(cursor)
                    if k >= args.jobs:
                        return
                    try:
                        status = run_job(path, specs[sequence[k % len(sequence)]], index)
                        if status.get("state") != "finished" or status.get("clean") is not True:
                            failures.append(f"job {status.get('job')}: {status}")
                    except (OSError, RuntimeError, ValueError) as e:
                        failures.append(str(e))
                        return
                    with lock:
                        done[0] += 1
                        if done[0] % args.every == 0:
                            readings.append((done[0], *proc_status(daemon.pid)))

            threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            conn = Connection(path)
            conn.send({"op": "shutdown"})
            conn.recv()
            conn.close()
            code = daemon.wait(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    print(f"{'jobs':>6} {'VmRSS MB':>10} {'VmHWM MB':>10} {'threads':>8}")
    for jobs, rss, hwm, threads in readings:
        print(f"{jobs:>6} {rss / 2**20:>10.2f} {hwm / 2**20:>10.2f} {threads:>8}")
    if len(readings) >= 2:
        (j0, r0, _, _), (j1, r1, _, _) = readings[0], readings[-1]
        print(f"VmRSS growth {j0}->{j1} jobs: {(r1 - r0) / r0 * 100:+.1f}% "
              f"({(r1 - r0) / (j1 - j0):.0f} bytes/job)")
    print(f"{done[0]} job(s) finished, {len(failures)} failed; daemon exited {code}")
    for failure in failures[:5]:
        print(f"  {failure}")
    return 0 if not failures and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
