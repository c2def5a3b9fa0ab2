"""The BitWave pipeline benchmark runner.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign-cold --seed 1 \\
        --seconds 40 --trace 0

Workloads (each round starts from fresh processes and an empty store):

- ``campaign-cold``: a 54-point model-backend campaign (six SotA
  accelerators plus the BitWave ablation ladder, on cnn_lstm,
  mobilenetv2 and resnet18, at two archs) over two pool workers.
  Weight profiling is ~90% of it.
- ``sim-net``: the same three networks through the ``sim-vectorized``
  backend at one worker: lowering, synthetic weights, per-layer stats
  and the structural NPU.
- ``serve-skew``: ``python -m repro.serve`` under the closed-loop,
  Zipf-skewed load of :mod:`perfbench.serveload`.

``--trace 0`` runs rounds until ``--seconds`` is spent and prints the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``, the
same three for every workload (medians over rounds, but peak RSS from
the lowest round).  serve-skew's throughput and p50/p99 latency,
pooled over rounds, are printed and recorded beside them without a
bound.  ``--trace 1`` runs one untraced and one traced round and
prints the per-layer metrics of :mod:`perfbench.layers` plus the
tracing overhead.  The last stdout line is the JSON result; a fuller
record (run manifest, CPU drift probe, per-round data) is written
under ``.perfbench/results/`` for :mod:`perfbench.compare`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, serveload, stats  # noqa: E402

WORKLOADS = ("campaign-cold", "sim-net", "serve-skew")

#: Operations one campaign round attempts: its points plus one output
#: check.
ROUND_OPS = {"campaign-cold": 55, "sim-net": 4}

#: Extra set-up-only processes per timed campaign/sim run, so
#: ``setup_s`` is a median of several samples.
SETUP_PROBES = 4

#: Every run ends (children killed) by this many seconds after start.
RUN_DEADLINE_S = 170.0

RESULTS = ROOT / ".perfbench" / "results"
WORK = ROOT / ".perfbench" / "tmp"

#: The end-to-end metrics every workload prints, with their units.
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

#: serve-skew's client-side figures, recorded beside the metrics
#: (``secondary``) and tabulated by compare.py, without a bound: the
#: campaign workloads have no request stream to give them a value.
SERVE_UNITS = {"req_per_s": "1/s", "p50_ms": "ms", "p99_ms": "ms"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def drift_probe(reps: int = 5) -> float:
    """Median ms of a fixed CPU kernel: tells a slow host from a slow
    program.  Recorded beside the metrics, never applied to them."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        hashlib.sha256(b"perfbench" * 100_000).digest()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(args: argparse.Namespace) -> dict[str, Any]:
    try:
        # The ceiling keeps git from reading a repository above the
        # checkout; an exported tree has no sha, only the digest.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "store_namespaces": {},
    }


class Runner:
    """Runs rounds of one workload in child processes it always reaps."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seconds = args.seconds
        self.start = time.monotonic()
        self.deadline = self.start + RUN_DEADLINE_S
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.live: list[subprocess.Popen] = []
        self.namespaces: dict[str, str] = {}
        self.rounds = 0

    # -- processes ---------------------------------------------------------
    def env(self, store: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
                   PYTHONHASHSEED="0", REPRO_DSE_STORE=str(store),
                   TMPDIR=str(self.work))
        return env

    def spawn(self, argv: list[str], store: Path, log: Path,
              cpus: set[int] | None = None) -> subprocess.Popen:
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        with log.open("ab") as handle:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env(store),
                                    stdin=subprocess.DEVNULL, stdout=handle,
                                    stderr=handle, start_new_session=True,
                                    preexec_fn=pin)
        self.live.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen,
             timeout: float | None = None) -> tuple[int | None, float, float]:
        """``(exit code or None on timeout, peak RSS MiB, CPU seconds)``
        of the child and its reaped descendants."""
        limit = self.deadline if timeout is None \
            else min(self.deadline, time.monotonic() + timeout)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > limit:
                self.kill(proc)
                pid, status, usage = os.wait4(proc.pid, 0)
                status = None
                break
            time.sleep(0.005)
        proc.returncode = (None if status is None
                           else os.waitstatus_to_exitcode(status))
        self.reap_group(proc)
        return (proc.returncode, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:
        """SIGKILL the child's session and wait (briefly) until every
        member is gone; orphans are reaped by init."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        limit = time.monotonic() + 2.0
        while time.monotonic() < limit:
            if proc.returncode is None:
                return  # the leader itself is ours to reap
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def reap_group(self, proc: subprocess.Popen) -> None:
        """Kill anything the child left in its session."""
        self.kill(proc)
        if proc in self.live:
            self.live.remove(proc)

    def close(self) -> None:
        for proc in list(self.live):
            self.kill(proc)
            try:
                os.waitpid(proc.pid, 0)
            except ChildProcessError:
                pass
        self.live.clear()
        shutil.rmtree(self.work, ignore_errors=True)

    def round_dir(self) -> Path:
        self.rounds += 1
        path = self.work / f"round-{self.rounds}"
        path.mkdir(parents=True)
        return path

    # -- campaign-cold / sim-net -----------------------------------------
    def campaign_round(self, traced: bool = False,
                       setup_only: bool = False) -> dict[str, Any]:
        rdir = self.round_dir()
        result = rdir / "round.json"
        argv = [sys.executable, "-m", "perfbench.rounds", self.workload,
                "--result", str(result)]
        if traced:
            argv += ["--tallies", str(rdir / "tallies")]
        if setup_only:
            argv.append("--setup-only")
        start = time.monotonic()
        code, rss, cpu = self.wait(
            self.spawn(argv, rdir / "store", rdir / "log"))
        record: dict[str, Any] = {"exit": code, "peak_rss_mb": rss,
                                  "cpu_s": cpu}
        if code == 0 and result.exists():
            record.update(json.loads(result.read_text()))
            record["setup_s"] = record["measure_start"] - start
            if "measure_end" in record:
                record["wall_s"] = \
                    record["measure_end"] - record["measure_start"]
            self.namespaces.update(record.get("namespaces", {}))
        else:
            record["problems"] = [f"round exited {code}: "
                                  + tail(rdir / "log")]
        if traced and code == 0:
            from perfbench.tracer import merge

            record["tallies"] = merge(rdir / "tallies")
        shutil.rmtree(rdir, ignore_errors=True)
        return record

    # -- serve-skew --------------------------------------------------------
    def serve_round(self, schedule: Path, traced: bool = False) -> dict[str, Any]:
        rdir = self.round_dir()
        store = rdir / "store"
        serve_args = ["--port", "0", "--store", str(store), "--workers", "0",
                      "--hot-max", str(serveload.HOT_MAX)]
        if traced:
            argv = [sys.executable, "-m", "perfbench.traced_serve",
                    "--tallies", str(rdir / "tallies"), "--", *serve_args]
        else:
            argv = [sys.executable, "-m", "repro.serve", *serve_args]
        log = rdir / "server.log"
        # Client and server share one CPU.  Their requests alternate
        # anyway (one connection), and a reply that crosses vCPUs pays
        # the hypervisor's wakeup latency, which swings with the
        # neighbours' load: on a 2-vCPU VM, pinned rounds ran at ~1.7x
        # the throughput of unpinned ones in the same minutes, with half
        # the p99.
        cpus = {max(os.sched_getaffinity(0))}
        start = time.monotonic()
        server = self.spawn(argv, store, log, cpus)
        record: dict[str, Any] = {"problems": []}
        try:
            port = self.listening_port(server, log)
            client = self.spawn(
                [sys.executable, "-m", "perfbench.serveload",
                 "--port", str(port), "--schedule", str(schedule),
                 "--result", str(rdir / "client.json")],
                store, rdir / "client.log", cpus)
            code, client_rss, client_cpu = self.wait(client)
            if code != 0:
                raise BenchError(f"client exited {code}: "
                                 + tail(rdir / "client.log"))
            record.update(json.loads((rdir / "client.json").read_text()))
        except BenchError as exc:
            record["problems"].append(str(exc))
            client_rss = client_cpu = 0.0
        finally:
            if server.returncode is None and server in self.live:
                server.send_signal(signal.SIGTERM)
                server_exit, server_rss, server_cpu = self.wait(server,
                                                                timeout=30)
            else:
                server_exit, server_rss, server_cpu = server.returncode, 0.0, 0.0
        record["server_exit"] = server_exit
        if server_exit != 128 + signal.SIGTERM:
            record["problems"].append(f"server exited {server_exit} "
                                      f"(expected a clean drain)")
        record["peak_rss_mb"] = max(server_rss, client_rss)
        record["cpu_s"] = {"server": server_cpu, "client": client_cpu}
        if "measure_start" in record:
            record["setup_s"] = record["measure_start"] - start
            record["wall_s"] = record["measure_end"] - record["measure_start"]
        namespaces = sorted(p.name for p in store.iterdir() if p.is_dir()) \
            if store.is_dir() else []
        self.namespaces.update({"model": ns for ns in namespaces})
        if traced and (rdir / "tallies").is_dir():
            from perfbench.tracer import merge

            record["tallies"] = merge(rdir / "tallies")
        shutil.rmtree(rdir, ignore_errors=True)
        return record

    def listening_port(self, server: subprocess.Popen, log: Path) -> int:
        marker = b"listening on http://127.0.0.1:"
        limit = min(self.deadline, time.monotonic() + 60)
        while time.monotonic() < limit:
            text = log.read_bytes() if log.exists() else b""
            if marker in text:
                return int(text.split(marker, 1)[1].split(b" ", 1)[0])
            if server.poll() is not None:
                raise BenchError(f"server exited {server.returncode}: "
                                 + tail(log))
            time.sleep(0.005)
        raise BenchError("server did not start listening")

    # -- runs ----------------------------------------------------------------
    def round(self, schedule: Path | None, traced: bool = False
              ) -> dict[str, Any]:
        if self.workload == "serve-skew":
            assert schedule is not None
            return self.serve_round(schedule, traced)
        return self.campaign_round(traced)

    def timed(self, schedule: Path | None) -> list[dict[str, Any]]:
        """Rounds until the next one would overrun ``--seconds``."""
        probes = 0 if self.workload == "serve-skew" else SETUP_PROBES
        rounds = []
        while True:
            began = time.monotonic()
            record = self.round(schedule)
            rounds.append(record)
            if record.get("problems") or time.monotonic() > self.deadline:
                break
            took = time.monotonic() - began
            reserve = probes * record.get("setup_s", 0.0)
            if time.monotonic() - self.start + took + reserve > self.seconds:
                break
        return rounds + [self.campaign_round(setup_only=True)
                         for _ in range(probes)]


def tail(path: Path, lines: int = 5) -> str:
    if not path.exists():
        return "(no output)"
    text = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


# -- metrics -----------------------------------------------------------------

def accounting(workload: str, rounds: list[dict[str, Any]]
               ) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every round."""
    attempted = failed = 0
    problems: list[str] = []
    for record in rounds:
        problems += record.get("problems", [])
        if workload == "serve-skew":
            attempted += record.get("attempted", 0) + 1  # + the drain
            failed += record.get("failed", 0)
            failed += record.get("server_exit") != 128 + signal.SIGTERM
            if "attempted" not in record:
                failed += 1
        elif "measure_end" in record or record.get("exit") != 0:
            ops = ROUND_OPS[workload]
            attempted += ops
            if record.get("exit") != 0 or "points" not in record:
                failed += ops
            else:
                failed += record["failed"] + record["check_failed"]
    return max(attempted, 1), failed, problems


def end_to_end(workload: str, rounds: list[dict[str, Any]]
               ) -> tuple[dict[str, float], dict[str, float], dict[str, Any]]:
    """``(metrics, secondary figures, sample facts)`` of a timed run."""
    full = [r for r in rounds if "wall_s" in r]
    setups = [r["setup_s"] for r in rounds if "setup_s" in r]
    if not full or not setups:
        raise BenchError("no round completed")
    # Peak RSS is the lowest round's, not a median: glibc's dynamic
    # mmap threshold leaves a round's campaign workers or server at one
    # of two heap footprints ~12 MiB apart, picked by the pool's or the
    # service's scheduling, so a median of rounds flips between them.
    # Nearly every run has a round at the lower one, so it holds.
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(r["wall_s"] for r in full),
               "peak_rss_mb": min(r["peak_rss_mb"] for r in full)}
    facts: dict[str, Any] = {"rounds": len(full), "setup_samples": len(setups)}
    if workload != "serve-skew":
        return metrics, {}, facts
    latencies = [ms for r in full for ms in r["latency_ms"]]
    top = stats.supported_percentile(len(latencies))
    if top is None or top < 99.0:
        raise BenchError(f"{len(latencies)} latency samples cannot "
                         f"support p99")
    secondary = {
        "req_per_s": len(latencies) / sum(r["wall_s"] for r in full),
        "p50_ms": stats.percentile(latencies, 50.0),
        "p99_ms": stats.percentile(latencies, 99.0)}
    facts.update(samples=len(latencies), highest_percentile=top,
                 p_top_ms=stats.percentile(latencies, top))
    return metrics, secondary, facts


def traced_metrics(workload: str, plain: dict[str, Any],
                   traced: dict[str, Any]) -> dict[str, float]:
    if "tallies" not in traced or "wall_s" not in traced \
            or "wall_s" not in plain:
        raise BenchError("the traced round did not complete")
    rows, extra, _ = traced["tallies"]
    facts: dict[str, float] = {
        "pool_jobs": 2 if workload == "campaign-cold" else 0,
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.overhead_share": traced["wall_s"] / plain["wall_s"] - 1.0,
    }
    if workload == "serve-skew":
        tiers = traced["tiers"]
        answered = sum(tiers.values())
        facts.update({f"serve.requests.{tier}": n
                      for tier, n in tiers.items()})
        facts["serve.hot_hit_ratio"] = tiers["hot"] / answered \
            if answered else 0.0
        for kind, samples in traced["by_kind"].items():
            facts[f"serve.latency.{kind}"] = stats.percentile(samples, 50.0)
        status = traced["status"]
        facts["serve.rejected"] = status.get("503", 0)
        facts["serve.failed"] = sum(n for code, n in status.items()
                                    if code not in ("200", "503"))
        facts["serve.computed_total"] = traced["computed_total"]
    else:
        for name in ("evaluated", "cached", "failed", "retried"):
            facts[f"dse.points.{name}"] = traced[name]
        facts["sim.cycles"] = traced.get("sim_cycles", 0)
    return layers.per_layer_values(rows, extra, facts)


def run(args: argparse.Namespace) -> dict[str, Any]:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} "
                         f"is missing")
    if args.workload == "campaign-cold" and not (
            ROOT / "tests" / "arch" / "golden" / "harness_outputs.json"
    ).is_file():
        raise BenchError("campaign-cold checks against "
                         "tests/arch/golden/harness_outputs.json, "
                         "which is missing")
    compileall.compile_dir(ROOT / "src" / "repro", quiet=1)
    compileall.compile_dir(ROOT / "perfbench", quiet=1)
    record: dict[str, Any] = {"manifest": manifest(args),
                              "probe_ms": {"before": drift_probe()}}
    runner = Runner(args)
    try:
        runner.work.mkdir(parents=True, exist_ok=True)
        schedule = None
        if args.workload == "serve-skew":
            schedule = runner.work / "schedule.json"
            schedule.write_text(json.dumps(
                serveload.build_schedule(args.seed)))
        if args.trace:
            plain = runner.round(schedule)
            traced = runner.round(schedule, traced=True)
            rounds = [plain, traced]
            attempted, failed, problems = accounting(args.workload, rounds)
            metrics = traced_metrics(args.workload, plain, traced)
            units = {name: unit for name, unit, _ in layers.per_layer_specs()}
            record["missing_targets"] = traced["tallies"][2]
        else:
            rounds = runner.timed(schedule)
            attempted, failed, problems = accounting(args.workload, rounds)
            metrics, secondary, facts = end_to_end(args.workload, rounds)
            units = UNITS
            record["facts"] = facts
            record["secondary"] = {
                name: {"value": value, "unit": SERVE_UNITS[name]}
                for name, value in secondary.items()}
    finally:
        runner.close()
    record["probe_ms"]["after"] = drift_probe()
    record["manifest"]["store_namespaces"] = runner.namespaces
    record["rounds"] = [{k: v for k, v in r.items()
                         if k not in ("latency_ms", "by_kind", "tallies")}
                        for r in rounds]
    record.update(correct=failed == 0, attempted=attempted, failed=failed,
                  problems=problems[:20],
                  metrics={name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()})
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.time_ns()}.json")
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    manifest_ = record["manifest"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={manifest_['git_sha'] or manifest_['source_digest']} "
          f"nproc={manifest_['nproc']} probe_ms="
          f"{record['probe_ms']['before']:.2f}/"
          f"{record['probe_ms']['after']:.2f} "
          f"{json.dumps(record.get('facts', {}))}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for name, entry in record.get("secondary", {}).items():
        print(f"  ({name} = {entry['value']:.6g} {entry['unit']}, no bound)")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
