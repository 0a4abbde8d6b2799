#!/usr/bin/env python3
"""End-to-end benchmark of ``repro raf`` and ``repro serve --listen``.

Usage::

    python3 perfbench/run.py --workload raf-cli --seed 1 --seconds 12 --trace 0

Run from the repository root.  The program is driven from outside: CLI
subprocesses for ``raf-cli``, and a TCP client talking JSON lines to a
``repro serve --listen`` subprocess for ``serve-wide``.
Every answer is checked (see README.md).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run (``tracer.py``) with ``--trace 1``.

The command returns only after every process the run started has ended:
the run itself goes on in a child process (``supervise``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import refsim

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Launches per run behind the median ``setup_s``, spread over the measured
#: phase so that they see the same host as the operations.
SETUP_LAUNCHES = 10
#: Tolerance of every statistical check, in standard errors.
Z = 5.0
#: Forward Process-1 simulations behind each reference f(I).
FORWARD_SAMPLES = 20_000
#: Requests sent between two checks for a due set-up launch; the pipeline
#: drains at each such boundary.
SEGMENT_REQUESTS = 32
#: ``repro raf``'s relative error of the stopping-rule pmax (RAFConfig).
RAF_PMAX_EPSILON = 0.1
#: Set in the child process that makes the run (``supervise``).
CHILD_ENV = "PERFBENCH_RUN_CHILD"
#: How long processes left behind by a run get to end before they are killed.
STRAGGLER_GRACE_S = 30.0
#: ``prctl`` option that makes this process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36
#: Process-1 simulations behind the f(I) that ``repro raf`` prints.
RAF_EVAL_SAMPLES = 1000


class CheckFailed(AssertionError):
    """A program output disagreed with its reference."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------- #
# Processes of the program
# --------------------------------------------------------------------------- #


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHASHSEED", None)
    env.pop(CHILD_ENV, None)
    return env


def program_argv(args: list[str], trace_file: "Path | None") -> list[str]:
    if trace_file is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(BENCH / "tracer.py"), str(trace_file), "--", *args]


def run_cli(args: list[str], trace_file: "Path | None" = None) -> dict:
    """One CLI process: wall time from launch to exit, its rusage, stdout."""
    with tempfile.TemporaryFile(dir=inputs.CACHE) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            program_argv(args, trace_file), cwd=ROOT, env=program_env(),
            stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
        )
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "seconds": elapsed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "stdout": stdout.decode(),
        "stderr": stderr,
    }


def _proc_stat(pid: int) -> "list[str] | None":
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _children(pid: int) -> list[int]:
    found = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            found.extend(int(c) for c in (task / "children").read_text().split())
    except OSError:
        pass
    return found


def tree_cpu_seconds(pid: int) -> float:
    """User+system CPU of ``pid``, its reaped children and its live children."""
    ticks = os.sysconf("SC_CLK_TCK")
    stat = _proc_stat(pid)
    if stat is None:
        return 0.0
    # Fields after the command name start at field 3 (state): utime is 14,
    # stime 15, cutime 16, cstime 17.
    total = sum(int(stat[i]) for i in (11, 12, 13, 14))
    for child in _children(pid):
        child_stat = _proc_stat(child)
        if child_stat is not None:
            total += int(child_stat[11]) + int(child_stat[12])
    return total / ticks


def peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """A ``repro serve --listen`` subprocess and one JSON-lines connection."""

    def __init__(self, args: list[str], trace_file: "Path | None" = None) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            program_argv(args, trace_file),
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.stderr: list[str] = []
        try:
            port = self._await_port(deadline=time.monotonic() + 120)
            self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
            self._drain.start()
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.lines = self.sock.makefile("rb")
            self.request({"op": "stats"})
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.started

    def _await_port(self, deadline: float) -> int:
        stream = self.proc.stderr
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 1.0)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = stream.readline().decode(errors="replace")
            if not line:
                break
            self.stderr.append(line)
            if line.startswith("listening on "):
                return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError("server did not start:\n" + "".join(self.stderr))

    def _drain_stderr(self) -> None:
        for raw in self.proc.stderr:
            self.stderr.append(raw.decode(errors="replace"))

    def send(self, request: dict) -> None:
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def receive(self) -> dict:
        line = self.lines.readline()
        if not line:
            raise RuntimeError("server closed the connection:\n" + "".join(self.stderr[-20:]))
        return json.loads(line)

    def request(self, request: dict) -> dict:
        self.send(request)
        return self.receive()

    def stop(self) -> int:
        """SIGINT (a clean drain), escalating to SIGKILL; waits for exit."""
        for attr in ("lines", "sock"):
            handle = getattr(self, attr, None)
            if handle is not None:
                handle.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                log(f"server {self.proc.pid} still runs 30 s after SIGINT; killing it")
                self.proc.kill()
                self.proc.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=10)
        return self.proc.returncode


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def host_probe_ms() -> float:
    """Median time of a fixed Python + numpy loop: host speed, not program speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        values = np.random.default_rng(0).random(200_000)
        np.sort(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def end_to_end(latencies: list[float], tail: float, wall_s: float, cpu_s: float,
               rss_mb: float, setups: list[float]) -> dict:
    """The six end-to-end metrics over the completed operations; none without any."""
    ops = len(latencies)
    if not ops:
        return {}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (percentile(latencies, tail) * 1000.0, "ms"),
        "cpu_ms_per_op": (cpu_s * 1000.0 / ops, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


class Workload:
    name = ""
    tail = 0.5

    def __init__(self, seed: int, seconds: float, trace_dir: "Path | None") -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace_dir = trace_dir
        self.rng = random.Random(seed)
        self.metrics: dict = {}
        self.layer: dict = {}
        self.attempted = 0
        self.failed = 0
        self.quality: list[tuple[int, float]] = []  # (|I|, f(I)/pmax) per checked answer
        self.type1_sets: list[int] = []  # type-1 realizations behind each cover
        self.client_latencies: list[float] = []

    def trace_file(self, label: str) -> "Path | None":
        if self.trace_dir is None:
            return None
        return self.trace_dir / f"{label}.json"


class RafCli(Workload):
    """Sequential ``repro raf`` processes over a fixed cycle of screened pairs.

    A run is at least ``rounds_min`` rounds (40 processes, so a tail
    exists), however short ``--seconds`` is.
    """

    name = "raf-cli"
    tail = 0.75
    rounds_min = 5

    def prepare(self) -> None:
        self.graph_file, self.graph, self.pairs = inputs.prepare_graph(inputs.GRAPH_G)
        order = list(self.pairs)
        self.rng.shuffle(order)
        self.cycle = order
        # Rounds cycle through four program seeds, so the fifth round
        # repeats the first: the same (pair, seed) must print the same bytes.
        self.cli_seeds = [self.rng.randrange(1, 2**31) for _ in range(4)]

    def setup_launch(self, index: int) -> float:
        result = run_cli(["--help"], self.trace_file(f"help-{index}"))
        check(result["returncode"] == 0, f"repro --help exited {result['returncode']}")
        return result["seconds"]

    def args(self, pair, seed: int) -> list[str]:
        return [
            "--seed", str(seed), "raf", "--edge-list", str(self.graph_file),
            "--source", str(pair.source), "--target", str(pair.target),
            "--engine", "numpy-alias", "--realizations", "5000",
            "--eval-samples", str(RAF_EVAL_SAMPLES),
        ]

    def run(self) -> None:
        run_cli(["--help"])  # fill the bytecode cache, as an installed package has
        # One set-up launch after every few processes of the first rounds_min
        # rounds; the measured wall time leaves the launches out.
        launch_every = self.rounds_min * len(self.cycle) // SETUP_LAUNCHES
        outputs: dict = {}
        latencies, cpu, rss, setups, paused = [], 0.0, 0.0, [], 0.0
        start = time.perf_counter()
        rounds = 0
        while rounds < self.rounds_min or time.perf_counter() - start - paused < self.seconds:
            seed = self.cli_seeds[rounds % len(self.cli_seeds)]
            for index, pair in enumerate(self.cycle):
                self.attempted += 1
                label = f"raf-{rounds}-{index}"
                result = run_cli(self.args(pair, seed), self.trace_file(label))
                if self.attempted % launch_every == 0 and len(setups) < SETUP_LAUNCHES:
                    launched = time.perf_counter()
                    setups.append(self.setup_launch(len(setups)))
                    paused += time.perf_counter() - launched
                if result["returncode"] != 0:
                    self.failed += 1
                    log(f"{label}: exit {result['returncode']}\n{result['stderr'][-2000:]}")
                    continue
                latencies.append(result["seconds"])
                cpu += result["cpu_s"]
                rss = max(rss, result["maxrss_mb"])
                outputs.setdefault((pair, seed), []).append(result["stdout"])
            rounds += 1
        wall = time.perf_counter() - start - paused
        self.metrics = end_to_end(latencies, self.tail, wall, cpu, rss, setups)
        self.client_latencies = latencies
        self.verify(outputs)

    def verify(self, outputs: dict) -> None:
        rng = np.random.default_rng(self.seed)
        for (pair, seed), texts in outputs.items():
            check(all(text == texts[0] for text in texts),
                  f"pair {pair.source}->{pair.target} seed {seed}: identical runs printed "
                  "different bytes")
            report = parse_raf(texts[0])
            check(pair.target in report["invitation"],
                  f"pair {pair.source}->{pair.target}: the invitation lacks the target")
            check(report["covered"] >= report["cover_target"],
                  f"pair {pair.source}->{pair.target}: covered {report['covered']} "
                  f"< target {report['cover_target']}")
            check_pmax(report["pmax"], pair, RAF_PMAX_EPSILON, rounding=5e-5)
            reference = reference_acceptance(self.graph, pair, report["invitation"], rng)
            check_acceptance(report["f"], RAF_EVAL_SAMPLES, reference, pair)
            self.quality.append((len(report["invitation"]), reference / pair.pmax))
            self.type1_sets.append(report["type1"])


def parse_raf(text: str) -> dict:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("RAF invitation set"))
    invitation = [int(item) for item in lines[header + 1].split(",") if item.strip()]
    fields = {}
    for line in lines[header + 2:]:
        if ":" in line:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    covered, target = (int(v) for v in fields["covered / target"].split("/"))
    type1 = int(fields["sampled realizations"].split("(")[1].split()[0])
    return {
        "type1": type1,
        "invitation": invitation,
        "pmax": float(fields["pmax estimate"]),
        "covered": covered,
        "cover_target": target,
        "f": float(fields["estimated f(I_RAF)"]),
    }


def check_pmax(value: float, pair, epsilon: float, rounding: float = 0.0) -> None:
    """The stopping rule's relative guarantee, widened by the reference's error."""
    low = (1.0 - epsilon) * (pair.pmax - Z * pair.pmax_sigma) - rounding
    high = (1.0 + epsilon) * (pair.pmax + Z * pair.pmax_sigma) + rounding
    check(low <= value <= high,
          f"pair {pair.source}->{pair.target}: pmax {value} outside [{low:.4f}, {high:.4f}] "
          f"around the reference {pair.pmax:.4f}")


def reference_acceptance(graph, pair, invitation, rng) -> float:
    hits = refsim.forward_acceptance(
        graph, graph.index(pair.source), graph.index(pair.target),
        [graph.index(node) for node in invitation], FORWARD_SAMPLES, rng,
    )
    return hits / FORWARD_SAMPLES


def check_acceptance(value: float, samples: int, reference: float, pair) -> None:
    sigma = math.hypot(refsim.sampling_sigma(reference, samples),
                       refsim.sampling_sigma(reference, FORWARD_SAMPLES))
    check(abs(value - reference) <= Z * sigma,
          f"pair {pair.source}->{pair.target}: f(I) {value} vs reference {reference:.4f} "
          f"(tolerance {Z * sigma:.4f})")


class ServeWide(Workload):
    """Many pairs over a mapped snapshot with two workers: most reads miss.

    One connection to ``repro serve --listen``, ``depth`` requests in flight.
    """

    name = "serve-wide"
    tail = 0.90
    graph_spec = inputs.GRAPH_D
    serve_args = ["--workers", "2"]
    reference_workers = 2
    # One caller that waits for each answer.  The server answers a
    # connection in order, so a pipelined cheap request waits for a slow
    # pmax ahead of it, and a second caller runs beside the pmax's workers;
    # either way the median sat on the step between the two modes (README).
    depth = 1
    pmax_epsilon = 0.2
    eval_samples = 2000
    realizations = 2000
    budgets: tuple = (3, 6)

    def prepare(self) -> None:
        self.graph_file, self.graph, self.pairs = inputs.prepare_graph(self.graph_spec)
        self.server_seed = self.rng.randrange(1, 2**31)
        self.requests = []
        for pair in self.pairs:
            base = {"source": pair.source, "target": pair.target}
            self.requests.append(({"op": "pmax", **base, "epsilon": self.pmax_epsilon}, pair))
            invitation = inputs.bridge_invitation(self.graph, pair)
            self.requests.append(({"op": "evaluate", **base, "invitation": invitation,
                                   "num_samples": self.eval_samples}, pair))
            for budget in self.budgets:
                self.requests.append(({"op": "maximize", **base, "budget": budget,
                                       "num_realizations": self.realizations}, pair))
        self.snapshot = inputs.prepare_snapshot(self.graph_spec, self.graph_file, program_env())

    def graph_args(self) -> list[str]:
        return ["--snapshot", str(self.snapshot)]

    def launch(self, label: str) -> Server:
        return Server(["--seed", str(self.server_seed), "serve", "--listen", "127.0.0.1:0",
                       *self.graph_args(), "--engine", "numpy-alias", *self.serve_args],
                      self.trace_file(label))

    def round_order(self) -> list[int]:
        """One round: every distinct request once, in a seeded order.

        A run sends whole rounds, so its request mix is the same whatever
        the seed and however many rounds fit in ``--seconds``.
        """
        order = list(range(len(self.requests)))
        self.rng.shuffle(order)
        return order

    def setup_launch(self, index: int) -> float:
        """Launch a server, time it to its first answer, and stop it."""
        server = self.launch(f"setup-{index}")
        code = server.stop()
        check(code == 0, f"set-up server exited {code}:\n{''.join(server.stderr[-20:])}")
        return server.setup_s

    def run(self) -> None:
        server = None
        try:
            # The first launch serves the workload.  The other set-up launches
            # come between segments of the measured phase, each at its share
            # of --seconds, while the serving server is idle; the measured
            # wall and CPU time leave them out.
            server = self.launch("serve")
            setups = [server.setup_s]
            latencies, answers, wall, cpu, rounds = [], {}, 0.0, 0.0, 0
            while rounds == 0 or wall < self.seconds:
                order = self.round_order()
                for first in range(0, len(order), SEGMENT_REQUESTS):
                    cpu0 = tree_cpu_seconds(server.proc.pid)
                    start = time.perf_counter()
                    lat, got = self.exchange(server, order[first:first + SEGMENT_REQUESTS])
                    wall += time.perf_counter() - start
                    cpu += tree_cpu_seconds(server.proc.pid) - cpu0
                    latencies.extend(lat)
                    for index, response in got:
                        answers.setdefault(index, []).append(response)
                    if len(setups) < 1 + (SETUP_LAUNCHES - 1) * min(1.0, wall / self.seconds):
                        setups.append(self.setup_launch(len(setups)))
                rounds += 1
            while len(setups) < SETUP_LAUNCHES:
                setups.append(self.setup_launch(len(setups)))
            rss = max([peak_rss_mb(server.proc.pid)]
                      + [peak_rss_mb(child) for child in _children(server.proc.pid)])
            self.layer["parallel.worker_peak_rss_mb"] = max(
                [0.0] + [peak_rss_mb(child) for child in _children(server.proc.pid)])
            stats = server.request({"op": "stats"})["result"]
        finally:
            code = server.stop() if server is not None else None
        check(code == 0, f"server exited {code}:\n{''.join(server.stderr[-20:])}")
        self.metrics = end_to_end(latencies, self.tail, wall, cpu, rss, setups)
        self.client_latencies = latencies
        self.verify(answers, stats)

    def exchange(self, server: Server, order: list[int]):
        """Send ``order`` keeping ``depth`` requests in flight; responses come in order."""
        sent: list[tuple[int, float]] = []
        latencies, got = [], []
        position = 0
        while position < len(order) or sent:
            while position < len(order) and len(sent) < self.depth:
                index = order[position]
                sent.append((index, time.perf_counter()))
                server.send(self.requests[index][0])
                position += 1
            response = server.receive()
            index, when = sent.pop(0)
            elapsed = time.perf_counter() - when
            self.attempted += 1
            if not response.get("ok") or response.get("op") != self.requests[index][0]["op"]:
                self.failed += 1
                log(f"request {self.requests[index][0]} failed: {response}")
                continue
            latencies.append(elapsed)
            got.append((index, response["result"]))
        return latencies, got

    def verify(self, answers: dict, stats: dict) -> None:
        tenant = stats["tenants"]["default"]
        # `stats` itself is not a query.
        check(tenant["requests"] == tenant["executed"] + tenant["coalesced"] + tenant["rejected"],
              f"stats do not reconcile: {tenant}")
        check(tenant["rejected"] == 0, f"the service rejected {tenant['rejected']} requests")
        check(tenant["requests"] == self.attempted,
              f"stats count {tenant['requests']} requests, the client sent {self.attempted}")
        self.layer.update({
            "service.executed": tenant["executed"],
            "service.coalesced": tenant["coalesced"],
            "service.rejected": tenant["rejected"],
            "service.reported_p50_ms": (tenant["latency_p50"] or 0.0) * 1000.0,
        })
        from repro.diffusion.engine import create_engine
        from repro.parallel.engine import maybe_parallel

        graph = self.library_graph()
        # Answers are identical for every worker count (chunked streams), so
        # the reference may fan its sampling out too.
        engine = maybe_parallel(create_engine(graph, "numpy-alias"), self.reference_workers)
        try:
            self.check_answers(answers, graph, engine)
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()

    def check_answers(self, answers: dict, graph, engine) -> None:
        """Each distinct answer against the library and the reference simulator."""
        from repro.experiments.records import to_jsonable
        from repro.pool.sample_pool import SamplePool
        from repro.service.query_service import QUERY_KINDS, execute_query

        rng = np.random.default_rng(self.seed)
        acceptance: dict = {}
        for index, responses in sorted(answers.items()):
            request, pair = self.requests[index]
            first = canonical(responses[0])
            check(all(canonical(r) == first for r in responses),
                  f"{request}: the server gave different answers to one request")
            fields = {k: v for k, v in request.items() if k != "op"}
            query = QUERY_KINDS[request["op"]](**fields)
            expected = to_jsonable(execute_query(graph, query, SamplePool(engine, seed=self.server_seed)))
            check(canonical(expected) == first,
                  f"{request}: server answer differs from the library's fresh-pool answer")
            answer = responses[0]
            if request["op"] == "pmax":
                check_pmax(answer["value"], pair, request["epsilon"])
            elif request["op"] == "evaluate":
                key = (pair, tuple(request["invitation"]))
                if key not in acceptance:
                    acceptance[key] = reference_acceptance(self.graph, pair, request["invitation"], rng)
                check_acceptance(answer["probability"], request["num_samples"],
                                 acceptance[key], pair)
            else:
                invitation = answer["invitation"]
                check(len(invitation) <= request["budget"],
                      f"{request}: {len(invitation)} invitees over budget {request['budget']}")
                value = reference_acceptance(self.graph, pair, invitation, rng)
                self.quality.append((len(invitation), value / pair.pmax))
                self.type1_sets.append(answer["num_type1"])

    def library_graph(self):
        from repro.graph.compiled import CompiledGraph

        return CompiledGraph.open(self.snapshot)


WORKLOADS = {cls.name: cls for cls in (RafCli, ServeWide)}


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Servers stop on SIGINT.  A command started in the background of a
    # non-interactive shell inherits SIGINT ignored, and the program's
    # processes would inherit that in turn: an ignored signal stays ignored
    # across exec, a handled one reverts to the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "cli.py").is_file():
        log(f"error: the program's sources are missing ({SRC / 'repro'}); "
            "run from a full checkout of the repository")
        return 2
    # The library, for the reference answers made in this process.
    sys.path.insert(0, str(SRC))
    probe_start = host_probe_ms()
    inputs.CACHE.mkdir(exist_ok=True)
    trace_dir = None
    if args.trace:
        trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=inputs.CACHE))
    workload = WORKLOADS[args.workload](args.seed, args.seconds, trace_dir)
    correct = True
    try:
        workload.prepare()
        workload.run()
    except CheckFailed as error:
        log(f"check failed: {error}")
        correct = False
    probe_end = host_probe_ms()
    log(f"host probe: {probe_start:.1f} ms at start, {probe_end:.1f} ms at end")
    if args.trace:
        import tracer

        metrics = tracer.per_layer(workload, trace_dir)
        metrics["host.probe_ms"] = ((probe_start + probe_end) / 2, "ms")
        for path in trace_dir.iterdir():
            path.unlink()
        trace_dir.rmdir()
    else:
        metrics = workload.metrics
    # Every operation must complete: a failed one is a fault of the program.
    result = {
        "correct": correct and bool(workload.metrics) and workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _become_subreaper() -> bool:
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap_children() -> bool:
    """Reap every exited child; whether any child is still running."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _await_descendants(pgid: int, subreaper: bool) -> None:
    """Wait until the run's process group and every adopted orphan have ended.

    Stragglers still there after ``STRAGGLER_GRACE_S`` are killed.
    """
    deadline = time.monotonic() + STRAGGLER_GRACE_S
    killed = False
    while True:
        children = _reap_children() if subreaper else False
        if not children and not _group_alive(pgid):
            return
        if time.monotonic() > deadline:
            if killed:
                log("error: processes of the run survive SIGKILL")
                return
            log(f"killing processes of the run still alive {STRAGGLER_GRACE_S:.0f} s after it ended")
            for pid in [-pgid] + _children(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + STRAGGLER_GRACE_S
        time.sleep(0.02)


def supervise(argv: list[str]) -> int:
    """Make the run in a child process; return once every process it started has ended.

    Some processes outlive the one that started them: each multiprocessing
    resource tracker (started by the server's sampling workers, and by this
    benchmark's own reference engine) ends only after its parent has exited.
    The child therefore leads a process group of its own, and this process
    adopts orphaned descendants as a child subreaper, so that it can wait
    for all of them before it exits.
    """
    subreaper = _become_subreaper()
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                             env={**os.environ, CHILD_ENV: "1"}, start_new_session=True)

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        _await_descendants(child.pid, subreaper)


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise(sys.argv[1:]))
