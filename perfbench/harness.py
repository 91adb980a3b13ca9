"""Shared plumbing: child processes, the checkpoint fixture, the environment.

Every workload drives ``repro`` through its CLI in fresh child
processes (``python -m repro.cli ...`` with ``PYTHONPATH=src``), reading
their merged stdout/stderr line by line with arrival timestamps; the
first line that shows the command is ready ends its set-up.  Children
are reaped with ``os.wait4``, whose ``ru_maxrss`` is the child's peak
resident set (the kernel's VmHWM).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: The committed trained VGG16 base (synth10, quick preset, seed 0).
BASE_KEY = "4827f204fdf1a3c5ba203168"
BASE_DIR = Path(".cache") / "repro-experiments"
#: The protect command every workload's checkpoint comes from.
PROTECT_ARGS = ["protect", "--model", "vgg16", "--method", "fitact", "--preset", "quick"]
#: Wall-clock cap of one benchmark invocation (the contract allows 180 s).
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A failure that stops the run (no result line is printed)."""


def median(values) -> float:
    return float(statistics.median(values))


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


class Proc:
    """A child process whose output lines are timestamped as they arrive."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: Path) -> None:
        self.argv = argv
        self.t_spawn = time.perf_counter()
        self.popen = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
        )
        self.lines: list[tuple[float, str]] = []
        self.t_eof: float | None = None
        self.maxrss_kb = 0
        self.returncode: int | None = None
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.popen.stdout:
            with self._cond:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self.t_eof = time.perf_counter()
            self._cond.notify_all()

    def wait_line(self, predicate, timeout: float) -> tuple[float, str]:
        """Arrival time and text of the first line matching ``predicate``."""
        deadline = time.perf_counter() + timeout
        seen = 0
        with self._cond:
            while True:
                for stamp, line in self.lines[seen:]:
                    if predicate(line):
                        return stamp, line
                seen = len(self.lines)
                if self.t_eof is not None:
                    raise BenchError(
                        f"{' '.join(self.argv[-8:])} ended before it was ready:\n"
                        + self.output(tail=20)
                    )
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchError(f"timed out waiting for {' '.join(self.argv[-8:])}")
                self._cond.wait(remaining)

    def output(self, tail: int | None = None) -> str:
        with self._cond:
            lines = self.lines if tail is None else self.lines[-tail:]
            return "\n".join(line for _, line in lines)

    def finish(self, timeout: float) -> int:
        """Wait for exit (killing after ``timeout``); returns the exit code."""
        if self.returncode is not None:
            return self.returncode
        # Sleep until the child closes its output (it is exiting) rather
        # than polling: wake-ups here would steal cycles from the child.
        with self._cond:
            self._cond.wait_for(lambda: self.t_eof is not None, timeout)
            ended = self.t_eof is not None
        if not ended:
            self.popen.kill()
        _, status, usage = os.wait4(self.popen.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.popen.returncode = self.returncode  # reaped here, not by Popen
        self.maxrss_kb = int(usage.ru_maxrss)
        self._reader.join(timeout=5)
        self.popen.stdout.close()
        return self.returncode

    def terminate(self, timeout: float) -> int:
        if self.returncode is None:
            try:
                self.popen.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
        return self.finish(timeout)

    @property
    def t_end(self) -> float:
        return self.t_eof if self.t_eof is not None else time.perf_counter()


class Bench:
    """One benchmark invocation: arguments, paths, children, failures."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.build_dir = root / ".bench_build" / "perfbench"
        self.work = self.build_dir / f"run-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self.children: list[Proc] = []
        self.fixture: dict[str, object] = {}
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONUNBUFFERED="1",
            REPRO_CACHE_DIR=str(self.work / "cache"),
        )
        self.env.pop("REPRO_LOG_LEVEL", None)

    # -- time ---------------------------------------------------------
    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def timeout(self, wanted: float) -> float:
        left = self.remaining()
        if left < 5:
            raise BenchError("run budget exhausted")
        return min(wanted, left - 2)

    # -- outcomes -----------------------------------------------------
    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failures.extend([message] * count)

    # -- children -----------------------------------------------------
    def spawn(self, repro_args: list[str], spans: Path | None = None) -> Proc:
        """Start ``repro <args>``; with ``spans``, under the traced launcher."""
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", *repro_args]
        else:
            launcher = str(self.root / "perfbench" / "traced_cli.py")
            argv = [sys.executable, launcher, str(spans), "--", *repro_args]
        proc = Proc(argv, self.env, self.root)
        self.children.append(proc)
        return proc

    def python(self, script: str, args: list[str], timeout: float) -> Proc:
        argv = [sys.executable, str(self.root / "perfbench" / script), *args]
        proc = Proc(argv, self.env, self.root)
        self.children.append(proc)
        proc.finish(self.timeout(timeout))
        return proc

    def close(self) -> None:
        for proc in self.children:
            if proc.returncode is None:
                proc.popen.kill()
                proc.finish(10)
        shutil.rmtree(self.work, ignore_errors=True)

    # -- inputs -------------------------------------------------------
    def fresh_cache(self) -> Path:
        """A private copy of the committed trained base for REPRO_CACHE_DIR."""
        return copy_base(self.root, self.work / "cache")

    def runtime_flag(self, command: str) -> list[str]:
        """``["--runtime"]`` while ``repro <command> --help`` still lists it."""
        return ["--runtime"] if self.fixture["runtime_flag"][command] else []

    def inference_path(self, command: str) -> str:
        if self.fixture["runtime_flag"][command]:
            return "compiled plan (--runtime)"
        return "default path (--runtime not offered)"


# ----------------------------------------------------------------------
# Layout check, fixture, environment
# ----------------------------------------------------------------------
def check_layout(root: Path) -> None:
    if not (root / "src" / "repro" / "cli" / "main.py").is_file():
        raise BenchError(f"no repro sources under {root / 'src'}; run from a full checkout")
    base = root / BASE_DIR / f"{BASE_KEY}.npz"
    if not base.is_file() or not base.with_suffix(".json").is_file():
        raise BenchError(
            f"trained VGG16 base {base} is missing; the benchmark never trains, "
            "it needs the committed .cache/repro-experiments entry"
        )


def copy_base(root: Path, cache: Path) -> Path:
    cache.mkdir(parents=True, exist_ok=True)
    for suffix in (".json", ".npz"):
        shutil.copy2(root / BASE_DIR / f"{BASE_KEY}{suffix}", cache)
    return cache


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    digest.update((root / BASE_DIR / f"{BASE_KEY}.npz").read_bytes())
    return digest.hexdigest()


def checkpoint_meta(path: Path) -> dict[str, object]:
    with np.load(path, allow_pickle=False) as data:
        return json.loads(str(data["__repro_checkpoint__"]))["meta"]


def checkpoint_arrays(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files if k != "__repro_checkpoint__"}


def ensure_fixture(bench: Bench) -> dict[str, object]:
    """The FitAct VGG16 checkpoint, built once per checkout and source tree.

    Built by ``repro protect`` against a temporary copy of the committed
    cache (``REPRO_CACHE_DIR``).  A cache that gains an entry means the
    command trained instead of loading the base: that is refused.
    """
    key = source_digest(bench.root)
    final = bench.build_dir / f"fixture-{key[:16]}"
    record = final / "fixture.json"
    if record.is_file():
        fixture = json.loads(record.read_text())
        fixture["built_now"] = False
        return fixture
    staging = bench.build_dir / f"fixture-{key[:16]}.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    cache = copy_base(bench.root, staging / "cache")
    before = sorted(p.name for p in cache.iterdir())
    env = dict(bench.env, REPRO_CACHE_DIR=str(cache))
    started = time.perf_counter()
    out = staging / "vgg16-fitact.npz"
    proc = Proc([sys.executable, "-m", "repro.cli", *PROTECT_ARGS, "--out", str(out)], env, bench.root)
    bench.children.append(proc)
    if proc.finish(600) != 0 or not out.is_file():
        raise BenchError("building the FitAct VGG16 checkpoint failed:\n" + proc.output(tail=20))
    if sorted(p.name for p in cache.iterdir()) != before:
        raise BenchError("repro protect wrote a new cache entry: it trained instead of loading the base")
    flags = {}
    for command in (["campaign", "run"], ["serve"]):
        helper = Proc([sys.executable, "-m", "repro.cli", *command, "--help"], env, bench.root)
        bench.children.append(helper)
        helper.finish(60)
        flags[" ".join(command)] = "--runtime" in helper.output()
    fixture = {
        "source_digest": key,
        "checkpoint": str((final / "vgg16-fitact.npz").relative_to(bench.root)),
        "clean_accuracy": checkpoint_meta(out)["clean_accuracy"],
        "build_s": time.perf_counter() - started,
        "runtime_flag": flags,
    }
    (staging / "fixture.json").write_text(json.dumps(fixture, indent=2))
    shutil.rmtree(cache)
    if final.exists():  # another invocation finished first
        shutil.rmtree(staging, ignore_errors=True)
    else:
        staging.rename(final)
    fixture = json.loads(record.read_text())
    fixture["built_now"] = True
    return fixture


def memcpy_gbps(root: Path) -> dict[str, float]:
    """The copy roofline, measured in a child so this process stays small
    (children inherit its resident-set high-water mark at fork)."""
    proc = Proc([sys.executable, str(root / "perfbench" / "roofline.py")], dict(os.environ), root)
    if proc.finish(60) != 0:
        raise BenchError("memcpy roofline failed:\n" + proc.output(tail=5))
    return json.loads(proc.output().splitlines()[-1])


def environment(bench: Bench, memcpy: dict[str, float]) -> dict[str, object]:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True, text=True,
            timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(bench.root.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the benchmark checkout is usually not a git repository
    return {
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "source_digest": bench.fixture.get("source_digest"),
        "seed": bench.seed,
        "runtime.memcpy_gbps": memcpy["gbps"],
        "memcpy_array_bytes": memcpy["array_bytes"],
        "llc_bytes": memcpy["llc_bytes"],
    }
