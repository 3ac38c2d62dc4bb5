"""The local Ray session, process accounting and the per-job time limit.

The session is pinned to ``NUM_CPUS`` logical CPUs: at 4 the extraction
pool is 3 actors; at 1 and 2 the extraction and MinHash pools hold every
CPU and their pipelines never progress.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager

NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are capped near 107 bytes and Ray nests its sockets
# ~75 bytes below the temp dir; a longer dir falls back to Ray's default
MAX_TEMP_DIR_CHARS = 30


class JobTimeout(Exception):
    """A timed job ran past its limit (a hang, counted as a failed op)."""


@contextmanager
def time_limit(seconds: float):
    """Raise ``JobTimeout`` in the main thread after ``seconds``."""
    def _raise(signum, frame):  # noqa: ANN001, ARG001
        raise JobTimeout(f"job exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        tree.setdefault(int(fields[1]), []).append(int(entry))
    return tree


def descendants(pid: int) -> list[int]:
    tree, out, todo = _children(), [], [pid]
    while todo:
        kids = tree.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def tree_rss_bytes(pid: int) -> int:
    """Summed RSS of ``pid`` and every process below it."""
    return sum(_rss_bytes(p) for p in [pid, *descendants(pid)])


def cpu_ticks() -> tuple[int, int]:
    """(steal, all) CPU ticks of this machine since boot: the share the
    hypervisor gave to other guests, and the total."""
    with open("/proc/stat", encoding="ascii") as f:
        ticks = [int(t) for t in f.readline().split()[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


class RssSampler:
    """Background sampler of this process tree's RSS; ``peak`` is the
    largest sum seen while running."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> RssSampler:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self._stop.set()
        self._thread.join()


def wait_idle(timeout_s: float = 10.0) -> None:
    """Wait until every logical CPU of the session is free: a finished
    job's actors can keep theirs reserved for a while, and a job started
    meanwhile can stall for ~20 s waiting for them."""
    import gc

    import ray

    gc.collect()
    deadline = time.monotonic() + timeout_s
    while (ray.available_resources().get("CPU", 0) < NUM_CPUS
           and time.monotonic() < deadline):
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class RaySession:
    """One local Ray cluster started by this process, stopped by ``stop``,
    which waits until every process the cluster started has ended."""

    def __init__(self, repo_root: str, temp_dir: str) -> None:
        self.repo_root = repo_root
        self.temp_dir = temp_dir

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        # Ray workers import the library by module path and do not inherit
        # this process's sys.path
        path = os.environ.get("PYTHONPATH")
        if self.repo_root not in (path or "").split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                self.repo_root + os.pathsep + path if path else self.repo_root)
        kwargs = {}
        if len(self.temp_dir) <= MAX_TEMP_DIR_CHARS:
            os.makedirs(self.temp_dir, exist_ok=True)
            kwargs["_temp_dir"] = self.temp_dir
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 object_store_memory=OBJECT_STORE_BYTES, logging_level="ERROR",
                 log_to_driver=False, **kwargs)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def stop(self, wait_s: float = 20.0) -> None:
        import ray

        pids = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        deadline = time.monotonic() + wait_s
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        for p in pids:
            if _alive(p):
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
        while any(_alive(p) for p in pids) and time.monotonic() < deadline + 5:
            time.sleep(0.05)
