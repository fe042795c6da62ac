"""Ray session and process bookkeeping: one local Ray session sized to this
host, peak summed RSS of the benchmark's process tree, and a shutdown that
waits until every process the session started has ended."""

import os
import signal
import subprocess
import sys
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets up
# to 64 bytes below the temp dir (session_<timestamp>_<pid>/sockets/...)
_MAX_TEMP_DIR = 43
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def host_cpus() -> int:
    """The host's CPU count as ``nproc`` prints it (``nproc`` also honours
    ``OMP_NUM_THREADS``, which a shared host uses to size its tenants)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, stack = _children(), [], [pid]
    while stack:
        for c in kids.get(stack.pop(), ()):
            out.append(c)
            stack.append(c)
    return out


def _peak_rss(pid: int) -> int:
    """The process's RSS high-water mark (``VmHWM``), in bytes."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class RssSampler:
    """Peak RSS of this process and every descendant (this process plus,
    once a session runs, Ray's processes): each process's own high-water mark,
    polled so processes that exit mid-run still count, summed at the end."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def peak_bytes(self) -> int:
        return sum(self._peaks.values())

    def sample(self) -> None:
        me = os.getpid()
        for p in [me, *descendants(me)]:
            self._peaks[p] = max(self._peaks.get(p, 0), _peak_rss(p))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()


class RaySession:
    """A local Ray session with one CPU slot per host CPU, progress bars
    off and logs kept off stdout.  Workers import the package from
    ``root``: the environment (``PYTHONPATH``, ``NUMPY_MADVISE_HUGEPAGE``)
    must be set before the session starts, since the raylet and every
    worker inherit it."""

    def __init__(self, root: str):
        self.root = root
        self.init_s = 0.0

    def __enter__(self):
        import ray

        kwargs = dict(
            address="local",
            num_cpus=host_cpus(),
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
        )
        temp_dir = os.path.join(self.root, ".ray")
        if len(temp_dir) <= _MAX_TEMP_DIR:
            kwargs["_temp_dir"] = temp_dir
        else:
            print(f"perfbench: {temp_dir} is too long for Ray's socket paths; "
                  "using Ray's default temp dir", file=sys.stderr)
        t0 = time.perf_counter()
        ray.init(**kwargs)
        self.init_s = time.perf_counter() - t0
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        return self

    def __exit__(self, *exc):
        import ray

        pids = descendants(os.getpid())
        ray.shutdown()
        reap(pids)


def reap(pids: list[int], grace_s: float = 10.0) -> None:
    """Wait for ``pids`` to end; TERM, then KILL, whatever outlives the grace."""
    deadline = time.monotonic() + grace_s
    for sig in (signal.SIGTERM, signal.SIGKILL):
        while time.monotonic() < deadline:
            _wait_children(pids)
            if not any(_alive(p) for p in pids):
                return
            time.sleep(0.05)
        for p in pids:
            if _alive(p):
                try:
                    os.kill(p, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + 5.0
    _wait_children(pids)


def _wait_children(pids: list[int]) -> None:
    for p in pids:
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass
