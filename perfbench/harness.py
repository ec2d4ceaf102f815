"""Build, host guard and process measurement for the benchmark."""
import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time

BUILD_TARGETS = ["mph-lint", "mph-serve", "mph-perftrace"]
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed build, refused
    build type). Reported on stderr; no result is printed."""


def _cmake_cache(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build(build_dir):
    """Configures (once) and builds the tools and the traced runner from the
    checkout's sources with the repository's own CMake project, the traced
    runner added through perftrace.cmake. Returns {target: path}."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("tools")):
        raise BenchError("run from the repository root: no CMakeLists.txt, src/ and "
                         "tools/ here, so there is nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ".", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perftrace.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _quiet(cmd, "configure")
    _quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", *BUILD_TARGETS], "build")
    return {
        "mph-lint": os.path.join(build_dir, "tools", "mph-lint"),
        "mph-serve": os.path.join(build_dir, "tools", "mph-serve"),
        "mph-perftrace": os.path.join(build_dir, "mph-perftrace"),
    }


def _quiet(cmd, what):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise BenchError(f"{what} failed: {' '.join(cmd)}")


def provenance(build_dir):
    """What the numbers were measured on. Refuses trees whose numbers would
    not be the program's: Debug or unoptimized builds and sanitizer builds."""
    cache = _cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(), "CMAKE_EXE_LINKER_FLAGS"))
    flags = " ".join(flags.split())
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing a '{build_type or 'unset'}' build type")
    if cache.get("MPH_SANITIZE") or "-fsanitize" in flags or "-O0" in flags:
        raise BenchError("refusing a sanitizer or -O0 tree")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.splitlines()
    return {
        "commit": _commit(),
        "compiler": version[0] if version else compiler,
        "build_type": build_type,
        "cxx_flags": flags,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def _commit():
    """The git commit when there is one, else a digest of the sources (a
    benchmark checkout is not a git repository)."""
    r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    if r.returncode == 0:
        return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def pin_to_one_cpu():
    """Pins this process, and so every tool it starts from now on, to one
    CPU; returns it. The harness and a tool never run at once (the load is
    one closed loop, every tool single-threaded), so one CPU is enough, and
    the hand-off between them becomes a local context switch: no wake-up of
    an idle CPU, whose cost on a shared virtual host is the host's, not the
    program's. Call it after the build, which uses every CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Run:
    """One finished tool process: wall time, peak RSS, exit code, output."""

    def __init__(self, wall_s, rss_kb, rc, out, err):
        self.wall_s, self.rss_kb, self.rc, self.out, self.err = wall_s, rss_kb, rc, out, err


def run_tool(argv, stdin_data=None):
    """Spawns argv, feeds stdin_data, waits, and returns a Run. Wall time is
    spawn to exit; the peak RSS is the child's own (wait4)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin_data else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    if stdin_data:
        proc.stdin.write(stdin_data)
        proc.stdin.close()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_maxrss, proc.returncode, out.decode(), err[0].decode())


class Daemon:
    """A running mph-serve over stdio, driven by one closed-loop client."""

    def __init__(self, binary):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([binary, "--quiet"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            self.request('{"op":"stats"}')
        except BaseException:
            self.__exit__()
            raise
        self.setup_s = time.perf_counter() - t0

    def request(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("mph-serve closed its output")
        return reply.decode()

    def close(self):
        """Shuts the daemon down; returns (exit code, peak RSS in KB)."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        return self._reap()

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:  # left early: stop it, then wait
            self.proc.kill()
            self._reap()
