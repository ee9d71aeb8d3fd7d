"""serve-net's server process, and the handle the benchmark drives it by.

The server process imports everything, generates its hot set, prints
``{"event": "imported"}`` and waits for a ``go`` line, so the set-up time
the benchmark measures excludes interpreter start and imports. On
``go`` it generates the catalog, builds the service, warms the hot set
with one in-process batch, binds a :class:`~repro.MatchingServer`
(default coalescing) on a loopback port and prints its address. On
``slice``, sent between requests, it runs a calibration slice
(:class:`measure.HostSpeed`) and prints its time. On ``stop`` (or when
its standard input closes) it drains the server and prints its peak
resident set and, in a traced run, its spans.

Run as ``python -m perfbench.launcher <seed> <size> <catalog> <trace>``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import Tuple

from . import inputs, measure, tracing

#: Seconds allowed for the server process to import, set up and drain.
TIMEOUT = 120.0


class Launcher:
    """The benchmark's handle on one server process."""

    def __init__(self, ctx, number: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(measure.ROOT / "src"), str(measure.ROOT)])
        self.address: Tuple[str, int] = ("", 0)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.launcher", str(ctx.seed),
             ctx.size, str(number), "1" if ctx.tracer.enabled else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(measure.ROOT), env=env,
        )
        self._expect("imported")

    def go(self) -> float:
        """Start set-up; returns seconds until the server is listening."""
        start = time.perf_counter()
        self._send("go")
        event = self._expect("listening")
        elapsed = time.perf_counter() - start
        self.address = (event["host"], event["port"])
        return elapsed

    def slice(self) -> float:
        """Run a calibration slice in the idle server process; returns
        its thread CPU milliseconds."""
        self._send("slice")
        return self._expect("slice")["ms"]

    def stop(self) -> dict:
        """Drain the server; returns its peak RSS and spans."""
        try:
            self._send("stop")
            done = self._expect("done")
            self._proc.wait(TIMEOUT)
            return done
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdin.close()
            self._proc.stdout.close()

    def _send(self, line: str) -> None:
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()

    def _expect(self, name: str) -> dict:
        ready, _, _ = select.select([self._proc.stdout], [], [], TIMEOUT)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError(
                f"server process gave no {name!r} event "
                f"(exit code {self._proc.returncode})")
        event = json.loads(line)
        if event.get("event") != name:
            raise RuntimeError(f"expected {name!r} from the server process, "
                               f"got {event!r}")
        return event


def _emit(**event) -> None:
    print(json.dumps(event), flush=True)


def main(argv) -> int:
    import repro
    from repro.net.server import ServerThread

    seed, size, number, trace = (int(argv[0]), argv[1], int(argv[2]),
                                 argv[3] == "1")
    tracer = tracing.Tracer() if trace else tracing.NULL
    if trace:
        tracing.install_server(tracer)
    sizes = inputs.SIZES[size]["serve-net"]
    hot = inputs.hot_set(seed, sizes)
    _emit(event="imported")
    if sys.stdin.readline().strip() != "go":
        return 1
    with tracer.span("data.generate"):
        objects = inputs.catalog(seed, sizes, number)
    service = repro.MatchingService(objects, algorithm="sb", backend="memory",
                                    deletion_mode="filter")
    service.submit_many(hot)
    server = ServerThread(repro.MatchingServer(service, close_service=True))
    host, port = server.start()
    _emit(event="listening", host=host, port=port)
    # "slice" between requests; "stop", or end of input if the benchmark
    # died, ends serving.
    for line in sys.stdin:
        if line.strip() != "slice":
            break
        _emit(event="slice", ms=measure.slice_ms())
    server.stop()
    _emit(event="done", peak_rss_mb=measure.peak_rss_mb(),
          spans=tracer.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
