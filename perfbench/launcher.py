"""Run one QuantileService in its own process, with the canonical config.

    python3 perfbench/launcher.py --executor serial [--trace FILE]

Builds the service through the public API only (``EngineConfig`` +
``ServiceConfig`` + ``QuantileService``), prints ``READY <port>`` on stdout
once the socket is bound, serves until SIGTERM or SIGINT, drains
gracefully, and exits 0.  With ``--trace FILE`` the layer shims of
:mod:`shims` are installed before the engine is built, and the recorded
spans are written to ``FILE`` after the drain (worker processes write
``FILE.worker-<pid>`` when they stop).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

import common  # also puts the checkout's src/ on sys.path
from repro.engine import EngineConfig
from repro.service import QuantileService, ServiceConfig


async def serve(args: argparse.Namespace) -> None:
    recorder = None
    if args.trace:
        import shims

        recorder = shims.Recorder()
        shims.install_server(recorder, worker_trace=args.trace + ".worker")
    service = QuantileService(
        engine_config=EngineConfig(executor=args.executor, **common.ENGINE),
        config=ServiceConfig(port=0),
    )
    if recorder is not None:
        shims.install_executor(recorder, service.engine.executor)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await service.start()
    print(f"READY {service.port}", flush=True)
    await stop.wait()
    await service.stop()
    if recorder is not None:
        recorder.dump(args.trace)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executor", choices=("serial", "processes"), required=True)
    parser.add_argument("--trace", default=None, metavar="FILE")
    asyncio.run(serve(parser.parse_args()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
