"""The server process of the served workloads.

``dbtool serve`` cannot set the memtable size or the compaction
procedure, so the benchmark starts the same public pieces itself: a
background-compacting ``DB`` on ``OSStorage`` behind ``serve_forever``
on an OS-chosen port.  ``serve_forever`` prints ``serving on host:port``
on stdout, which the parent reads from the pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time

from bootstrap import require_program


def _exit_with_parent(parent: int) -> None:
    # A load generator that dies without reaping us must not leave a
    # server competing for the next run's two cores.
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--options", required=True, help="Options fields as JSON")
    parser.add_argument("--subtask-bytes", type=int, required=True)
    args = parser.parse_args()

    require_program()
    from repro import DB, Options, OSStorage, ProcedureSpec
    from repro.server import ServerConfig, serve_forever

    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    db = DB(
        OSStorage(args.dir),
        Options(**json.loads(args.options)),
        compaction_spec=ProcedureSpec.pcp(subtask_bytes=args.subtask_bytes),
        background=True,
    )
    serve_forever(db, ServerConfig(port=0))


if __name__ == "__main__":
    main()
