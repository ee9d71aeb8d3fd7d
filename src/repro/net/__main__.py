"""``python -m repro.net server|worker``: run one socket server.

``server`` serves a generated catalog over the matching protocol
(:func:`repro.net.server.main`); ``worker`` runs one shard worker
(:func:`repro.net.worker.main`). Each binds, prints ``LISTENING <host>
<port>`` and serves until terminated. The arguments after the command
are its own: ``python -m repro.net server --help`` lists them.

This is the servers' one entry point. ``repro.net`` imports both server
modules, so ``python -m repro.net.server`` would run a second copy of
its module as ``__main__``, with a second copy of its server class.
"""

import sys
from typing import Callable, Dict, List, Optional

from . import server, worker

COMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "server": server.main,
    "worker": worker.main,
}
USAGE = "usage: python -m repro.net {server,worker} [options]"


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args and args[0] in COMMANDS:
        return COMMANDS[args[0]](args[1:])
    if args and args[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
