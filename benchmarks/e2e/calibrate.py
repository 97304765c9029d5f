"""Host-speed calibrator, run beside every measured child process.

The CPU time of the same work swings by 20-50 % on a shared host, in
stretches of a few seconds that differ from core to core.  The
benchmark therefore pins each measured child and one instance of this
script to the same core.  The script runs at nice 10, so it takes
about a tenth of the core, in slices of a few milliseconds spread
over the child's whole lifetime: its rate (units of a fixed
pointer-chasing loop per CPU second of its own) samples the host
speed the child saw.

Protocol: prints ``ready`` once set up, loops until SIGTERM, then
prints ``<units> <cpu seconds>``.  It exits silently if its parent
dies first.  Standard library only.
"""

import os
import signal
import time

NODES = 8192


class Node:
    __slots__ = ("next", "queue", "count")

    def __init__(self) -> None:
        self.next = None
        self.queue = []
        self.count = 0


def build():
    nodes = [Node() for _ in range(NODES)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 2654435761) % NODES]
    for node in nodes[::2]:
        node.queue.extend(range(4))
    return nodes


def unit(nodes) -> None:
    """Pass one token along every node that holds one: attribute and
    list traffic over a working set of a few hundred KiB, shaped like
    a cycle-stepped simulator's inner loop."""
    for node in nodes:
        queue = node.queue
        if queue:
            node.count += 1
            node.next.queue.append(queue.pop() + 1)


def main() -> None:
    os.nice(10)
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    nodes = build()
    print("ready", flush=True)
    units = 0
    start = time.process_time()
    while not stop:
        unit(nodes)
        units += 1
        if units % 64 == 0 and os.getppid() != parent:
            return
    print(units, time.process_time() - start, flush=True)


if __name__ == "__main__":
    main()
