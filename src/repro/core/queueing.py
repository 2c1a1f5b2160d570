"""The FCFS and join-shortest-queue walks, each shared by the ``queue``
trace-replay sink and the cluster model; they import neither the kernel
nor a model."""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice
from typing import List, Optional, Sequence, Tuple

import numpy as np


def fcfs_walk(
    times: np.ndarray,
    service: np.ndarray,
    picks: Optional[np.ndarray],
    n_servers: int,
) -> Tuple[np.ndarray, List[int], List[float]]:
    """FCFS servers under a policy that never reads queue lengths.

    Arrival ``i`` at ``times[i]`` (nondecreasing) needs ``service[i]``
    seconds of server ``picks[i]``, or of ``i % n_servers`` if ``picks``
    is None.  Each server runs its own Lindley recursion from the
    kernel's free time 0.0.  Returns the finishes in arrival order, each
    server's arrival count and last finish (0.0 if unused).
    """
    n = len(times)
    # The arrivals server by server, each server's in time order.
    if picks is None:
        # Read down the columns of a row-major grid of arrival indices.
        by_server = np.arange(-(-n // n_servers) * n_servers).reshape(
            -1, n_servers).T.ravel()
        by_server = by_server[by_server < n]
        served = [len(range(s, n, n_servers)) for s in range(n_servers)]
    else:
        by_server = np.argsort(picks, kind="stable")
        served = np.bincount(picks, minlength=n_servers).tolist()
    walked: List[float] = []
    free_at: List[float] = []
    arrivals = zip(times[by_server].tolist(), service[by_server].tolist())
    for count in served:
        f = 0.0
        walked += [f := (t if t > f else f) + s
                   for t, s in islice(arrivals, count)]
        free_at.append(f)
    finish = np.empty(n)
    finish[by_server] = walked
    return finish, served, free_at


def jsq_walk(
    times: Sequence[float],
    units: Sequence[float],
    rates: Sequence[float],
) -> Tuple[List[float], List[int], List[float], float]:
    """Join-shortest-queue in the event kernel's order, without it.

    Arrival ``i`` at ``times[i]`` (nondecreasing) needs ``units[i] /
    rates[srv]`` seconds of ``srv``, FCFS: the lowest server with the
    fewest requests in flight, counting one that finishes at ``t`` (the
    kernel runs a bulk-loaded arrival before a completion scheduled
    mid-run).  Service times are finite and non-negative, so a server's
    finishes never decrease.  An arrival finding a server whose last
    finish is before ``t`` takes the lowest such at ``t + service``.
    Once every server is busy, a heap holds each busy server's earliest
    pending finish and the index of its next: a retirement is one
    ``heapreplace``, or a ``heappop`` when the server drains, and a busy
    server's request finishes at its last finish ``+ service``.  The
    heap is dropped when a server is still idle after an arrival.

    Returns the finishes in arrival order, each server's request count
    and last finish (0.0 if never used), and the busy seconds, summed
    in arrival order.
    """
    # Each list starts with 0.0, where the kernel's servers start free:
    # at ``t == 0.0`` it is pending on every server alike, and a first
    # finish is ``0.0 + service`` as in the kernel, even at ``t == -0.0``.
    finishes = [[0.0] for _ in rates]
    servers = list(zip(finishes, rates))
    finish: List[float] = []
    record = finish.append
    busy = 0.0
    heap = None
    for t, unit in zip(times, units):
        if heap is None:
            for queue, rate in servers:
                if queue[-1] < t:
                    service = unit / rate
                    f = t + service
                    queue.append(f)
                    record(f)
                    busy += service
                    break
            else:
                # Every server has a finish at or after ``t``.
                heap, pending = [], []
                for srv, queue in enumerate(finishes):
                    h = bisect_left(queue, t)
                    heap.append((queue[h], srv, h + 1))
                    pending.append(len(queue) - h)
                heapify(heap)
            if heap is None:
                continue
        else:
            while heap and heap[0][0] < t:
                _, srv, nxt = heap[0]
                pending[srv] -= 1
                queue = finishes[srv]
                if nxt < len(queue):
                    heapreplace(heap, (queue[nxt], srv, nxt + 1))
                else:
                    heappop(heap)
        srv = pending.index(min(pending))
        queue = finishes[srv]
        service = unit / rates[srv]
        if pending[srv]:
            f = queue[-1] + service
        else:
            f = t + service
            heappush(heap, (f, srv, len(queue) + 1))
        queue.append(f)
        record(f)
        busy += service
        pending[srv] += 1
        if len(heap) < len(rates):
            heap = None
    served = [len(queue) - 1 for queue in finishes]
    return finish, served, [queue[-1] for queue in finishes], busy
