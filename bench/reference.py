"""A fixed reference program that gauges the machine's current speed.

The benchmark runs it as a child process next to every timed operation.
Its code never changes with the program under test, so a change in its
time is a change in the machine: on a virtual machine shared with other
tenants, the speed of the same code drifts by up to ~1.5x over minutes.
The end-to-end times are rescaled by it (see `run.py`).

The work mimics the program's mix: interpreter start, pure-Python
arithmetic as in the statistical kernels, dict, list and string churn with
CSV formatting and parsing as in the data stages, and short-lived threads
as in the collect stage's pools. It touches no file, so disk state does not
affect it. The last line of standard output is a checksum that is the same
on every run, so the caller can check that the whole work was done.
"""

from __future__ import annotations

import csv
import io
import math
import threading
import zlib


def arithmetic(rounds: int) -> float:
    total = 0.0
    for i in range(1, rounds + 1):
        x = i / rounds
        total += math.exp(-x * x) * (1.0 + 0.5 * x) / (1.0 + x * x)
    return total


def tables(rounds: int, rows: int) -> int:
    checksum = 0
    for rep in range(rounds):
        groups: dict[str, list[float]] = {}
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for i in range(rows):
            key = f"k{(i * 7919 + rep) % 997}"
            value = ((i * 2654435761) % 10007) / 10007
            groups.setdefault(key, []).append(value)
            writer.writerow([key, i, f"{value:.6f}"])
        parsed = list(csv.reader(io.StringIO(buffer.getvalue())))
        ranked = sorted(groups, key=lambda k: (sum(groups[k]), k))
        checksum = zlib.crc32(("".join(ranked[:50]) + str(len(parsed))).encode(), checksum)
    return checksum


def threads(count: int) -> int:
    results = [0] * count

    def work(slot: int) -> None:
        results[slot] = sum(range(slot % 50, 1000))

    for slot in range(count):
        thread = threading.Thread(target=work, args=(slot,))
        thread.start()
        thread.join()
    return sum(results)


def main() -> None:
    parts = (f"{arithmetic(150_000):.9f}", str(tables(6, 5_000)), str(threads(500)))
    print(zlib.crc32(" ".join(parts).encode()))


if __name__ == "__main__":
    main()
