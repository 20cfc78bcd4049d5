"""One set-up sample, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR SPEC_LIST_JSON

Prints the CPU seconds this process takes to import laplace_ode from SRC_DIR
and to build the Problem (normalized spec and kernel) for every spec path in
the list, then the median CPU seconds of the host-speed reference right
after, so that run.py can scale the first to reference speed.
"""

import json
import statistics
import sys
import time


def main(src: str, spec_list: str) -> float:
    t0 = time.process_time()
    sys.path.insert(0, src)
    import laplace_ode

    with open(spec_list, encoding="utf-8") as fh:
        paths = json.load(fh)
    for path in paths:
        laplace_ode.Problem.from_file(path).kernel
    return time.process_time() - t0


if __name__ == "__main__":
    seconds = main(sys.argv[1], sys.argv[2])
    import hostspeed

    reference = statistics.median(hostspeed.sample() for _ in range(9))
    print(repr(seconds), repr(reference))
