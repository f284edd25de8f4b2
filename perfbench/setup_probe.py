"""One set-up sample, run in a fresh interpreter by run.py:

    python3 perfbench/setup_probe.py <src-dir> <workload>

Prints the seconds taken to import expcircle and to construct (and so
certify, at 65,536 sample points each) the maps of the workload.
"""
import sys
import time

from workloads import SETUP_MAPS


def main(src: str, workload: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import expcircle

    for family, *params in SETUP_MAPS[workload]:
        if family == "linear":
            expcircle.linear_map(*params)
        else:
            expcircle.perturbed_map(*params)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(*sys.argv[1:])
