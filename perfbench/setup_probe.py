"""Set-up time of a fresh interpreter, printed in seconds.

Timed from before ``import isoedf`` until one warm-up call of the workload's
first scenario returns: ``ensemble_spectrum``, plus a 1-trial ``run_mc`` when
the scenario has a snapshot count.

    python3 setup_probe.py <src dir> <N> <snapshots, 0 for none> <seed>
"""

import sys
import time


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    src, n, snapshots, seed = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    sys.path.insert(0, src)
    import isoedf

    cfg = isoedf.ArrayNoiseConfig(n)
    isoedf.ensemble_spectrum(cfg)
    if snapshots:
        isoedf.run_mc(isoedf.McConfig(cfg, snapshots, 1, seed=seed))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1:])
