"""Time set-up in a fresh interpreter and print it as one JSON line.

Usage: python3 perfbench/setup_probe.py <src dir> <config.json>

Set-up runs from the start of the dora import to the start of the first run:
the import, ``ExperimentConfig.from_file`` (which validates), the backend
factory with its first backend, and the world (bandit instance or KeyMaze).
"""

import json
import sys
import time


def main(src: str, config_path: str) -> None:
    sys.path.insert(0, src)
    start = time.perf_counter()
    from dora import harness

    imported = time.perf_counter()
    config = harness.ExperimentConfig.from_file(config_path)
    factory = config.backend_factory()
    if factory is not None:
        factory()
    if config.suite == "bandit":
        harness.make_hard_instance(config.num_arms, config.gap, config.horizon, config.master_seed)
    elif config.world:
        harness.KeyMazeWorld.from_file(config.world)
    else:
        harness.KeyMazeWorld()
    end = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "config_s": end - imported,
                      "setup_s": end - start}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
