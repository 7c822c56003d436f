"""Run the MainNet yardstick's squelch arm and show where its heap work falls.

    PYTHONPATH=src python tools/waves.py SECONDS VALIDATORS

The graph is `generate_topology(892, 20.62, 0.17, (5, 100), seed=7)`, the
paper's MainNet size (892 nodes, 9197 edges, 152 validators). The first
VALIDATORS of its validators, in id order, each emit one proposal and one
validation per 1000 ms round under the squelch policy and the default
protocol, for SECONDS simulated seconds with no warm-up. The selections
fill in the first seconds, and with the default 5-7.5 min squelches every
squelch sent then expires between 300 s and 450 s: the first expiry wave.
A 600 s run with 4 validators takes under a minute.

The script prints the run's wall time, its peak RSS (`ru_maxrss`), the
number of events popped off the engine's heaps in simulated seconds below
300, 300-459 and 460 and up, counted by a spy on the engine's `heappop`,
and the sha256 of `export_csv`, which must not change when the engine
does; CI checks it for `600 4`. Only the package and the standard library
are used, so the script runs unchanged against any tree that has them:

    PYTHONPATH=old/src python tools/waves.py 600 4
    PYTHONPATH=new/src python tools/waves.py 600 4
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import time

from squelchsim import (
    RelayPolicy,
    ScenarioConfig,
    TopologyGraph,
    export_csv,
    generate_topology,
    run_scenario,
)
from squelchsim import engine

# The reported bands of simulated seconds: before, during and after the
# first expiry wave.
BANDS = ("0-299", "300-459", "460+")


class _Sha256Writer:
    """A text sink that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode("utf-8"))
        return len(text)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seconds", type=int, help="simulated seconds")
    parser.add_argument("validators", type=int, help="emitting validators, the lowest ids")
    args = parser.parse_args(argv)
    g = generate_topology(892, 20.62, 0.17, (5, 100), seed=7)
    validators = frozenset(sorted(g.validator_set)[:args.validators])
    cfg = ScenarioConfig(topology=TopologyGraph(g.nodes, g.latency_ms, validators),
                         duration_ms=args.seconds * 1000, relay_policy=RelayPolicy.SQUELCH,
                         warmup_ms=0)

    pops = [0] * len(BANDS)
    pop = engine.heappop

    def counting_pop(heap):
        entry = pop(heap)
        if len(entry) == 7:  # an event, not a template run's entry
            second = entry[0] // 1000
            pops[0 if second < 300 else 1 if second < 460 else 2] += 1
        return entry

    engine.heappop = counting_pop
    start = time.perf_counter()
    log = run_scenario(cfg)
    wall = time.perf_counter() - start
    engine.heappop = pop
    out = _Sha256Writer()
    export_csv(log, out)

    print(f"validators {len(validators)}, seconds {args.seconds}")
    print(f"wall_s {wall:.1f}")
    print(f"ru_maxrss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}")
    for band, n in zip(BANDS, pops):
        print(f"heap_pops seconds {band}: {n}")
    print(f"heap_pops total: {sum(pops)}")
    print(f"export_csv sha256 {out.digest.hexdigest()}")


if __name__ == "__main__":
    main()
