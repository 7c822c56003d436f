"""Print one `export_csv` sha256 per seeded random scenario.

Run it under two source trees and compare the outputs byte for byte:

    PYTHONPATH=old/src python tools/differential.py --count 3000 > old.txt
    PYTHONPATH=new/src python tools/differential.py --count 3000 > new.txt
    cmp old.txt new.txt

CI pins the sha256 of the output of `--count 300`, so a change that alters
any scenario's bytes fails there even when it agrees with itself.

With `--event-loop` the script sets `squelchsim.engine._build_template` to
return None, which sends every emission through the event loop: squelch
rounds whose slots are quiet, count or act included. With no template
there is no closed-form count of a fresh template's first emission either,
so that count is checked too. Its output must equal the normal run's, so
one tree checks its own replay paths:

    python tools/differential.py --count 300 > replayed.txt
    python tools/differential.py --count 300 --event-loop > simulated.txt
    cmp replayed.txt simulated.txt

With `--two-pass` the script sets `squelchsim.engine._offset_summary` to
return None, so no emission is counted from a template's offset summary:
every repeat replay, and every squelch round over the latency maps' kept
template, walks the template, one pass along the tree and one over the
other sends. No counting round is then owed to the slots, since only a
round counted from the summary can be. Its output must equal the normal
run's too:

    python tools/differential.py --count 300 --two-pass > walked.txt
    cmp replayed.txt walked.txt

With `--one-copy` the script wraps `squelchsim.engine.on_validator_message`
so that a call with `copies=k` runs as k calls with one copy each, their
actions concatenated, as the event loop feeds a slot. Its output must equal
the normal run's as well:

    python tools/differential.py --count 300 --one-copy > single.txt
    cmp replayed.txt single.txt

Scenario `seed` is drawn from `random.Random(seed)` alone, so both trees run
the same scenarios. They mix what the engine's fast paths must reproduce or
hand back to the event loop: small generated graphs and edge lists whose
latencies tie (all on the default, small integers, tenths), both relay
policies, squelchable transactions, disconnects (some on whole seconds),
short squelches that expire and reselect, and long ones that let selection
settle. One in five scenarios is an 8-20 s squelch run whose squelches
outlast it, so that selections settle, and fill again after 1-3 disconnects
clear the slots of the nodes that leave and reset their neighbours'.
Only the package's public API is used, plus the engine functions that
`--event-loop`, `--two-pass` and `--one-copy` replace, and only the
standard library, so the script runs unchanged against any tree that has
them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random

from squelchsim import (
    Disconnect,
    MessageKind,
    ProtocolConfig,
    RelayPolicy,
    ScenarioConfig,
    ScenarioSetupError,
    TxBurst,
    export_csv,
    generate_topology,
    load_topology,
    run_scenario,
)
from squelchsim import engine

SQUELCH_KIND_SETS = (
    frozenset({MessageKind.PROPOSAL}),
    frozenset({MessageKind.PROPOSAL, MessageKind.VALIDATION}),
    frozenset({MessageKind.PROPOSAL, MessageKind.VALIDATION, MessageKind.TRANSACTION}),
)


def scenario(seed: int) -> ScenarioConfig:
    """The random scenario numbered `seed`."""
    rng = random.Random(seed)
    n = rng.randint(4, 18)
    g = generate_topology(n, float(rng.randint(2, min(6, n - 1))), rng.choice([0.2, 0.5, 0.8]),
                          rng.choice([(20.0, 20.0), (5.0, 50.0), (10.0, 12.0)]), seed=seed)
    latencies = rng.choice(["generated", "generated", "default", "integer", "tenths"])
    if latencies != "generated":
        text = "".join(
            f"{u} {v}" + {"default": "", "integer": f" {rng.randint(1, 4)}",
                          "tenths": f" {rng.randint(1, 30) / 10}"}[latencies] + "\n"
            for u, v in sorted(g.edges)
        )
        g = load_topology(text, set(g.validator_set))
    duration = rng.randint(1000, 8000)
    bursts = tuple(
        TxBurst(start_ms=float(rng.randint(0, duration)),
                trackers=tuple(rng.sample(g.nodes, rng.randint(0, min(3, n)))),
                count=rng.randint(0, 12),
                rate_per_s=rng.choice([0.0, 10.0, 100.0, 333.0]))
        for _ in range(rng.randint(0, 2))
    )
    disconnects = tuple(
        Disconnect(at_ms=float(rng.randint(0, duration) if rng.random() < 0.6
                               else rng.randint(0, duration // 1000) * 1000),
                   node=rng.choice(g.nodes))
        for _ in range(rng.choice([0, 0, 1, 2, 3]))
    )
    if rng.random() < 0.5:
        base, jitter = rng.randint(200, 3000), rng.randint(0, 1000)
    else:
        base, jitter = rng.randint(20_000, 300_000), rng.randint(0, 150_000)
    protocol = ProtocolConfig(count_threshold=rng.randint(1, 4),
                              max_selected=rng.randint(1, 3),
                              squelch_base_ms=base, squelch_jitter_ms=jitter,
                              squelch_kinds=rng.choice(SQUELCH_KIND_SETS))
    cfg = ScenarioConfig(
        topology=g, duration_ms=duration,
        relay_policy=rng.choice([RelayPolicy.FLOOD, RelayPolicy.SQUELCH, RelayPolicy.SQUELCH]),
        # Rounds shorter than a flood emit while copies are still in flight.
        ledger_round_ms=rng.randint(30, 200) if rng.random() < 0.2 else rng.randint(250, 1500),
        proposals_per_round=rng.randint(0, 3),
        tx_plan=bursts, protocol=protocol, seed=seed,
        warmup_ms=rng.randint(0, 500), disconnects=disconnects,
    )
    if rng.random() < 0.2:
        # A longer squelch run in which selections settle, fill again after
        # a disconnect resets them, and outlast the run.
        duration = rng.randint(8000, 20_000)
        cfg = dataclasses.replace(
            cfg, duration_ms=duration, relay_policy=RelayPolicy.SQUELCH,
            disconnects=tuple(Disconnect(at_ms=float(rng.randint(1000, duration)),
                                         node=rng.choice(g.nodes))
                              for _ in range(rng.randint(1, 3))),
            protocol=dataclasses.replace(protocol, count_threshold=rng.randint(1, 4),
                                         squelch_base_ms=rng.randint(duration, 300_000)))
    return cfg


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=3000, help="number of scenarios")
    parser.add_argument("--start", type=int, default=0, help="seed of the first scenario")
    parser.add_argument("--event-loop", action="store_true",
                        help="never replay from a template: run every copy on the event loop")
    parser.add_argument("--two-pass", action="store_true",
                        help="never count a replay from an offset summary: walk every send")
    parser.add_argument("--one-copy", action="store_true",
                        help="feed a slot one copy per transition call")
    args = parser.parse_args(argv)
    if args.event_loop:
        engine._build_template = lambda *args: None
    if args.two_pass:
        engine._offset_summary = lambda *args: None
    if args.one_copy:
        feed = engine.on_validator_message

        def one_copy(slot, peer, now, config, copies=1):
            return [action for _ in range(copies) for action in feed(slot, peer, now, config)]

        engine.on_validator_message = one_copy
    for seed in range(args.start, args.start + args.count):
        try:
            text = export_csv(run_scenario(scenario(seed)))
        except ScenarioSetupError as exc:  # refusing a scenario is behaviour too
            print(seed, "ScenarioSetupError:", exc, flush=True)
            continue
        print(seed, hashlib.sha256(text.encode("utf-8")).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
