#!/usr/bin/env python3
"""Work queueing two ways: consumer group vs watch + auto-sharding.

Tasks are keyed by the entity they concern; processing an entity is
cheap when its state is already loaded (warm) and expensive when not
(cold).  One task in a hundred is poison (200x normal cost).  Halfway
through, a worker dies and a new one joins.

- pubsub: key-hash routing gives affinity until the membership changes
  — then every key's affinity reshuffles at once; FIFO delivery queues
  normal tasks behind poison ones.
- watch: the auto-sharder moves only the dead worker's ranges, and each
  worker picks normal tasks before poison ones.

Run:  python examples/work_queue.py
"""

from repro.bench.experiments import e6_workqueue
from repro.bench.runner import print_result


def main() -> None:
    result = e6_workqueue.run(
        systems=("pubsub-random", "pubsub-key", "watch"),
        num_workers=4,
        num_keys=120,
        task_rate=60.0,
        work=0.01,
        poison_fraction=0.01,
        poison_work=2.0,
        duration=40.0,
        drain=30.0,
        churn=True,
    )
    print_result(result)
    table = result.table("systems")
    key_row = table.row_by("system", "pubsub-key")
    watch_row = table.row_by("system", "watch")
    print(
        f"\nnormal-task p99: pubsub-key {key_row['normal_p99_s']:.2f}s vs "
        f"watch {watch_row['normal_p99_s']:.2f}s "
        f"({key_row['normal_p99_s'] / watch_row['normal_p99_s']:.1f}x) — "
        f"§4.3's head-of-line mitigation.\n"
        f"warm-state fraction: pubsub-key {key_row['warm_frac']:.0%} vs "
        f"watch {watch_row['warm_frac']:.0%}."
    )


if __name__ == "__main__":
    main()
