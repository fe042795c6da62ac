"""Wall time of the banded-DP kernel, ``kernel.vectorized.batch_distances``,
over one seeded batch of mixed-length string pairs: queries of 5-90 chars
from a 10-letter alphabet, each term its query after 0-3 random edits.

Usage: PYTHONPATH=<checkout> python tools/kernel_bench.py

Runs ``PAIRS`` pairs at ``N``, ``REPEAT`` times per algorithm, and prints
one line per algorithm: the min and every run's seconds, and the sum of
the distances (equal on two checkouts iff their outputs agree on this
batch).  For an A/B, run it against both checkouts through PYTHONPATH,
interleaved, on the same host.
"""

import random
import time

PAIRS = 400_000
N = 2
REPEAT = 3
ALGORITHMS = ("standard", "transposition", "merge_and_split")


def pairs(count: int, seed: int = 3):
    rng = random.Random(seed)
    alphabet = "abcdefghij"
    base = ["".join(rng.choice(alphabet) for _ in range(rng.randint(5, 90)))
            for _ in range(max(count // 8, 1))]
    qs, ts = [], []
    for _ in range(count):
        q = rng.choice(base)
        t = list(q)
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(t))
            r = rng.random()
            if r < 1 / 3:
                t.insert(at, rng.choice(alphabet))
            elif r < 2 / 3 and len(t) > 1:
                del t[at]
            else:
                t[at] = rng.choice(alphabet)
        qs.append(q)
        ts.append("".join(t))
    return qs, ts


def main() -> None:
    from liblevenshtein_rust_ray.kernel.vectorized import batch_distances

    qs, ts = pairs(PAIRS)
    for alg in ALGORITHMS:
        runs = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            d = batch_distances(qs, ts, N, alg)
            runs.append(time.perf_counter() - t0)
        print(f"{alg} min {min(runs):.2f} s runs {' '.join(f'{r:.2f}' for r in runs)} "
              f"sum {int(d.sum())}", flush=True)

if __name__ == "__main__":
    main()
