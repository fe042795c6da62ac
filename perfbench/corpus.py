"""Seeded, benchmark-owned inputs, written to one directory per workload and seed.

* ``er_web``   — ``sources.pages.write_corpus`` at sf 0.005 (~10.4k pages):
  Zipf hosts, a 2000-token title vocabulary, ~10% html-only rows.
* ``er_dense`` — the same schema and the same ``TypoGenerator`` edits, but
  2 Zipf-weighted hosts and a 28-token title vocabulary, so blocks hold
  hundreds of distinct titles and the largest exceed the scorer's
  512-string salting cap.

Both are half the size of the flagship sf 0.01 corpus so that one run holds
three to seven jobs: a run's median then rides out a slow phase of a shared
host that would otherwise decide a two-job run on its own.

The same seed always gives byte-identical inputs.
"""

import os
import random

ER_SF = 0.005                # ~3000 entities, ~10.4k pages
DENSE_ENTITIES = 3000
DENSE_HOSTS = 2
DENSE_TOKENS = 28
SHARDS = 8
FIRST_SHARD = "part-00000.parquet"   # of the SHARDS files under pages/


def er_inputs(workload: str, out_dir: str, seed: int) -> tuple[str, str]:
    """Write pages + labeled within-entity pairs; return both parquet dirs."""
    if workload == "er_web":
        from liblevenshtein_rust_ray.sources.pages import write_corpus

        return write_corpus(out_dir, ER_SF, seed=seed, shards=SHARDS, workers=1)
    pages, pairs = dense_pages(seed)
    return _write(out_dir, pages, pairs)


def _write(out_dir: str, pages, pairs) -> tuple[str, str]:
    import pyarrow.parquet as pq

    os.makedirs(f"{out_dir}/pages", exist_ok=True)
    os.makedirs(f"{out_dir}/labeled_pairs", exist_ok=True)
    per = -(-pages.num_rows // SHARDS)
    for s in range(SHARDS):
        pq.write_table(pages.slice(s * per, per), f"{out_dir}/pages/part-{s:05d}.parquet")
    pq.write_table(pairs, f"{out_dir}/labeled_pairs/part-00000.parquet")
    return f"{out_dir}/pages", f"{out_dir}/labeled_pairs"


def _vocab(rng: random.Random, size: int) -> list[str]:
    out: set[str] = set()
    while len(out) < size:
        out.add("".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(4, 10))))
    return sorted(out)


def dense_pages(seed: int):
    """``er_dense`` corpus: ``(pages, labeled_pairs)`` in the ``sources.pages``
    schemas.  Entity layout follows ``sources.pages`` (one canonical page and
    0-5 variants at 1-2 typo edits, sharing the host); only the host pool
    and the title vocabulary shrink."""
    import pyarrow as pa

    from liblevenshtein_rust_ray.functions.simhash import hash64
    from liblevenshtein_rust_ray.functions.typogen import TypoGenerator
    from liblevenshtein_rust_ray.sources.pages import PAGES_SCHEMA, PAIRS_SCHEMA

    vocab = _vocab(random.Random(hash64(f"dense-vocab-{seed}")), DENSE_TOKENS)
    hosts = [f"dense{h}.example.com" for h in range(DENSE_HOSTS)]
    host_weights = [1 / (h + 1) for h in range(DENSE_HOSTS)]  # Zipf, as sources.pages
    cols = {"url": [], "html": [], "text": [], "lang": []}
    pair_a, pair_b, pair_e = [], [], []
    for e in range(DENSE_ENTITIES):
        rng = random.Random(hash64(f"dense-entity-{seed}-{e}"))
        typo = TypoGenerator(seed=hash64(f"dense-typo-{seed}-{e}") & 0x7FFFFFFF)
        title = " ".join(rng.sample(vocab, rng.randint(3, 5)))
        body = " ".join(
            " ".join(rng.choices(vocab, k=rng.randint(8, 14))) + "."
            for _ in range(rng.randint(3, 8))
        )
        host = rng.choices(hosts, weights=host_weights)[0]
        urls = []
        for v in range(rng.randint(0, 5) + 1):
            vtitle = title if v == 0 else typo.generate_typos(title, rng.choice([1, 1, 2]))
            url = f"https://{host}/e{e}/p{v}"
            ship_text = rng.random() >= 0.10
            cols["url"].append(url)
            cols["html"].append(
                f"<html><head><title>{vtitle}</title></head><body><p>{body}</p></body></html>"
                .encode("utf-8"))
            cols["text"].append(f"{vtitle}\n{body}" if ship_text else "")
            cols["lang"].append(rng.choices(["en", "de", "fr", ""], weights=[90, 4, 4, 2])[0])
            urls.append(url)
        urls.sort()
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                pair_a.append(urls[i])
                pair_b.append(urls[j])
                pair_e.append(e)
    n = len(cols["url"])
    epoch_us = 1_577_836_800_000_000
    pages = pa.table(
        {
            "url": cols["url"],
            "warc_ts": pa.array(range(epoch_us, epoch_us + n * 1_000_000, 1_000_000),
                                type=pa.timestamp("us")),
            "html": cols["html"],
            "text": cols["text"],
            "lang": cols["lang"],
        },
        schema=PAGES_SCHEMA,
    )
    pairs = pa.table({"url_a": pair_a, "url_b": pair_b, "entity_id": pair_e},
                     schema=PAIRS_SCHEMA)
    return pages, pairs
