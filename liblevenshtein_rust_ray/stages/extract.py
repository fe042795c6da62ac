"""Canonical text extraction — the §7.0 minimum slice.

One pure, versioned function per row: given ``(html, text)`` produce the
canonical text and title.  The per-row invariant (BASELINE.json input_hint)
is that the extracted text is byte-identical per url across runs and
parallelism levels — guaranteed here by determinism (no environment, no
ordering dependence).

The wide ``html`` binary column is dropped immediately after this stage
(``select_columns``) so shuffle payloads stay narrow (SURVEY.md §7.4).
"""

import re

import pyarrow as pa

EXTRACTOR_VERSION = 1

_TITLE_RE = re.compile(rb"<title>(.*?)</title>", re.S)
_TAG_RE = re.compile(rb"<[^>]+>")


def extract_text_from_html(html: bytes) -> str:
    """Deterministic tag-stripping extraction: title text then body text,
    whitespace-normalized, title separated by a newline."""
    if not html:
        return ""
    m = _TITLE_RE.search(html)
    title = m.group(1).decode("utf-8", "replace") if m else ""
    body = _TAG_RE.sub(b" ", _TITLE_RE.sub(b" ", html)).decode("utf-8", "replace")
    # str.split() splits on exactly the chars re's \s matches (every
    # str.isspace() codepoint), so this is the \s+ -> " " collapse + strip
    body = " ".join(body.split())
    title = " ".join(title.split())
    return f"{title}\n{body}" if title else body


def _canonical_text(text: str, html) -> str:
    return text if text else extract_text_from_html(html)


def _title_of(text: str) -> str:
    return text.split("\n", 1)[0].strip().lower()


def extract_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: url/warc_ts/lang pass through; emits canonical
    ``text`` and normalized ``title``; drops ``html``.

    Vectorized: the pass-through path (rows that ship text) never touches
    Python — Arrow kernels split the first line, trim and lowercase; only
    rows with EMPTY text (the html-extraction minority) run the per-row
    regex extractor."""
    import numpy as np
    import pyarrow.compute as pc

    texts = pc.coalesce(batch.column("text"), pa.scalar("", type=pa.string()))
    need = pc.equal(texts, "")
    mask = need.to_numpy(zero_copy_only=False)
    if mask.any():
        idx = np.nonzero(mask)[0]
        htmls = batch.column("html").take(pa.array(idx)).to_pylist()
        ex: list = [None] * batch.num_rows
        for i, h in zip(idx, htmls):
            ex[i] = extract_text_from_html(h)
        canon = pc.if_else(need, pa.array(ex, type=pa.string()), texts)
    else:
        canon = texts
    first = pc.list_element(pc.split_pattern(canon, "\n", max_splits=1), 0)
    titles = pc.utf8_lower(pc.utf8_trim_whitespace(first))
    out = pa.table(
        {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "text": canon,
            "title": titles,
        }
    )
    return out
