"""Canonical text extraction — the §7.0 minimum slice.

One pure, versioned function per row: given ``(html, text)`` produce the
canonical text and title.  The per-row invariant (BASELINE.json input_hint)
is that the extracted text is byte-identical per url across runs and
parallelism levels — guaranteed here by determinism (no environment, no
ordering dependence).

The wide ``html`` binary column is dropped immediately after this stage
(``select_columns``) so shuffle payloads stay narrow (SURVEY.md §7.4).
``page_titles`` is the ER pipeline's slice of it: the same titles, no text.
"""

import re

import pyarrow as pa

EXTRACTOR_VERSION = 1

_TITLE_RE = re.compile(rb"<title>(.*?)</title>", re.S)
_TAG_RE = re.compile(rb"<[^>]+>")


def _html_title(html: bytes) -> str:
    """The whitespace-normalized ``<title>`` text of ``html`` ("" if none)."""
    m = _TITLE_RE.search(html)
    return " ".join(m.group(1).decode("utf-8", "replace").split()) if m else ""


def extract_text_from_html(html: bytes) -> str:
    """Deterministic tag-stripping extraction: title text then body text,
    whitespace-normalized, title separated by a newline."""
    if not html:
        return ""
    title = _html_title(html)
    body = _TAG_RE.sub(b" ", _TITLE_RE.sub(b" ", html)).decode("utf-8", "replace")
    # str.split() splits on exactly the chars re's \s matches (every
    # str.isspace() codepoint), so this is the \s+ -> " " collapse + strip
    body = " ".join(body.split())
    return f"{title}\n{body}" if title else body


def _first_line(html) -> str:
    """The first line of ``extract_text_from_html(html)``: the title when
    the page has a non-empty one, so only then is the body left unparsed."""
    return (_html_title(html) if html else "") or extract_text_from_html(html)


def _canonical_text(text: str, html) -> str:
    return text if text else extract_text_from_html(html)


def _title_of(text: str) -> str:
    return text.split("\n", 1)[0].strip().lower()


def _canonical(batch: pa.Table, from_html):
    """``text`` (null as ""), each empty row replaced by ``from_html`` of
    its ``html``; a missing column reads as all null.  Arrow passes the
    text rows through; only the empty ones (the html-extraction minority)
    run Python."""
    import numpy as np
    import pyarrow.compute as pc

    names = batch.column_names
    empty = pa.scalar("", type=pa.string())
    texts = (pc.coalesce(batch["text"], empty) if "text" in names
             else pa.repeat(empty, batch.num_rows))
    need = pc.equal(texts, "")
    idx = np.flatnonzero(need.to_numpy(zero_copy_only=False))
    if not len(idx):
        return texts
    htmls = batch["html"].take(pa.array(idx)).to_pylist() if "html" in names else [None] * len(idx)
    ex: list = [None] * batch.num_rows
    for i, h in zip(idx, htmls):
        ex[i] = from_html(h)
    return pc.if_else(need, pa.array(ex, type=pa.string()), texts)


def _titles(canon):
    """Normalized titles: each canonical text's first line, trimmed and
    lowercased by Arrow kernels."""
    import pyarrow.compute as pc

    first = pc.list_element(pc.split_pattern(canon, "\n", max_splits=1), 0)
    return pc.utf8_lower(pc.utf8_trim_whitespace(first))


def extract_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: url/warc_ts/lang pass through; emits canonical
    ``text`` and normalized ``title``; drops ``html``.

    Vectorized: the pass-through path (rows that ship text) never touches
    Python — Arrow kernels split the first line, trim and lowercase; only
    rows with EMPTY text (the html-extraction minority) run the per-row
    regex extractor."""
    canon = _canonical(batch, extract_text_from_html)
    return pa.table(
        {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
            "text": canon,
            "title": _titles(canon),
        }
    )


def page_titles(batch: pa.Table) -> pa.Table:
    """map_batches kernel: pages -> ``(url, title)``, equal to
    ``extract_batch(batch).select(["url", "title"])`` without building the
    canonical text.  An html row runs the ``<title>`` search alone, and the
    full tag-stripping only when its normalized title is empty (its first
    line is then the body's).  Reads ``url`` and whichever of ``text`` and
    ``html`` the batch has (a missing one reads as all null)."""
    return pa.table({"url": batch.column("url"),
                     "title": _titles(_canonical(batch, _first_line))})
