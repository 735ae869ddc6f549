"""Extraction byte-identity + dead-letter accounting.

The engine analogue of the reference's golden transform tests
(TransformEnrichedEventSpec.scala:41-95) and the three-category bad-row
accounting IT (EnrichedSpec.scala:54-79).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.sources import synth
from snowplow_elasticsearch_loader_ray.stages.extract import (
    E_EXTRACT, E_SCHEMA, E_SIZE, GOOD, ExtractTransform, capture_content,
)

CFG = IndexConfig(max_record_bytes=100_000)


def test_byte_identity_every_row():
    tbl = synth.generate_part(0, 1000)
    out = ExtractTransform(CFG)(tbl)
    status = np.array(out["status"].to_pylist())
    good = status == GOOD
    got = np.array(out["text"].to_pylist(), dtype=object)[good]
    want = np.array(tbl["text"].to_pylist(), dtype=object)[good]
    assert (got == want).all(), "extract(html) must be byte-identical to text"


def test_bad_row_accounting_exact():
    n = 1000
    tbl = synth.generate_part(0, n)
    out = ExtractTransform(CFG)(tbl)
    from collections import Counter

    counts = Counter(out["status"].to_pylist())
    expected = synth.expected_bad_counts(n)
    assert counts[GOOD] == expected["good"]
    assert counts[E_EXTRACT] == expected["extract_error"]
    assert counts[E_SIZE] == expected["size_violation"]
    assert counts[E_SCHEMA] == expected["schema_violation"]


def test_bad_rows_carry_payload_and_error():
    tbl = synth.generate_part(0, 300)
    out = ExtractTransform(CFG)(tbl)
    for r in out.to_pylist():
        if r["status"] == GOOD:
            assert r["error"] is None and r["payload_b64"] is None
            assert r["text"] is not None
        else:
            assert r["error"]
            assert r["payload_b64"] is not None
            import base64

            base64.b64decode(r["payload_b64"])  # valid b64, truncated payload


def test_doc_id_stable_from_url():
    tbl = synth.generate_part(5, 8)
    out = ExtractTransform(CFG)(tbl)
    for r in out.to_pylist():
        assert r["doc_id"] == synth.hash_url64(r["url"])


def test_escaping_roundtrip():
    text = "a < b & c > d &amp; literal &lt;x&gt;"
    url = pa.array(["https://e.example/x"])
    html = synth.render_html(url, pa.array([text]))
    batch = pa.table({
        "url": url,
        "warc_ts": pa.array([synth.ANCHOR_US], type=pa.timestamp("us", tz="UTC")),
        "html": html.cast(pa.binary()),
        "lang": pa.array(["en"]),
    })
    out = ExtractTransform(CFG)(batch)
    assert out["status"][0].as_py() == GOOD
    assert out["text"][0].as_py() == text


# --- differential property test: literal-split capture vs the RE2 rule ---

_RE2_CONTENT = r"<p>(?P<text>[\s\S]*?)</p>"


def _re2_capture(html):
    """Reference: content capture spelled as one RE2 extraction."""
    return pc.struct_field(pc.extract_regex(html, pattern=_RE2_CONTENT),
                           "text")


def _re2_text(html_rows):
    """Reference extraction (strip, RE2 capture, unescape) per row;
    None where it finds no content."""
    s = pa.array([h if h is not None else "" for h in html_rows],
                 type=pa.string())
    for tag in ("script", "style", "nav", "footer"):
        s = pc.replace_substring_regex(
            s, pattern=rf"<{tag}[\s\S]*?</{tag}>", replacement="")
    c = _re2_capture(s)
    for pat, rep in (("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&")):
        c = pc.replace_substring(c, pattern=pat, replacement=rep)
    return c.to_pylist()


_PIECES = st.sampled_from([
    "<p>", "</p>", "<p>", "</p>", "<P>", "<p", "p>", "</", "<p >", "</p ",
    "<script>", "</script>", "<style>", "</style>", "<nav>", "</nav>",
    "<footer>", "</footer>", "<html><body>", "</body></html>",
    "&lt;", "&gt;", "&amp;", "\n", " ", "text", "é", "ü", "ẞ",
    "K", "\U0001f600", "漢字",
])
_HTML = st.lists(_PIECES, max_size=14).map("".join)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.one_of(st.none(), _HTML), min_size=1, max_size=8),
       lo=st.integers(0, 3))
def test_capture_matches_re2_rule(rows, lo):
    html = pa.array(rows, type=pa.string())
    for arr in (html, html.slice(min(lo, len(rows)))):
        got, want = capture_content(arr), _re2_capture(arr)
        assert got.type == want.type and got.equals(want), (arr, got, want)

    n = len(rows)
    batch = pa.table({
        "url": pa.array([f"https://e.example/{i}" for i in range(n)]),
        "warc_ts": pa.array([synth.ANCHOR_US] * n,
                            type=pa.timestamp("us", tz="UTC")),
        "html": pa.array([None if h is None else h.encode()
                          for h in rows], type=pa.binary()),
        "lang": pa.array(["en"] * n),
    })
    out = ExtractTransform(CFG)(batch)
    want_text = _re2_text(rows)
    want_status = [E_EXTRACT if h is None or t is None else GOOD
                   for h, t in zip(rows, want_text)]
    assert out["status"].to_pylist() == want_status
    assert out["text"].to_pylist() == [
        t if s == GOOD else None for t, s in zip(want_text, want_status)]


def test_capture_edge_strings():
    rows = ["<p></p>", "<p>a</p>b</p>", "</p><p>x", "x</p>y<p>z</p>",
            "<p><p>a</p>", "", None, "<p>ü\n</p>", "<p>a", "<P>a</P>",
            "<script><p>s</p></script><p>t</p>"]
    html = pa.array(rows)
    assert capture_content(html).to_pylist() == [
        "", "a", None, "z", "<p>a", None, None, "ü\n", None, None, "s"]
    assert capture_content(html).equals(_re2_capture(html))
