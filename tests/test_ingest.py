"""``ingest_pages`` as one Ray task per page file.

Docs part files are named in input order, the good rows equal an
in-process ``ExtractTransform`` over the pages in order, empty and
all-bad page files are counted exactly, and a leftover ``_tmp_docs``
from a killed run does not leak into the output."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from snowplow_elasticsearch_loader_ray.config import IndexConfig
from snowplow_elasticsearch_loader_ray.pipelines import build as B
from snowplow_elasticsearch_loader_ray.sources.synth import generate_part
from snowplow_elasticsearch_loader_ray.stages.extract import ExtractTransform

#: batches smaller than a page file, so a task sees several
CFG = IndexConfig(max_record_bytes=100_000, batch_size=64)


def _write(path: str, t: pa.Table) -> str:
    pq.write_table(t, path)
    return path


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    """Five page files in input order: three synthetic slices, one with
    zero rows and one whose rows are all dead letters."""
    d = tmp_path_factory.mktemp("ingest_pages")
    a, b, c = generate_part(0, 150), generate_part(150, 260), generate_part(260, 400)
    bad = b.set_column(b.schema.get_field_index("html"), "html",
                       pa.array([b"\xff\xfe"] * b.num_rows, b.schema.field("html").type))
    tables = [a, a.slice(0, 0), b, bad, c]
    return [_write(str(d / f"p{k}.parquet"), t) for k, t in enumerate(tables)]


def _in_process(pages_: list[str]) -> pa.Table:
    extract = ExtractTransform(CFG)
    tables = [pq.read_table(p, columns=B.PAGE_COLUMNS) for p in pages_]
    # the kernel is never handed an empty batch (a zero-row file yields none)
    return pa.concat_tables([extract(t) for t in tables if t.num_rows])


def _read_docs(status_dir: str) -> pa.Table:
    return pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(os.path.join(status_dir, "*.parquet")))])


def test_docs_follow_input_order_and_match_in_process(pages, tmp_path):
    counters = B.ingest_pages(pages, str(tmp_path / "out"), CFG)
    want = _in_process(pages)
    statuses = pc.unique(want["status"]).to_pylist()
    assert counters == {s: pc.sum(pc.equal(want["status"], s)).as_py()
                        for s in sorted(statuses)}

    good_dir = B.good_docs_dir(str(tmp_path / "out"))
    # file k holds page file k's good rows; the empty page file and the
    # all-bad one leave no good file
    assert sorted(os.listdir(good_dir)) == [
        "part-00000.parquet", "part-00002.parquet", "part-00004.parquet"]
    good = want.filter(pc.equal(want["status"], "good")).drop_columns(["status"])
    assert _read_docs(good_dir).equals(good)
    for s in statuses:
        rows = want.filter(pc.equal(want["status"], s)).drop_columns(["status"])
        got = _read_docs(os.path.join(tmp_path / "out", "docs", f"status={s}"))
        assert got.equals(rows), s


def test_no_good_rows_and_no_rows(pages, tmp_path):
    empty = B.ingest_pages([pages[1]], str(tmp_path / "empty"), CFG)
    assert empty == {"good": 0}
    bad = B.ingest_pages([pages[1], pages[3]], str(tmp_path / "bad"), CFG)
    assert bad == {"extract_error": pq.ParquetFile(pages[3]).metadata.num_rows,
                   "good": 0}
    assert not os.path.exists(B.good_docs_dir(str(tmp_path / "bad")))


def test_rerun_over_leftover_tmp_docs(pages, tmp_path):
    clean = B.ingest_pages(pages, str(tmp_path / "clean"), CFG)
    out = tmp_path / "rerun"
    stale = out / "_tmp_docs" / "status=good"
    stale.mkdir(parents=True)
    # a killed run's leftovers: a stale part and a stray status dir
    _write(str(stale / "part-00007.parquet"), pq.read_table(
        glob.glob(os.path.join(B.good_docs_dir(str(tmp_path / "clean")), "*"))[0]))
    (out / "_tmp_docs" / "status=bogus").mkdir()
    assert B.ingest_pages(pages, str(out), CFG) == clean
    for d in ("clean", "rerun"):
        assert not os.path.exists(tmp_path / d / "_tmp_docs")
    assert sorted(os.listdir(out / "docs")) == sorted(
        os.listdir(tmp_path / "clean" / "docs"))
    assert _read_docs(B.good_docs_dir(str(out))).equals(
        _read_docs(B.good_docs_dir(str(tmp_path / "clean"))))
