"""Index aliases — the ES deploy pattern the loader's operators rely
on (reference context: ``output.good.index`` names the write target in
config.aws.reference.hocon; ES users point it at an ALIAS so a
reindex-then-swap rolls a new index in atomically with zero reader
downtime).

An alias registry is one JSON file per alias under
``<root>/aliases/<name>.json`` holding the target index path plus a
monotonically increasing generation counter. Updates are atomic
(write-temp + ``os.replace``), so a reader that resolves mid-swap sees
either the old or the new target, never a torn state. ``swap`` is the
two-alias transaction ES's ``_aliases`` actions API performs: it
re-points an alias and retires the previous target into a ``.prev``
pointer so a bad deploy can roll back.

Scale note: the registry is control-plane metadata (bytes); readers
resolve once at engine construction, exactly like ES routes through
alias metadata on the coordinating node — no per-query cost.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import time


class AliasError(KeyError):
    pass


def _alias_dir(root: str, create: bool = False) -> str:
    # pure reads must NOT mkdir: a typo'd root should look nonexistent,
    # not like an empty-but-valid registry
    d = os.path.join(root, "aliases")
    if create:
        os.makedirs(d, exist_ok=True)
    return d


def _path(root: str, name: str, create: bool = False) -> str:
    if not name or "/" in name or name.startswith("."):
        raise AliasError(f"bad alias name {name!r}")
    return os.path.join(_alias_dir(root, create=create), f"{name}.json")


@contextlib.contextmanager
def _registry_lock(root: str):
    """Serializes read-modify-write across concurrent writers (two
    deploys swapping the same alias must not lose an update or break
    the monotonic gen counter); os.replace alone only protects
    READERS from torn state."""
    d = _alias_dir(root, create=True)
    with open(os.path.join(d, ".lock"), "w") as lk:
        fcntl.flock(lk, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lk, fcntl.LOCK_UN)


def _write_atomic(path: str, doc: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(doc, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _repoint_locked(root: str, name: str, target: str,
                    filter: dict | None, keep_filter: bool,
                    guard=None, use_prev: bool = False) -> dict:
    """One locked read-modify-write of an alias doc — shared by
    ``set_alias`` / ``swap`` / ``rollback`` so the gen counter, prev
    pointer and FILTER handling have a single decision point.

    ``keep_filter``: carry the existing filter forward (swap/rollback
    re-point the alias, they do not redefine it — stripping the filter
    would let readers escape a filtered alias). ``set_alias`` passes
    False: it REDEFINES the alias, ES add-action style (filter=None
    removes a filter). ``guard(cur)`` may refuse under the lock (only
    consulted when the alias exists); ``use_prev`` re-points at
    ``cur['prev']`` (rollback) and requires the alias to exist."""
    p = _path(root, name, create=True)
    with _registry_lock(root):
        prev, gen, cur_filter = None, 0, None
        if os.path.exists(p):
            cur = json.load(open(p))
            if guard is not None:
                guard(cur)
            prev, gen = cur["target"], cur["gen"]
            cur_filter = cur.get("filter")
            if use_prev:
                target = cur["prev"]
        elif use_prev:
            raise AliasError(f"unknown alias {name!r}")
        doc = {"name": name, "target": target, "prev": prev,
               "gen": gen + 1, "updated_at": time.time()}
        eff = filter if filter is not None else (
            cur_filter if keep_filter else None)
        if eff is not None:
            doc["filter"] = eff
        _write_atomic(p, doc)
    return doc


def set_alias(root: str, name: str, index_dir: str,
              filter: dict | None = None) -> dict:
    """Point ``name`` at ``index_dir`` (create or re-point). The target
    must be a committed index (its manifests directory exists).
    ``filter`` makes this a FILTERED alias (the ES `_aliases` filter
    action): a query-DSL filter clause every search through the alias
    must apply — stored verbatim, validated at query time by the DSL
    planner (an unsupported filter refuses there, not silently).
    Like the ES add action, set_alias REDEFINES the alias: passing no
    filter removes an existing one (swap/rollback, by contrast,
    preserve it)."""
    index_dir = os.path.abspath(index_dir)
    if not os.path.isdir(os.path.join(index_dir, "manifests")):
        raise AliasError(f"{index_dir} is not a committed index")
    if filter is not None and not isinstance(filter, dict):
        raise AliasError(f"alias filter must be a DSL dict, got {filter!r}")
    return _repoint_locked(root, name, index_dir, filter,
                           keep_filter=False)


def resolve(root: str, name: str) -> str:
    """Alias -> index dir; unknown aliases raise (never a silent
    empty index)."""
    p = _path(root, name)
    if not os.path.exists(p):
        raise AliasError(f"unknown alias {name!r}")
    return json.load(open(p))["target"]


def resolve_with_filter(root: str, name: str) -> tuple[str, dict | None]:
    """Alias -> (index dir, attached DSL filter or None) — the lookup
    a search through a filtered alias performs."""
    p = _path(root, name)
    if not os.path.exists(p):
        raise AliasError(f"unknown alias {name!r}")
    doc = json.load(open(p))
    return doc["target"], doc.get("filter")


def search_alias(root: str, name: str, reader, body: dict,
                 pos_reader=None):
    """Run a ``_search`` body through an alias: the alias's filter (if
    any) merges into the request as one more bool filter clause —
    exactly the ES filtered-alias contract (the caller cannot escape
    the filter). ``reader`` must be an ``IndexReader`` over the
    alias's resolved target."""
    from . import query_dsl as DSL

    _target, flt = resolve_with_filter(root, name)
    if flt is not None:
        q = body.get("query", {"match_all": {}})
        if set(q) == {"match_all"}:
            # no-query (or explicit match_all) through a filtered
            # alias: ES scores every filter-passing doc 1.0 — exactly
            # the constant_score query. Same body check as the DSL's
            # own match_all.
            ma = q["match_all"]
            if not isinstance(ma, dict) or set(ma) - {"boost"}:
                raise DSL.UnsupportedDSL(f"unsupported match_all body {ma!r}")
            node = {"constant_score": {"filter": flt,
                                       **({"boost": ma["boost"]}
                                          if ma.get("boost") is not None
                                          else {})}}
        elif set(q) == {"bool"}:
            node = {"bool": dict(q["bool"])}
            cur = node["bool"].get("filter", [])
            if isinstance(cur, dict):   # the DSL accepts a dict-valued
                cur = [cur]             # filter clause — normalize it
            node["bool"]["filter"] = list(cur) + [flt]
        else:
            node = {"bool": {"must": [q], "filter": [flt]}}
        body = {**body, "query": node}
    return DSL.execute(reader, body, pos_reader)


def rollback(root: str, name: str) -> dict:
    """Re-point the alias at its previous target (one level),
    preserving an attached filter — a rollback un-does the deploy, not
    the alias's definition."""
    p = _path(root, name)
    if not os.path.exists(p):
        raise AliasError(f"unknown alias {name!r}")

    def guard(cur):
        if not cur.get("prev"):
            raise AliasError(f"alias {name!r} has no previous target")

    return _repoint_locked(root, name, "", None, keep_filter=True,
                           guard=guard, use_prev=True)


def list_aliases(root: str) -> list[dict]:
    d = _alias_dir(root)
    if not os.path.isdir(d):
        return []
    return sorted((json.load(open(os.path.join(d, f)))
                   for f in os.listdir(d) if f.endswith(".json")),
                  key=lambda r: r["name"])


def swap(root: str, name: str, new_index_dir: str) -> dict:
    """The reindex-then-swap action: re-point plus a refusal of a
    no-op re-point (catching a deploy script that forgot to build the
    new index) — checked UNDER the writer lock so two concurrent swaps
    cannot both pass the guard. An attached filter is preserved: the
    swap replaces the TARGET, not the alias's definition."""
    new_index_dir = os.path.abspath(new_index_dir)
    if not os.path.isdir(os.path.join(new_index_dir, "manifests")):
        raise AliasError(f"{new_index_dir} is not a committed index")

    def guard(cur):
        if cur["target"] == new_index_dir:
            raise AliasError(f"alias {name!r} already points at "
                             f"{new_index_dir} — swap would be a no-op")

    return _repoint_locked(root, name, new_index_dir, None,
                           keep_filter=True, guard=guard)
