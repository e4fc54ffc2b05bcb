"""Reusable conservation invariants over sweep result documents.

Every sweep document (fleet, multicluster, chaos, serve) describes
closed systems: requests that enter must be accounted for somewhere, and
every WAN byte must be attributable to a transfer category.  These
helpers assert that, property-style, over *every* entry of a document —
tests import them instead of re-deriving the arithmetic per suite, so
the accounting contract is stated exactly once.

The invariants:

* **request conservation** — ``requests == finished + shed + lost + incomplete``
  with every term non-negative.  Entries name the terms differently per
  schema (fleet entries have no ``lost_to_fault``; only chaos entries
  carry ``incomplete`` explicitly), so the helper reads what exists and
  derives the rest.
* **KV-byte balance** — ``cross_cluster_bytes == dispatch_bytes +
  migration_bytes`` (chaos entries; other schemas don't split the bytes).
* **serve attempt/intent conservation** — serve entries (detected by the
  ``offered`` key) count two currencies: engine *attempts* and logical
  client *intents*.  Both must balance: ``submitted == issued + retries``,
  ``submitted == finished + shed + incomplete``, ``shed == retries +
  retry_pending + gave_up`` (every shed attempt is either retried,
  awaiting its retry at the horizon, or abandoned) and ``offered ==
  finished + gave_up + client_incomplete``.
* **span conservation** — trace output (``repro.trace``): every finished
  request has exactly one closed root span, and its stage spans tile the
  root exactly, so stage durations sum to the end-to-end latency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


def entry_label(entry: Dict) -> str:
    """A short identity string for assertion messages."""
    parts = [
        str(entry.get(key))
        for key in (
            "scenario",
            "policy",
            "router",
            "faults",
            "migration",
            "clients",
            "retry",
            "backpressure",
        )
        if key in entry
    ]
    return "/".join(parts) or "<entry>"


def assert_request_conservation(entry: Dict) -> None:
    """Every submitted request is finished, shed, lost, or incomplete.

    Works across the fleet / multicluster / chaos entry schemas: missing
    categories default to zero, and when the entry does not carry
    ``incomplete`` explicitly it is derived as the residual — which must
    then be non-negative (no category may over-count).
    """
    label = entry_label(entry)
    requests = entry["requests"]
    finished = entry["finished"]
    shed = entry.get("shed", 0)
    lost = entry.get("lost_to_fault", 0)
    assert requests >= 0 and finished >= 0 and shed >= 0 and lost >= 0, (
        f"{label}: negative accounting term"
    )
    incomplete = entry.get("incomplete", requests - finished - shed - lost)
    assert incomplete >= 0, (
        f"{label}: over-counted — finished={finished} shed={shed} "
        f"lost={lost} exceed requests={requests}"
    )
    assert requests == finished + shed + lost + incomplete, (
        f"{label}: requests={requests} != finished={finished} + shed={shed} "
        f"+ lost={lost} + incomplete={incomplete}"
    )
    if requests:
        assert entry["completion_ratio"] == finished / requests, (
            f"{label}: completion_ratio inconsistent with finished/requests"
        )


def assert_kv_bytes_balance(entry: Dict, rel_tol: float = 1e-9) -> None:
    """Every WAN byte is either per-request dispatch or a session move."""
    label = entry_label(entry)
    total = entry["cross_cluster_bytes"]
    dispatch = entry.get("dispatch_bytes", total)
    migration = entry.get("migration_bytes", 0.0)
    assert total >= 0.0 and dispatch >= 0.0 and migration >= 0.0, (
        f"{label}: negative byte count"
    )
    tolerance = rel_tol * max(1.0, abs(total))
    assert abs(total - (dispatch + migration)) <= tolerance, (
        f"{label}: cross_cluster_bytes={total} != dispatch_bytes={dispatch} "
        f"+ migration_bytes={migration}"
    )


def assert_serve_conservation(entry: Dict) -> None:
    """Every serve attempt and every client intent is accounted for.

    Serve entries count two currencies.  Engine *attempts*: ``submitted
    == issued + retries`` and ``submitted == finished + shed +
    incomplete``.  Shed attempts: ``shed == retries + retry_pending +
    gave_up`` — each shed is either retried (so ``retries >= sheds
    retried`` holds with equality), scheduled for a retry that never
    submitted before the horizon, or abandoned.  Logical client
    *intents*: ``offered == finished + gave_up + client_incomplete``.
    """
    label = entry_label(entry)
    terms = {
        key: entry[key]
        for key in (
            "offered",
            "issued",
            "submitted",
            "finished",
            "shed",
            "retries",
            "retry_pending",
            "gave_up",
            "incomplete",
            "client_incomplete",
        )
    }
    for key, value in terms.items():
        assert value >= 0, f"{label}: negative accounting term {key}={value}"
    assert terms["submitted"] == terms["issued"] + terms["retries"], (
        f"{label}: submitted={terms['submitted']} != issued={terms['issued']} "
        f"+ retries={terms['retries']}"
    )
    assert terms["submitted"] == (
        terms["finished"] + terms["shed"] + terms["incomplete"]
    ), (
        f"{label}: submitted={terms['submitted']} != finished={terms['finished']} "
        f"+ shed={terms['shed']} + incomplete={terms['incomplete']}"
    )
    assert terms["shed"] == (
        terms["retries"] + terms["retry_pending"] + terms["gave_up"]
    ), (
        f"{label}: shed={terms['shed']} != retries={terms['retries']} "
        f"+ retry_pending={terms['retry_pending']} + gave_up={terms['gave_up']}"
    )
    assert terms["offered"] == (
        terms["finished"] + terms["gave_up"] + terms["client_incomplete"]
    ), (
        f"{label}: offered={terms['offered']} != finished={terms['finished']} "
        f"+ gave_up={terms['gave_up']} + client_incomplete={terms['client_incomplete']}"
    )
    if terms["submitted"]:
        ratio = terms["finished"] / terms["submitted"]
        assert entry["completion_ratio"] == ratio, (
            f"{label}: completion_ratio inconsistent with finished/submitted"
        )
        assert entry["goodput_per_submitted"] == ratio, (
            f"{label}: goodput_per_submitted inconsistent with finished/submitted"
        )


def assert_span_conservation(
    spans, *, rel_tol: float = 1e-9, abs_tol: float = 1e-6
) -> int:
    """Every finished request's stage spans tile its root span exactly.

    Accepts ``repro.trace`` :class:`~repro.trace.Span` objects or their
    ``to_dict`` form (the spans-JSONL schema).  For every request whose
    root span carries ``meta.status == "finished"``:

    * there is exactly one root span, and it is closed;
    * the stage spans (kind ``"stage"``) sum to the root duration within
      ``abs_tol + rel_tol * max(1, |root duration|)`` — the tracer folds
      boundaries into a partition of ``[root_start, root_end]``, so this
      is an identity, not an approximation.

    Returns the number of finished requests checked (callers assert it
    is non-zero so an empty trace cannot vacuously pass).
    """
    as_dict = lambda span: span if isinstance(span, dict) else span.to_dict()
    roots: Dict[int, List[Dict]] = {}
    stages: Dict[int, List[Dict]] = {}
    for raw in spans:
        span = as_dict(raw)
        rid = span["request_id"]
        if span["kind"] == "root":
            roots.setdefault(rid, []).append(span)
        elif span["kind"] == "stage":
            stages.setdefault(rid, []).append(span)
    checked = 0
    for rid, request_roots in sorted(roots.items()):
        finished = [
            root
            for root in request_roots
            if (root.get("meta") or {}).get("status") == "finished"
        ]
        if not finished:
            continue
        assert len(request_roots) == 1, (
            f"request {rid}: {len(request_roots)} root spans, expected exactly one"
        )
        root = finished[0]
        assert root["end_s"] is not None, f"request {rid}: root span never closed"
        expected = root["end_s"] - root["start_s"]
        total = 0.0
        for stage in stages.get(rid, ()):
            assert stage["end_s"] is not None, (
                f"request {rid}: open stage span {stage['name']!r}"
            )
            assert stage["end_s"] >= stage["start_s"], (
                f"request {rid}: stage {stage['name']!r} has negative duration"
            )
            total += stage["end_s"] - stage["start_s"]
        tolerance = abs_tol + rel_tol * max(1.0, abs(expected))
        assert abs(total - expected) <= tolerance, (
            f"request {rid}: stage durations sum to {total}, root span "
            f"duration is {expected} (difference {abs(total - expected)})"
        )
        checked += 1
    return checked


def assert_document_invariants(document: Dict) -> List[Dict]:
    """Apply every applicable invariant to every entry of a document.

    Returns the entries checked (so callers can assert non-emptiness).
    """
    entries: Iterable[Dict] = document["entries"]
    checked = []
    for entry in entries:
        if "offered" in entry:
            assert_serve_conservation(entry)
        else:
            assert_request_conservation(entry)
        if "cross_cluster_bytes" in entry:
            assert_kv_bytes_balance(entry)
        checked.append(entry)
    assert checked, "document has no entries to check"
    return checked
