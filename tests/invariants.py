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
* **scheduler aggregates** — a live scheduler's incremental demand
  counters equal a full rescan of its queues, and the invariants they
  rest on hold, as do its prefilling/decoding split and its decode
  cohort: every member's derived counts, prefix base and pending events
  (see :func:`assert_scheduler_aggregates`); each batch it forms
  summarises the cohort it advanced and counts its tokens and requests
  correctly (:func:`assert_decode_summary`).
* **memory conservation** — an instance's parameter runs and mapped KV
  pages partition the chunks its pool allocated, and a group's paged
  cache never holds more blocks than its instances' KV memory backs (see
  :func:`assert_memory_conservation` and
  :func:`assert_group_kv_capacity`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.memory.paged_kv import KV_BLOCK_SIZE
from repro.models.memory import kv_bytes_per_token


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

    Takes ``repro.trace`` :class:`~repro.trace.Span` objects.  For every
    request whose root span carries ``meta.status == "finished"``:

    * there is exactly one root span, and it is closed;
    * the stage spans (kind ``"stage"``) sum to the root duration within
      ``abs_tol + rel_tol * max(1, |root duration|)`` — the tracer folds
      boundaries into a partition of ``[root_start, root_end]``, so this
      is an identity, not an approximation.

    Returns the number of finished requests checked (callers assert it
    is non-zero so an empty trace cannot vacuously pass).
    """
    roots: Dict[int, List] = {}
    stages: Dict[int, List] = {}
    for span in spans:
        if span.kind == "root":
            roots.setdefault(span.request_id, []).append(span)
        elif span.kind == "stage":
            stages.setdefault(span.request_id, []).append(span)
    checked = 0
    for rid, request_roots in sorted(roots.items()):
        finished = [root for root in request_roots if root.meta.get("status") == "finished"]
        if not finished:
            continue
        assert len(request_roots) == 1, (
            f"request {rid}: {len(request_roots)} root spans, expected exactly one"
        )
        root = finished[0]
        assert root.end_s is not None, f"request {rid}: root span never closed"
        expected = root.end_s - root.start_s
        total = 0.0
        for stage in stages.get(rid, ()):
            assert stage.end_s is not None, f"request {rid}: open stage span {stage.name!r}"
            assert stage.end_s >= stage.start_s, (
                f"request {rid}: stage {stage.name!r} has negative duration"
            )
            total += stage.end_s - stage.start_s
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


def _fcfs(request) -> tuple:
    return (request.arrival_time, request.request_id)


def _live_entries(heap, members) -> Dict[int, List[int]]:
    """Request id -> keys of the heap entries of its current membership."""
    live: Dict[int, List[int]] = {}
    for entry in heap:
        if members.get(entry[2]) is entry[4]:
            live.setdefault(entry[2], []).append(entry[0])
    return live


def assert_scheduler_aggregates(scheduler, total_demand: Optional[int] = None) -> None:
    """A scheduler's aggregates and its decode cohort equal a full rescan.

    Reads ``running``, which materialises every cohort member (writes its
    derived output tokens, latest token time and KV tokens onto it), then
    recomputes from the requests and their block tables:

    * ``queued_demand_tokens`` (remaining prefill of every waiting request
      plus the context of every swapped one) and ``total_demand_tokens``
      (used KV, plus every running request's prefill deficit against the
      KV it holds, plus queued demand);
    * the running set's partition: every running request is owned by this
      scheduler and is in exactly one of the FCFS-sorted ``_prefilling``
      (prefill unfinished) and ``_decoding`` (prefill done) lists, and no
      running request is finished;
    * the decode cohort: ``_decoding`` is partitioned into the cohort, the
      stalled set and the bench; a cohort or bench request is not stalled
      at the scheduler's latest time; a stalled one has a stall-heap entry
      due no later than its ``stall_until``;
    * each member's state: its block table is the cache's, its prefix base
      is ``prompt + output - max(completed, joined)`` and the bases sum to
      the recorded sum; it has exactly one live crossing entry, at the
      formed count where its tail block fills, and one live finish entry,
      at the completed count where its output reaches
      ``max_output_tokens``;
    * the materialised KV tokens and the blocks of every table sum to
      ``kv.used_tokens`` and ``kv.used_blocks``, and every running request
      holds at least ``prefill_progress``.

    ``total_demand`` is the value a ``total_demand_tokens`` query just
    returned (so a wrapper around that method can check it without
    recursing); when omitted the helper queries it.
    """
    running = scheduler.running
    queued = 0
    for request in scheduler.waiting:
        queued += max(0, request.prefill_target - request.prefill_progress)
    for request in scheduler.swapped:
        queued += request.context_tokens
    for name in ("_prefilling", "_decoding", "_cohort", "_bench"):
        keys = [_fcfs(r) for r in getattr(scheduler, name)]
        assert keys == sorted(keys), f"{name} is not FCFS-sorted: {keys}"
    ids = lambda requests: {request.request_id for request in requests}  # noqa: E731
    prefilling, decoding = ids(scheduler._prefilling), ids(scheduler._decoding)
    assert len(prefilling) == len(scheduler._prefilling)
    assert len(decoding) == len(scheduler._decoding)
    assert not prefilling & decoding, "a request is in both running lists"
    assert prefilling | decoding == ids(running) and len(running) == len(ids(running)), (
        "the prefilling and decoding lists do not partition the running set"
    )
    for request in running:
        assert request.scheduler is scheduler, (
            f"running request {request.request_id} names another owner"
        )
        assert not request.finished, f"finished request {request.request_id} still running"
    for request in scheduler._prefilling:
        assert request.prefill_progress < request.prefill_target, (
            f"prefilling request {request.request_id} has finished its prefill"
        )
    for request in scheduler._decoding:
        assert request.prefill_progress >= request.prefill_target, (
            f"decoding request {request.request_id} is mid-prefill "
            f"({request.prefill_progress}/{request.prefill_target})"
        )

    members = scheduler._members
    cohort, stalled, bench = ids(scheduler._cohort), set(scheduler._stalled), ids(scheduler._bench)
    assert set(members) == cohort and len(cohort) == len(scheduler._cohort)
    assert len(bench) == len(scheduler._bench)
    assert not (cohort & stalled or cohort & bench or stalled & bench), (
        "a decoding request is in two of cohort, stalled set and bench"
    )
    assert cohort | stalled | bench == decoding, (
        "cohort, stalled set and bench do not partition the decoding list"
    )
    for request in list(scheduler._cohort) + list(scheduler._bench):
        assert request.stall_until <= scheduler._now, (
            f"request {request.request_id} decodes while stalled until "
            f"{request.stall_until} (now {scheduler._now})"
        )
    for rid, request in scheduler._stalled.items():
        assert any(
            entry[2] is request and entry[0] <= request.stall_until
            for entry in scheduler._stall_heap
        ), f"stalled request {rid} is never looked at again"

    tables = scheduler.kv._tables
    block_size = scheduler.kv.block_size
    formed, completed = scheduler._formed, scheduler._completed
    crossings = _live_entries(scheduler._crossings, members)
    finishes = _live_entries(scheduler._finishes, members)
    for index, request in enumerate(scheduler._cohort):
        member = members[request.request_id]
        assert member.request is request
        assert request.first_token_time is not None, (
            f"member {request.request_id} joined before its first token"
        )
        table = tables.get(request.request_id)
        assert member.table is table, f"member {request.request_id} holds a stale block table"
        base = request.prompt_tokens + request.output_tokens - max(completed, member.joined)
        assert scheduler._bases[index] == base, (
            f"member {request.request_id} has prefix base {scheduler._bases[index]}, "
            f"rescan {base}"
        )
        tail_full = formed + table.num_blocks * block_size - table.num_tokens
        assert crossings.get(request.request_id) == [tail_full], (
            f"member {request.request_id} crossing entries "
            f"{crossings.get(request.request_id)}, expected [{tail_full}]"
        )
        done = max(completed, member.joined) + request.max_output_tokens - request.output_tokens
        assert finishes.get(request.request_id) == [done], (
            f"member {request.request_id} finish entries "
            f"{finishes.get(request.request_id)}, expected [{done}]"
        )
    assert len(scheduler._bases) == len(scheduler._cohort)
    assert scheduler._base_sum == sum(scheduler._bases), "prefix base sum drifted"

    held_tokens = sum(table.num_tokens for table in tables.values())
    assert scheduler.kv.used_tokens == held_tokens, (
        f"used KV tokens {scheduler.kv.used_tokens} != sum over tables {held_tokens}"
    )
    held_blocks = sum(table.num_blocks for table in tables.values())
    assert scheduler.kv.used_blocks == held_blocks, (
        f"used KV blocks {scheduler.kv.used_blocks} != sum over tables {held_blocks}"
    )
    deficit = 0
    for request in running:
        held = scheduler.kv.tokens_of(request.request_id)
        assert held >= request.prefill_progress, (
            f"running request {request.request_id} holds {held} KV tokens, "
            f"below its prefill progress {request.prefill_progress}"
        )
        deficit += max(0, request.prefill_target - held)
    assert scheduler.queued_demand_tokens() == queued, (
        f"queued demand {scheduler.queued_demand_tokens()} != rescan {queued}"
    )
    if total_demand is None:
        total_demand = scheduler.total_demand_tokens()
    expected = scheduler.kv.used_tokens + deficit + queued
    assert total_demand == expected, (
        f"total demand {total_demand} != rescan {expected}"
    )


def assert_decode_summary(scheduler, batch) -> None:
    """A freshly formed batch's decode summary matches the cohort it advanced.

    Materialises the members (``running``) and checks that
    ``decode_count`` is the cohort's size, that the i-th of the
    scheduler's ``decode_bases()`` plus the batch's ``decode_offset`` is
    the i-th member's context in FCFS order and ``decode_prefix_sum``
    their sum, that the batch holds no bases of its own (a pipelined group
    gives it a copy), that every member's KV fits its
    blocks (this pass's crossings took theirs), and that the cohort holds
    the first members in FCFS order up to the token budget, with the bench
    behind them.  ``total_new_tokens`` and ``num_requests`` equal a
    recount of the decodes and prefill chunks, one request each.
    """
    scheduler.running
    cohort = scheduler._cohort
    assert batch.decode_count == len(cohort), (
        f"decode_count {batch.decode_count} != cohort size {len(cohort)}"
    )
    contexts = [request.prompt_tokens + request.output_tokens for request in cohort]
    if batch.decode_count:
        prefixes = [base + batch.decode_offset for base in scheduler.decode_bases()]
        assert prefixes == contexts, f"decode prefixes {prefixes} != contexts {contexts}"
    assert not batch.decode_bases, "the batch holds decode bases the cohort will change"
    assert batch.decode_prefix_sum == sum(contexts), (
        f"decode_prefix_sum {batch.decode_prefix_sum} != {sum(contexts)} over the cohort"
    )
    block_size = scheduler.kv.block_size
    for request in cohort:
        table = scheduler._members[request.request_id].table
        assert table.num_tokens <= table.num_blocks * block_size, (
            f"member {request.request_id} holds {table.num_tokens} KV tokens "
            f"in {table.num_blocks} blocks"
        )
    budget = scheduler.config.token_budget
    assert len(cohort) <= budget
    if scheduler._bench:
        assert len(cohort) == budget and _fcfs(scheduler._bench[0]) > _fcfs(cohort[-1]), (
            "a benched request ranks before a cohort member"
        )
    decoding = {request.request_id for request in cohort}
    prefilled = [chunk.request.request_id for chunk in batch.chunks]
    assert len(set(prefilled)) == len(prefilled) and not decoding & set(prefilled), (
        "a request has two chunks in one batch"
    )
    new_tokens = batch.decode_count + sum(chunk.new_tokens for chunk in batch.chunks)
    assert batch.total_new_tokens == new_tokens, (
        f"total_new_tokens {batch.total_new_tokens} != recount {new_tokens}"
    )
    assert batch.num_requests == batch.decode_count + len(prefilled), (
        f"num_requests {batch.num_requests} != recount {batch.decode_count + len(prefilled)}"
    )


def assert_memory_conservation(manager) -> None:
    """An instance's chunk runs account for exactly its pool's allocation.

    Checks a :class:`~repro.memory.unified.UnifiedMemoryManager`:

    * every resident layer holds exactly ``chunks_needed(layer_param_bytes)``
      chunks, what loading it allocated;
    * the KV range's runs add up to its mapped page count;
    * parameter chunks plus mapped KV pages equal the pool's allocated
      chunks, no two runs overlap, and every run lies in a span the pool
      allocated;
    * the KV block count equals mapped KV bytes // block bytes.
    """
    pool, kv_range = manager.pool, manager.kv_range
    layer_chunks = pool.chunks_needed(manager.layer_param_bytes)
    for layer, runs in manager._param_runs.items():
        held = sum(run.count for run in runs)
        assert held == layer_chunks, (
            f"layer {layer} holds {held} chunks, a load gives it {layer_chunks}"
        )
    mapped = sum(run.count for run in kv_range.runs)
    assert mapped == kv_range.mapped_pages, (
        f"KV runs hold {mapped} chunks, the range maps {kv_range.mapped_pages} pages"
    )
    param_chunks = len(manager._param_runs) * layer_chunks
    assert param_chunks + mapped == pool.allocated_chunks, (
        f"{param_chunks} parameter chunks + {mapped} KV pages != "
        f"{pool.allocated_chunks} allocated chunks"
    )
    runs = sorted(
        [run for held in manager._param_runs.values() for run in held] + kv_range.runs
    )
    for before, after in zip(runs, runs[1:]):
        assert before.end <= after.first, f"runs {before} and {after} overlap"
    spans = pool._allocated.items()
    for run in runs:
        assert any(first <= run.first and run.end <= end for first, end in spans), (
            f"run {run} is not inside an allocated span"
        )
    block_bytes = KV_BLOCK_SIZE * manager.kv_token_bytes
    expected = kv_range.mapped_pages * pool.chunk_bytes // block_bytes
    assert manager.kv_blocks == expected, (
        f"{manager.kv_blocks} KV blocks, mapped KV memory holds {expected}"
    )


def assert_group_kv_capacity(group) -> None:
    """A group's paged cache holds no more blocks than its instances back."""
    block_bytes = KV_BLOCK_SIZE * kv_bytes_per_token(group.model)
    backed = sum(inst.memory.kv_range.mapped_bytes for inst in group.instances) // block_bytes
    assert group.kv.num_blocks <= backed, (
        f"group {group.group_id} has {group.kv.num_blocks} KV blocks, its "
        f"instances' KV memory backs {backed}"
    )
