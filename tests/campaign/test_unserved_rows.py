"""A result row that ``get`` would not serve is recomputed in store mode.

``CampaignStore.get`` reads a row of an older ``CACHE_VERSION``, or one
whose record no longer decodes to a dict, as a miss.  The queue must
agree with it: such a row's job is runnable again, even when an earlier
run finished it, so a re-run recomputes that one cell, overwrites the
row, and gives the reference document.
"""

import pytest

from repro.campaign import CACHE_VERSION, CampaignStore
from repro.fault import SCENARIOS, run_campaign, sample_faults

FAULTS = sample_faults(SCENARIOS["msgpipe"].targets, 12, seed=7)

#: ways to spoil one committed row, as SQL over its fingerprint
SPOILERS = {
    "truncated": "UPDATE results SET record = "
                 "substr(record, 1, length(record) / 2) "
                 "WHERE fingerprint = ?",
    "not a dict": "UPDATE results SET record = '[]' WHERE fingerprint = ?",
    "older version": f"UPDATE results SET version = {CACHE_VERSION - 1} "
                     f"WHERE fingerprint = ?",
}


@pytest.fixture(scope="module")
def reference():
    return run_campaign("msgpipe", FAULTS).to_json()


@pytest.mark.parametrize("spoil", sorted(SPOILERS))
def test_spoiled_row_is_recomputed(tmp_path, reference, spoil):
    store = CampaignStore(tmp_path / "s.sqlite")
    first = run_campaign("msgpipe", FAULTS, cache=store)
    assert first.to_json() == reference
    row = first.rows[0]
    store.conn.execute(SPOILERS[spoil], (row["fingerprint"],))
    assert store.get(row["fingerprint"]) is None

    again = run_campaign("msgpipe", FAULTS, cache=store)
    assert again.to_json() == reference
    assert again.stats.computed == 1
    assert store.get(row["fingerprint"]) == row["record"]
    assert store.queue_counts()["done"] == len(store)


def test_enqueue_counts_only_served_rows_done(tmp_path):
    store = CampaignStore(tmp_path / "s.sqlite")
    jobs = [(f"{i}" * 64, {"cell": i}) for i in range(3)]
    store.put(jobs[0][0], {"ok": True})
    store.put(jobs[1][0], {"ok": True})
    store.conn.execute(SPOILERS["not a dict"], (jobs[1][0],))
    assert store.enqueue(jobs) == 2
    assert [fp for fp, _ in store.claim("o", 10)] == [jobs[1][0],
                                                      jobs[2][0]]
