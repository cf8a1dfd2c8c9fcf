"""Pinned cell keys and queue payloads for a fixed 24-cell matrix.

A cell's content key addresses the store and the work queue, and its
queue payload is the recipe a remote worker recomputes the cell from.
Both must stay byte-stable across refactors: a changed key turns every
stored cell cold, and a changed payload strands rows queued by older
releases. This file pins the literal SHA-256 keys and the literal
``json.dumps(job, sort_keys=True)`` payloads of two workloads x two
geometries x three policies, clean and faulted, using only the public
enqueue path (which computes no cell).
"""

import json
import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

from repro.core.policies import STREAM_TAGS
from repro.errors import ExperimentError
from repro.eval.profiles import SMOKE_PROFILE
from repro.eval.runner import CellRecipe, last_matrix_stats, run_matrix
from repro.eval.service import compute_job
from repro.rtm.geometry import RTMConfig, iso_capacity_sweep

WORKLOADS = ("adpcm", "synthetic:uniform,vars=8,length=64")
CONFIGS = (
    iso_capacity_sweep()[0],
    RTMConfig(dbcs=4, domains_per_track=64, ports_per_track=2),
)
POLICIES = ("DMA-SR", "GA", "RW")
FAULTS = {
    "clean": {},
    "faulted": {"fault_rate": 0.01, "scrub_interval": 64},
}

#: cell key -> queue payload. The payloads are exactly as release 1.9.0
#: enqueued them; RW's keys are those of 1.12.0 and GA's those of 1.15.0
#: (see the stream tags below), the rest those of 1.9.0.
PINNED = {
    # Clean cells, in run_matrix enumeration order.
    "0223ba627c891e7badeeecfc5ed24314f5ae3683a9195ff71adea02b20bfa400": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 5765488047046174020, "workload": "adpcm"}',
    "c2bbece76bc29952f28cbd31aa3366a4b6e33be9166bbe7031590e1dc18b5e2d": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 8275336682942969161, "workload": "adpcm"}',
    "c8e21e5e6185cc11ac047d812cfd4d48945ec50b6bf4a3069598c0b30108d64a": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 7154437704795913392, "workload": "adpcm"}',
    "0727201a6cd4bfdec0eb180de01998e6ecc9dec3c0ded5d9809bbb1b356f77a1": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 2077169698657866656, "workload": "adpcm"}',
    "5fe0d61a0a4192efadc8ff713c6371444d417dce7211e5dc3fc14dc721996134": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 2768545318656780450, "workload": "adpcm"}',
    "bc6b21678335efe5c2c58ef7a66771d3c8d47a79dd3f95633636722b4e6338a8": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 8057108420966028185, "workload": "adpcm"}',
    "0c37291d1c451ec5006d5d20989952cbc74f162d71ea524b9f191371194bde06": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 48563862895646263, "workload": "synthetic:uniform,vars=8,length=64"}',
    "6ab82c319bc3c7896d1a1ee4333130c299ef3957e3b3bd7ac9c400eaa2385300": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 7574495229982081901, "workload": "synthetic:uniform,vars=8,length=64"}',
    "17d6bb6957f10009424a2f9ce50d0898093ea66ea518853a8c8c4919fe1be773": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 7351667880583433390, "workload": "synthetic:uniform,vars=8,length=64"}',
    "76ecb5d149b14751bacbb505bade3e1411f695f7a066dd8d0596b701c3f9e084": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 4315938159125732496, "workload": "synthetic:uniform,vars=8,length=64"}',
    "57207feaee8f18e6227555adfcfe98535c1c1d203a6130dd3d0a1b4814c8ebde": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 2794980811785498147, "workload": "synthetic:uniform,vars=8,length=64"}',
    "f4155e2c6bd988508c29aad7d0bcb5f88f10dbbe685e3b95992bb296d715c392": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 2568023004994447682, "workload": "synthetic:uniform,vars=8,length=64"}',
    # The same cells with fault_rate=0.01, scrub_interval=64.
    "0b81225d5cba3414f70e2209952e22c8b43d7c7cf040bd4e2674032551bf1670": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 5765488047046174020, "workload": "adpcm"}',
    "c1d62369b0debefee8ec728b7dc957368a448583592f5403e580d14121d5fbc3": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 8275336682942969161, "workload": "adpcm"}',
    "a832e8d06f309e8edbc3d92f5283b8d25c87462ed5193c347d68daf4b4903acf": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 7154437704795913392, "workload": "adpcm"}',
    "9867a1ec5346f16c9e1700f4e46838ea3bb8462e119f6c94eea495da4cf8e3be": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 2077169698657866656, "workload": "adpcm"}',
    "1b43a418b2e1606db0049e18fdc98f1450befca74e96c24b850b842e28af7426": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 2768545318656780450, "workload": "adpcm"}',
    "fadc7a7ccfcb9fafc00889ea77084447d32f9e14d0fbc3ed93398bbdac64e49a": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 8057108420966028185, "workload": "adpcm"}',
    "93da11357c7cd9dffdb02773360eb0e48ee966f623b91a9740191cfa6eb487eb": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 48563862895646263, "workload": "synthetic:uniform,vars=8,length=64"}',
    "f98b616054e99b090753b25bc1de16ba78662b66c0cf7085e7c28587bed5e7c2": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 7574495229982081901, "workload": "synthetic:uniform,vars=8,length=64"}',
    "998b1b3122a688dbae1bc52d89fc0e3fcc2728f4144426b0bd55aff4cdef33be": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 7351667880583433390, "workload": "synthetic:uniform,vars=8,length=64"}',
    "43d1266b69f084889b1e4e0b65a93f215ef615daa87af8f4239a8800fa19e07b": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 4315938159125732496, "workload": "synthetic:uniform,vars=8,length=64"}',
    "aaa0385450d4f678e22f04a9cac42bed564dfefc19205b8b773c97b868690a10": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 2794980811785498147, "workload": "synthetic:uniform,vars=8,length=64"}',
    "4a4db203d1b62e5d5ca938ee3abe93a121920cd44c6409d680ddc23c8cb91bbb": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 2568023004994447682, "workload": "synthetic:uniform,vars=8,length=64"}',
}


@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_enqueued_keys_and_payloads_are_pinned(tmp_path, faults):
    profile = replace(SMOKE_PROFILE, workloads=WORKLOADS, **FAULTS[faults])
    path = str(tmp_path / "store.db")
    run_matrix(POLICIES, profile, configs=CONFIGS, store=path, enqueue=True,
               use_cache=False)
    with closing(sqlite3.connect(path)) as conn:
        rows = dict(conn.execute("SELECT key, job FROM queue"))
    faulted = faults == "faulted"
    expected = {key: job for key, job in PINNED.items()
                if ('"fault": null' not in job) == faulted}
    assert len(expected) == 12
    assert rows == expected


# -- RW's stream tag -----------------------------------------------------------

#: 1.11.0 key -> 1.12.0 key of each RW cell above. Release 1.12.0 drew RW
#: candidates as arrays, a new RNG stream, and tagged RW's keys with it;
#: the payloads did not change.
RW_REKEYED = {
    "386e7f0d6e59d83377cc79cc26a6b5baea81c60dfd1493fc244ae1023588e3d7": "c8e21e5e6185cc11ac047d812cfd4d48945ec50b6bf4a3069598c0b30108d64a",
    "8490267adef3f72b433629a5711c58ffe1ded0f6d54a0ad16b3a00f89424eaeb": "bc6b21678335efe5c2c58ef7a66771d3c8d47a79dd3f95633636722b4e6338a8",
    "5fae5d913a57c06a87a256f9a6bdd1328a8964b2b348e13f43322f8732e224fa": "17d6bb6957f10009424a2f9ce50d0898093ea66ea518853a8c8c4919fe1be773",
    "2bfaa11227a2fdf2c318c6ccef2c0415fa1ca6644ae88c0f4c332e1d85113d9d": "f4155e2c6bd988508c29aad7d0bcb5f88f10dbbe685e3b95992bb296d715c392",
    "376641916c0cab54babd62aa7b3b4b3081d0ec5c52de66a6a3abdc048110d7a7": "a832e8d06f309e8edbc3d92f5283b8d25c87462ed5193c347d68daf4b4903acf",
    "70f7867f5b400d0f5b691df751ecab18e365ab2a2d846c911f2c6b76533f4356": "fadc7a7ccfcb9fafc00889ea77084447d32f9e14d0fbc3ed93398bbdac64e49a",
    "c7fff59cc956f515d5f119f4b2c5e1615619cd353d90d3e148169b9ce29fb733": "998b1b3122a688dbae1bc52d89fc0e3fcc2728f4144426b0bd55aff4cdef33be",
    "93d246c02037c17c36ae687c648710e1ca327421f145c307b1b8e772b1df9d42": "4a4db203d1b62e5d5ca938ee3abe93a121920cd44c6409d680ddc23c8cb91bbb",
}


@pytest.mark.parametrize("old_key", sorted(RW_REKEYED))
def test_worker_refuses_rw_rows_queued_under_old_keys(old_key):
    """A row queued by 1.11.0 re-keys on a newer worker, which refuses
    to commit it instead of storing a new-stream result under the old key."""
    job = json.loads(PINNED[RW_REKEYED[old_key]])
    with pytest.raises(ExperimentError, match="drift"):
        compute_job(job, expected_key=old_key)


# -- GA's stream tag -----------------------------------------------------------

#: 1.14.0 key -> 1.15.0 key of each GA cell above. Release 1.15.0 bred GA
#: populations as arrays, a new RNG stream, and tagged GA's keys with it;
#: the payloads did not change.
GA_REKEYED = {
    "27b12962cb59d110c06e2ccf594a328fd6297bac477c9275de4cd552d17e92e3": "c2bbece76bc29952f28cbd31aa3366a4b6e33be9166bbe7031590e1dc18b5e2d",
    "b9a1f58fbfff6f05a61b1160e4aeb447648f9fa2985cb702755c8db4db35ade1": "5fe0d61a0a4192efadc8ff713c6371444d417dce7211e5dc3fc14dc721996134",
    "d67f2fa25983488f622d60643357e713d0a9dfa127f739f7c335fd7046e0c19f": "6ab82c319bc3c7896d1a1ee4333130c299ef3957e3b3bd7ac9c400eaa2385300",
    "b4b7627b108d6b74927be1b0af816f6cbbaefdc4564653d11705646897419c7b": "57207feaee8f18e6227555adfcfe98535c1c1d203a6130dd3d0a1b4814c8ebde",
    "6c26fba1d013c4324ce7973ccdadd712b7c6a5c90b556bbe6c3ac3346d7e0865": "c1d62369b0debefee8ec728b7dc957368a448583592f5403e580d14121d5fbc3",
    "9ad4a766a5edbd175df0d997723a8cd57e6446188c6c2edd312c5140a7663ac6": "1b43a418b2e1606db0049e18fdc98f1450befca74e96c24b850b842e28af7426",
    "31e5ceec674c61656e70a4c9ab1856b60d23a5094afb1594c700ba6aa85e3983": "f98b616054e99b090753b25bc1de16ba78662b66c0cf7085e7c28587bed5e7c2",
    "06c827dabb0855ce217ecbb77136aa0e1684b459c964520ee5651b2700eddbbd": "aaa0385450d4f678e22f04a9cac42bed564dfefc19205b8b773c97b868690a10",
}


@pytest.mark.parametrize("old_key", sorted(GA_REKEYED))
def test_worker_refuses_ga_rows_queued_under_old_keys(old_key):
    """A row queued by 1.14.0 re-keys on a newer worker, which refuses
    to commit it instead of storing a new-stream result under the old key."""
    job = json.loads(PINNED[GA_REKEYED[old_key]])
    with pytest.raises(ExperimentError, match="drift"):
        compute_job(job, expected_key=old_key)


def test_retagged_rw_cells_recompute_while_the_rest_stay_warm(tmp_path, monkeypatch):
    profile = replace(SMOKE_PROFILE, workloads=WORKLOADS)
    path = str(tmp_path / "store.db")
    run_matrix(POLICIES, profile, configs=CONFIGS, store=path, use_cache=False)
    assert last_matrix_stats().computed == 12

    monkeypatch.setitem(STREAM_TAGS, "RW", "rw-retagged")
    computed = []
    compute = CellRecipe.compute

    def spy(self, program):
        computed.append(self.policy[0])
        return compute(self, program)

    monkeypatch.setattr(CellRecipe, "compute", spy)
    run_matrix(POLICIES, profile, configs=CONFIGS, store=path, use_cache=False)
    stats = last_matrix_stats()
    assert (stats.hits_store, stats.computed) == (8, 4)
    assert computed == ["RW"] * 4
