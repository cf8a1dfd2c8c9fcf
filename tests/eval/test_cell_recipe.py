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

import sqlite3
from contextlib import closing
from dataclasses import replace

import pytest

from repro.eval.profiles import SMOKE_PROFILE
from repro.eval.runner import run_matrix
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

#: cell key -> queue payload, exactly as release 1.9.0 enqueued them.
PINNED = {
    # Clean cells, in run_matrix enumeration order.
    "0223ba627c891e7badeeecfc5ed24314f5ae3683a9195ff71adea02b20bfa400": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 5765488047046174020, "workload": "adpcm"}',
    "27b12962cb59d110c06e2ccf594a328fd6297bac477c9275de4cd552d17e92e3": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 8275336682942969161, "workload": "adpcm"}',
    "386e7f0d6e59d83377cc79cc26a6b5baea81c60dfd1493fc244ae1023588e3d7": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 7154437704795913392, "workload": "adpcm"}',
    "0727201a6cd4bfdec0eb180de01998e6ecc9dec3c0ded5d9809bbb1b356f77a1": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 2077169698657866656, "workload": "adpcm"}',
    "b9a1f58fbfff6f05a61b1160e4aeb447648f9fa2985cb702755c8db4db35ade1": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 2768545318656780450, "workload": "adpcm"}',
    "8490267adef3f72b433629a5711c58ffe1ded0f6d54a0ad16b3a00f89424eaeb": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 8057108420966028185, "workload": "adpcm"}',
    "0c37291d1c451ec5006d5d20989952cbc74f162d71ea524b9f191371194bde06": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 48563862895646263, "workload": "synthetic:uniform,vars=8,length=64"}',
    "d67f2fa25983488f622d60643357e713d0a9dfa127f739f7c335fd7046e0c19f": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 7574495229982081901, "workload": "synthetic:uniform,vars=8,length=64"}',
    "5fae5d913a57c06a87a256f9a6bdd1328a8964b2b348e13f43322f8732e224fa": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 7351667880583433390, "workload": "synthetic:uniform,vars=8,length=64"}',
    "76ecb5d149b14751bacbb505bade3e1411f695f7a066dd8d0596b701c3f9e084": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["DMA-SR", {}], "scrub_interval": null, "seed": 4315938159125732496, "workload": "synthetic:uniform,vars=8,length=64"}',
    "b4b7627b108d6b74927be1b0af816f6cbbaefdc4564653d11705646897419c7b": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": null, "seed": 2794980811785498147, "workload": "synthetic:uniform,vars=8,length=64"}',
    "2bfaa11227a2fdf2c318c6ccef2c0415fa1ca6644ae88c0f4c332e1d85113d9d": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": null, "policy": ["RW", {"iterations": 132}], "scrub_interval": null, "seed": 2568023004994447682, "workload": "synthetic:uniform,vars=8,length=64"}',
    # The same cells with fault_rate=0.01, scrub_interval=64.
    "0b81225d5cba3414f70e2209952e22c8b43d7c7cf040bd4e2674032551bf1670": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 5765488047046174020, "workload": "adpcm"}',
    "6c26fba1d013c4324ce7973ccdadd712b7c6a5c90b556bbe6c3ac3346d7e0865": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 8275336682942969161, "workload": "adpcm"}',
    "376641916c0cab54babd62aa7b3b4b3081d0ec5c52de66a6a3abdc048110d7a7": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 7154437704795913392, "workload": "adpcm"}',
    "9867a1ec5346f16c9e1700f4e46838ea3bb8462e119f6c94eea495da4cf8e3be": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 2077169698657866656, "workload": "adpcm"}',
    "9ad4a766a5edbd175df0d997723a8cd57e6446188c6c2edd312c5140a7663ac6": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 2768545318656780450, "workload": "adpcm"}',
    "70f7867f5b400d0f5b691df751ecab18e365ab2a2d846c911f2c6b76533f4356": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 8057108420966028185, "workload": "adpcm"}',
    "93da11357c7cd9dffdb02773360eb0e48ee966f623b91a9740191cfa6eb487eb": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 48563862895646263, "workload": "synthetic:uniform,vars=8,length=64"}',
    "31e5ceec674c61656e70a4c9ab1856b60d23a5094afb1594c700ba6aa85e3983": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 7574495229982081901, "workload": "synthetic:uniform,vars=8,length=64"}',
    "c7fff59cc956f515d5f119f4b2c5e1615619cd353d90d3e148169b9ce29fb733": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 2, "domains_per_track": 512, "ports_per_track": 1, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 7351667880583433390, "workload": "synthetic:uniform,vars=8,length=64"}',
    "43d1266b69f084889b1e4e0b65a93f215ef615daa87af8f4239a8800fa19e07b": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["DMA-SR", {}], "scrub_interval": 64, "seed": 4315938159125732496, "workload": "synthetic:uniform,vars=8,length=64"}',
    "06c827dabb0855ce217ecbb77136aa0e1684b459c964520ee5651b2700eddbbd": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["GA", {"generations": 10, "lam": 12, "mu": 12, "patience": 5}], "scrub_interval": 64, "seed": 2794980811785498147, "workload": "synthetic:uniform,vars=8,length=64"}',
    "93d246c02037c17c36ae687c648710e1ca327421f145c307b1b8e772b1df9d42": '{"backend": "numpy", "config": {"banks": 1, "dbcs": 4, "domains_per_track": 64, "ports_per_track": 2, "subarrays": 1, "tracks_per_dbc": 32}, "context": {"scale": 0.12, "seed": 7, "write_ratio": 0.25}, "fault": {"dbc_skew": null, "rate": 0.01, "seed": 7}, "policy": ["RW", {"iterations": 132}], "scrub_interval": 64, "seed": 2568023004994447682, "workload": "synthetic:uniform,vars=8,length=64"}',
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
