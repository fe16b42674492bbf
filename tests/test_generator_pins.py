"""Pinned output of the synthetic workload generator.

``generate_trace`` must stay bit-identical: every figure, benchmark and
stored trace artifact starts from it, and the trace store keys an
artifact by config, seed and format version only, not by the
generator's code.  Each case below pins a SHA-256 prefix of every array
column of the generated :class:`~repro.traces.Trace` and of both name
tables.  The literals were recorded from the generator as it stood
before it drew by group and emitted canonical accesses, so any change
to a draw, to the draw order or to the access expansion fails here.

Columns are hashed by value (integers as little-endian int64, floats as
little-endian float64), so narrowing a column's dtype alone does not
move its pin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workload.calibration import (
    default_config,
    paper_config,
    small_config,
    tiny_config,
)
from repro.workload.generator import generate_trace
from repro.workload.store import TRACE_ARRAY_COLUMNS

#: Preset name -> config factory.
CONFIGS = {
    "tiny": tiny_config,
    "small": small_config,
    "default": default_config,
    "paper/4": lambda: paper_config().scaled(0.25),
}


def column_digest(values: np.ndarray) -> str:
    """16-hex-digit SHA-256 prefix of a column's values."""
    values = np.asarray(values)
    wide = "<f8" if values.dtype.kind == "f" else "<i8"
    blob = np.ascontiguousarray(values, dtype=wide).tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def names_digest(names) -> str:
    """16-hex-digit SHA-256 prefix of a name table."""
    return hashlib.sha256("\0".join(names).encode("utf-8")).hexdigest()[:16]


def trace_digests(trace) -> dict[str, str]:
    """Digest of every array column and of both name tables."""
    out = {name: column_digest(getattr(trace, name)) for name in TRACE_ARRAY_COLUMNS}
    out["site_names"] = names_digest(trace.site_names)
    out["domain_names"] = names_digest(trace.domain_names)
    return out


#: Case ``preset@seed`` -> digest of each column, recorded before the
#: generator drew by group.
PINS = {
    "tiny@0": {
        "access_files": "1c65ebff3c52d40b",
        "access_jobs": "06e7b70ee51660bd",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "133c16484448493d",
        "file_sizes": "9561d485f54d6ba2",
        "file_tiers": "34f68d829860531f",
        "job_ends": "6cd9ce257d39c5d4",
        "job_labels": "8f8522eefa8d6a82",
        "job_nodes": "3258d124c0ff71d9",
        "job_starts": "3ecdeaa39a6d38f9",
        "job_tiers": "f26a7f86c3b2c92a",
        "job_users": "3258d124c0ff71d9",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "af5570f5a1810b7a",
    },
    "tiny@1": {
        "access_files": "10dc60977c24aadb",
        "access_jobs": "8a774058007c1347",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "133c16484448493d",
        "file_sizes": "2ae1d5b4ab8aed49",
        "file_tiers": "34f68d829860531f",
        "job_ends": "716d4cf6fc7e44ef",
        "job_labels": "8f8522eefa8d6a82",
        "job_nodes": "3258d124c0ff71d9",
        "job_starts": "d2e538c02681206a",
        "job_tiers": "eec2006f653c53a1",
        "job_users": "3258d124c0ff71d9",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "af5570f5a1810b7a",
    },
    "tiny@7": {
        "access_files": "ba2653eae4487fe4",
        "access_jobs": "95a23c687b97060e",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "133c16484448493d",
        "file_sizes": "d0d7492c54167739",
        "file_tiers": "34f68d829860531f",
        "job_ends": "c51101288db42f6c",
        "job_labels": "8f8522eefa8d6a82",
        "job_nodes": "3258d124c0ff71d9",
        "job_starts": "7e49ac81b12b23f8",
        "job_tiers": "4529785aebd054d9",
        "job_users": "3258d124c0ff71d9",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "af5570f5a1810b7a",
    },
    "tiny@13": {
        "access_files": "8d667a0711214edd",
        "access_jobs": "d82740ede3b519ad",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "133c16484448493d",
        "file_sizes": "652e4623ef7eb467",
        "file_tiers": "34f68d829860531f",
        "job_ends": "5cf0635af4c2cd1b",
        "job_labels": "8f8522eefa8d6a82",
        "job_nodes": "3258d124c0ff71d9",
        "job_starts": "3f530208af0f68b7",
        "job_tiers": "dabf81e2126797e4",
        "job_users": "3258d124c0ff71d9",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "af5570f5a1810b7a",
    },
    "small@0": {
        "access_files": "22d5e37361c9bbe4",
        "access_jobs": "61e1377181fb8522",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "6850f2cd3dcda963",
        "file_sizes": "4264f71641187df8",
        "file_tiers": "6f39e9217be56b69",
        "job_ends": "b1ad8caf3fbcb0a8",
        "job_labels": "6c9c4bb71a612aa6",
        "job_nodes": "30511352dead1f74",
        "job_starts": "69cd5dd42a680fa3",
        "job_tiers": "814e069ccb7416ad",
        "job_users": "34bfc6f326c81a6c",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "20a63514f83dec26",
    },
    "small@1": {
        "access_files": "a857c1718ff87bb1",
        "access_jobs": "8a4dc2f54ca0f5b5",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "6850f2cd3dcda963",
        "file_sizes": "1ed7e32b5abfef32",
        "file_tiers": "6f39e9217be56b69",
        "job_ends": "b73e317005a4dc33",
        "job_labels": "6c9c4bb71a612aa6",
        "job_nodes": "091d6ffd8dc677cb",
        "job_starts": "687a3301cb7b4154",
        "job_tiers": "632fdf4ec30abbf7",
        "job_users": "a7f00a60e1d9a93c",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "20a63514f83dec26",
    },
    "small@7": {
        "access_files": "d8c86be595c73ee6",
        "access_jobs": "2a5eab1e1a131315",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "6850f2cd3dcda963",
        "file_sizes": "e727e11a8ac92f4f",
        "file_tiers": "6f39e9217be56b69",
        "job_ends": "8010f34f6c17d628",
        "job_labels": "6c9c4bb71a612aa6",
        "job_nodes": "5675292ee3477581",
        "job_starts": "6f8a40c1bc13d104",
        "job_tiers": "a7878bf7611e90d7",
        "job_users": "1c04841510f5a2cc",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "20a63514f83dec26",
    },
    "small@13": {
        "access_files": "75af5915464ef92c",
        "access_jobs": "235827793e43c959",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "6850f2cd3dcda963",
        "file_sizes": "8d50837fbd2ddd9c",
        "file_tiers": "6f39e9217be56b69",
        "job_ends": "7b6b88e072f0e0e1",
        "job_labels": "6c9c4bb71a612aa6",
        "job_nodes": "32a7a08c7622e477",
        "job_starts": "a44fa66d8584247c",
        "job_tiers": "96a348826c56bde6",
        "job_users": "2990dc16be4fc594",
        "node_domains": "700a4498438a801b",
        "node_sites": "700a4498438a801b",
        "site_names": "b6f09ccaef045c05",
        "user_domains": "20a63514f83dec26",
    },
    "default@0": {
        "access_files": "ab6df1a0f6b7b5ec",
        "access_jobs": "8aa60b85c6a84c41",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "c6a30001f0b146ae",
        "file_sizes": "d8bf4ea48ca2b3d7",
        "file_tiers": "6d1e1e45182f6af7",
        "job_ends": "9da4a35184dd4a2f",
        "job_labels": "a84953b9f340e412",
        "job_nodes": "0d4b64e0b06832bf",
        "job_starts": "1c0bd2711d4f576b",
        "job_tiers": "97853d054ba3ca8e",
        "job_users": "88cad38077ccf567",
        "node_domains": "41063306398efb8b",
        "node_sites": "47918d885ab9086e",
        "site_names": "16a4157c760d1980",
        "user_domains": "4fa0925a70e60480",
    },
    "default@1": {
        "access_files": "7857b53e78756a1a",
        "access_jobs": "afc905e8d2699818",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "c6a30001f0b146ae",
        "file_sizes": "c1035c22517e5733",
        "file_tiers": "6d1e1e45182f6af7",
        "job_ends": "5aedbb3790d3cbaf",
        "job_labels": "a84953b9f340e412",
        "job_nodes": "0c343f90c9e469ee",
        "job_starts": "b8ee165a8d9d735d",
        "job_tiers": "fa09bec35979c06e",
        "job_users": "9b34e93371bdba39",
        "node_domains": "41063306398efb8b",
        "node_sites": "47918d885ab9086e",
        "site_names": "16a4157c760d1980",
        "user_domains": "4fa0925a70e60480",
    },
    "default@7": {
        "access_files": "dc7ae64fc8ab3461",
        "access_jobs": "71af97a455eca1a0",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "c6a30001f0b146ae",
        "file_sizes": "4d7797e8ff22ae05",
        "file_tiers": "6d1e1e45182f6af7",
        "job_ends": "70a49f7dd7da6941",
        "job_labels": "a84953b9f340e412",
        "job_nodes": "2978fb512d9fb12c",
        "job_starts": "041e906070a55875",
        "job_tiers": "ba03a357780db1f2",
        "job_users": "11de27ad38ea0efd",
        "node_domains": "41063306398efb8b",
        "node_sites": "47918d885ab9086e",
        "site_names": "16a4157c760d1980",
        "user_domains": "4fa0925a70e60480",
    },
    "default@13": {
        "access_files": "336cd663789ce8ca",
        "access_jobs": "bc20f6cc9e05f733",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "c6a30001f0b146ae",
        "file_sizes": "7bd64fb46a84cff5",
        "file_tiers": "6d1e1e45182f6af7",
        "job_ends": "4dcc14e5d66639a7",
        "job_labels": "a84953b9f340e412",
        "job_nodes": "b3d58c2415b11be1",
        "job_starts": "3243f498ae74bddc",
        "job_tiers": "37646497e3307d17",
        "job_users": "2e10df2f843742c2",
        "node_domains": "41063306398efb8b",
        "node_sites": "47918d885ab9086e",
        "site_names": "16a4157c760d1980",
        "user_domains": "4fa0925a70e60480",
    },
    "paper/4@7": {
        "access_files": "27309a5c96c7c1cd",
        "access_jobs": "b5b383862cdce5e9",
        "domain_names": "ffd21c424d848d0f",
        "file_datasets": "163fbc853473363a",
        "file_sizes": "b29dbe8b5cf66671",
        "file_tiers": "f8be7149d6bf4d98",
        "job_ends": "bcf54b0be3d5560c",
        "job_labels": "4b75c759969e6404",
        "job_nodes": "9e150b49b98488dc",
        "job_starts": "52ea7b3aae3163fc",
        "job_tiers": "63521da479b00564",
        "job_users": "7997ed2ef20608bd",
        "node_domains": "f94cfc1aed8d680d",
        "node_sites": "94b0895e093715ea",
        "site_names": "667295806c3f47cb",
        "user_domains": "c54ddaacefa961f0",
    },
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_generated_trace_matches_pin(case):
    preset, seed = case.split("@")
    trace = generate_trace(CONFIGS[preset](), seed=int(seed))
    assert trace_digests(trace) == PINS[case]
