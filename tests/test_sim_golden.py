"""802.11p simulator output pinned byte for byte.

Each case runs one 10 s `run_replication` with a trace sink and compares two
SHA-256 digests against `dot11p_golden.json`: one of `vars(stats)` as JSON
with sorted keys, one of the trace in the `--trace` line format. The cases
cover AIFSN 6 and 9 at C_min = 15, a C_min = 63 corner (a countdown outlasts
tx_slots + Omega) and an AIFSN = 2, C_min = 3 corner.

Regenerate the digests with `PYTHONPATH=src python tests/test_sim_golden.py`,
only for a change that is meant to alter simulator output.
"""
import hashlib
import json
from pathlib import Path

import pytest

from v2xmac.config import Dot11pParams, ScenarioConfig
from v2xmac.sim.dot11p import run_replication

GOLDEN = Path(__file__).with_name("dot11p_golden.json")
DURATION_S = 10.0
SEEDS = range(1, 6)
CASES = ([(n, aifsn, 15, seed) for aifsn in (6, 9) for n in (10, 50) for seed in SEEDS]
         + [(300, aifsn, 15, seed) for aifsn in (6, 9) for seed in (1, 2)]
         + [(n, aifsn, c_min, seed) for aifsn, c_min in ((6, 63), (2, 3))
            for n in (10, 50) for seed in SEEDS]
         + [(300, aifsn, c_min, 1) for aifsn, c_min in ((6, 63), (2, 3))])


def case_id(n, aifsn, c_min, seed):
    return f"n{n}-aifsn{aifsn}-cmin{c_min}-seed{seed}"


def digests(n, aifsn, c_min, seed):
    s = ScenarioConfig(tech="dot11p", n=n,
                       dot11p=Dot11pParams(aifsn=aifsn, c_min=c_min)).validate()
    trace = hashlib.sha256()

    def sink(t_us, vid, event, detail):
        trace.update(f"{t_us},{vid},{event},{detail}\n".encode())

    stats = run_replication(s, seed, 0, DURATION_S, trace=sink)
    record = json.dumps(vars(stats), sort_keys=True).encode()
    return {"stats": hashlib.sha256(record).hexdigest(), "trace": trace.hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=[case_id(*c) for c in CASES])
def test_replication_matches_golden_digests(case, golden):
    assert digests(*case) == golden[case_id(*case)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case_id(*c): digests(*c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
