"""Fixed-point output pinned bit for bit on a subsample of the robustness grid.

`scripts/fixed_point_digests.py` digests, per scenario of acceptance
criterion 2's grid, the `solve_coupled` report (state, trace, iterations,
residual, rates and every solution's fields) and its `evaluate_fixed_point`
metrics at full precision. `fixed_point_golden.json` holds every 50th
scenario of each lane; each is solved again here and must give the same
digest. Regenerate it with

    PYTHONPATH=src python scripts/fixed_point_digests.py --stride 50 --golden

only for a change that is meant to alter fixed-point output.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import fixed_point_digests as fpd  # noqa: E402

GOLDEN = json.loads(fpd.GOLDEN.read_text())


def test_golden_holds_every_stride_th_scenario_of_each_lane():
    stride = GOLDEN["stride"]
    sizes = {tech: len(fpd.grid(tech)) for tech in fpd.LANES}
    assert sizes == {"cv2x": 1620, "dot11p": 1080}
    for tech, size in sizes.items():
        rows = [row for row in GOLDEN["digests"] if row["tech"] == tech]
        assert [row["index"] for row in rows] == list(range(0, size, stride))
        assert [row["params"] for row in rows] == fpd.grid(tech)[::stride]


@pytest.mark.parametrize("row", GOLDEN["digests"],
                         ids=lambda row: f"{row['tech']}-{row['index']}")
def test_fixed_point_digest_matches_golden(row):
    assert fpd.digest(row["tech"], row["params"]) == row["sha256"]
