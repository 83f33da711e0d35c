"""The benchmark in perfbench/ finds its per-layer metrics by the names of
protgo's functions and methods. These tests install its tracer in a fresh
interpreter and check that every metric it declares still has a name to read,
so a rename or removal fails here rather than in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import protgo, layers, tracer, workloads
tr = tracer.Tracer()
tracer.install(tr, protgo)
print(json.dumps({
    "declared": [row.metric for row in layers.ROWS],
    "emitted": [row.metric for row, _, _ in layers.emitted_rows(tr)],
    "absent_sites": sorted({s for w in workloads.WORKLOADS.values() for s in w.expected_sites
                            if s not in tr.sites}),
}))
"""

# expected sites the program had already dropped when this test was written;
# the traced run reports them as absent and reads no metric from them
ABSENT_BEFORE = {"fusion.sigmoid", "fusion.pad_batch"}


def _probe():
    out = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_every_per_layer_row_is_emitted_and_every_expected_site_exists():
    found = _probe()
    assert set(found["declared"]) - set(found["emitted"]) == set()
    assert set(found["absent_sites"]) <= ABSENT_BEFORE
