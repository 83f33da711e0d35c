"""The benchmark in perfbench/ finds its per-layer metrics by the names of
protgo's functions and methods. These tests install its tracer in a fresh
interpreter and check that every metric it declares still has a name to read,
and that a small pipeline with the benchmark's flags calls every binding site
its workloads expect. A rename, a removal or a site the program no longer
calls thus fails here rather than in a traced benchmark run."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import RESIDUES, random_corpus, write_corpus_tsv

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


PIPELINE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import protgo, tracer, workloads
from protgo import cli
tr = tracer.Tracer()
tracer.install(tr, protgo)
tr.enabled = True
codes = [cli.main(argv) for argv in json.loads(sys.argv[3])]
tr.enabled = False
print(json.dumps({
    "codes": codes,
    "not_hit": {name: sorted(s for s in w.expected_sites if s in tr.sites and tr.hits[s] == 0)
                for name, w in workloads.WORKLOADS.items()},
}))
"""


def _traced(steps):
    """Exit codes of the CLI commands `steps`, run under the tracer, and each
    workload's expected sites that exist but were not hit."""
    steps = [argv + ["--quiet"] for argv in steps]
    out = subprocess.run([sys.executable, "-c", PIPELINE, str(ROOT / "src"), str(ROOT / "perfbench"),
                          json.dumps(steps)], capture_output=True, text=True, check=True, timeout=120)
    found = json.loads(out.stdout)
    return found["codes"], found["not_hit"]


def _small_model(path):
    # dropout > 0 as in the default model
    path.write_text(json.dumps({"num_layers": 2, "d_model": 8, "num_heads": 2, "d_ff": 16, "dropout": 0.1}))


def test_a_pipeline_with_the_benchmark_flags_hits_every_expected_site(tmp_path):
    # mixed lengths pad every batch
    write_corpus_tsv(random_corpus(40, seed=7, go_pool=9), tmp_path / "corpus.tsv")
    (tmp_path / "queries.tsv").write_text("Q1\tMKVLAEWWKQ\nQBAD\tMKJV\nQ2\tMKVLAEWWKQRRPLAGEMKVLAEW\n")
    _small_model(tmp_path / "model.json")
    (tmp_path / "train.json").write_text(json.dumps({"epochs": 1, "batch_size": 8}))
    ds, ckpt = str(tmp_path / "ds"), str(tmp_path / "run" / "model_{aspect}.ckpt")
    train = ["--dataset", ds, "--config", str(tmp_path / "train.json")]
    steps = [
        ["preprocess", str(tmp_path / "corpus.tsv"), "--top-k", "3", "--out", ds],
        ["split", "--dataset", ds, "--kind", "clustered", "--out", str(tmp_path / "split")],
        ["pretrain", *train, "--model-config", str(tmp_path / "model.json"), "--out", str(tmp_path / "pre")],
        ["finetune", *train, "--init", str(tmp_path / "pre" / "model_{aspect}.ckpt"), "--freeze", "default",
         "--out", str(tmp_path / "run")],
        ["predict", str(tmp_path / "queries.tsv"), *(x for a in ("BP", "MF", "CC")
                                                    for x in (f"--{a.lower()}", ckpt.format(aspect=a))),
         "--vocab-dir", ds, "--out", str(tmp_path / "pred")],
        ["evaluate", "--dataset", ds, "--model", ckpt, "--batch-size", "4", "--out", str(tmp_path / "ev")],
        ["evaluate", "--dataset", ds, "--predictions", str(tmp_path / "pred" / "predictions.tsv"),
         "--threshold", "0.3", "0.7", "--out", str(tmp_path / "ev2")],
    ]
    # only similar records reach kmer_similarity: add a corpus with near-duplicates
    families = random_corpus(20, seed=3, min_len=12, max_len=40)
    families += [type(r)(f"D{i}", r.sequence, r.annotations) for i, r in enumerate(families[:5])]
    write_corpus_tsv(families, tmp_path / "families.tsv")
    steps += [
        ["preprocess", str(tmp_path / "families.tsv"), "--top-k", "3", "--out", str(tmp_path / "fam")],
        ["split", "--dataset", str(tmp_path / "fam"), "--kind", "clustered", "--out", str(tmp_path / "fam_split")],
    ]
    codes, not_hit = _traced(steps)
    assert codes == [0] * len(steps)
    assert not_hit == {name: [] for name in not_hit}


def test_training_at_the_benchmark_shape_alone_hits_every_train_site(tmp_path):
    """The train workload's lengths cut its batch into chunks, which run on the
    pool's workers; one of them must still be padded (`autodiff.add_constant`)."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    records = random_corpus(len(workloads.TRAIN_LENGTHS), seed=5, go_pool=9)
    rng = np.random.default_rng(5)
    records = [type(r)(r.accession, "".join(rng.choice(list(RESIDUES), size=n)), r.annotations)
               for r, n in zip(records, workloads.TRAIN_LENGTHS)]
    write_corpus_tsv(records, tmp_path / "corpus.tsv")
    _small_model(tmp_path / "model.json")
    (tmp_path / "train.json").write_text(json.dumps(workloads.TRAIN_CONFIG))
    ds = str(tmp_path / "ds")
    train = ["--dataset", ds, "--aspect", "BP", "--config", str(tmp_path / "train.json")]
    codes, not_hit = _traced([
        ["preprocess", str(tmp_path / "corpus.tsv"), "--top-k", "2", "--out", ds],
        ["pretrain", *train, "--model-config", str(tmp_path / "model.json"), "--out", str(tmp_path / "pre")],
        ["finetune", *train, "--init", str(tmp_path / "pre" / "model_{aspect}.ckpt"), "--freeze", "default",
         "--out", str(tmp_path / "run")],
    ])
    assert codes == [0, 0, 0]
    assert not_hit["train"] == []


# a seed of its own per workload, so the run does not overwrite the output of
# a developer's benchmark run at the usual seeds; and the stages each cycle runs
TRACED = {"annotate": (7331, {"predict", "evaluate"}),
          "train": (7332, {"pretrain", "finetune"}),
          "corpus": (7333, {"split", "evaluate"})}


@pytest.mark.parametrize("workload", list(TRACED))
def test_a_traced_run_hits_every_site_and_covers_its_cycles(workload):
    """The traced benchmark's gate at test time: every expected site patched
    and hit, every output check passed, and the layer rows cover at least 0.9
    of each timed stage. The one failure allowed is the coverage of a set-up
    preprocess stage, which reads 0.91-0.94 of its wall time, close enough to
    the bound to miss it now and then on a loaded host."""
    seed, stages = TRACED[workload]
    out = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace1"
    try:
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                       capture_output=True, text=True, check=True, timeout=300)
        found = json.loads((out / "result.json").read_text())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert [f for f in found["failures"]
            if not re.match(r"check tracer\.coverage\[setup\.\d+\.preprocess\]", f)] == []
    cycles = {run: share for run, share in found["coverage"].items() if run.startswith("cycle.")}
    assert {run.rsplit(".", 1)[1] for run in cycles} == stages
    assert all(share >= 0.9 for share in cycles.values()), cycles
    if workload == "train":
        # the tracer times backward by replacing each op output's recorded
        # closure; a backward that called some other closure would leave these 0
        metrics = found["result"]["metrics"]
        backward_rows = {name: metrics[f"autodiff.{name}.bwd_s"]["value"]
                         for name in ("matmul", "softmax", "gelu", "dropout")}
        assert all(value > 0 for value in backward_rows.values()), backward_rows
