"""Every output goes through `manifest.atomic_open`: a write that fails
halfway leaves the old file and no temp file, and no other code creates
output files."""

import ast
from pathlib import Path

import numpy as np
import pytest

import protgo
from protgo import cli, fusion, ingest, manifest, metrics, splitter
from conftest import random_corpus


class _NoTerms:
    """Stands in for a FusionModel: every query gets the empty prediction set."""

    def predict(self, sequence, accession):
        return fusion.Prediction(accession=accession, scores={}, predicted_terms=[])


def _predictions(out):
    query = out.parent / "q.tsv"
    query.write_text("Q1\tMKV\nQ2\tMKVL\n")
    return lambda: fusion.predict_batch(query, _NoTerms(), out / "predictions.tsv")


def _roc_curve():
    return metrics.micro_roc(np.array([[0.2, 0.9], [0.7, 0.1]]), np.array([[0, 1], [1, 0]]))


def _length_report():
    return metrics.length_analysis([10, 400], np.array([[0.2, 0.9], [0.7, 0.1]]), np.array([[0, 1], [1, 0]]), 0.5)


WRITERS = {
    "records": lambda out: lambda: cli._write_records(random_corpus(5), out / "records.tsv"),
    "vocabulary": lambda out: lambda: ingest.write_vocabulary(
        ingest.build_vocabulary(random_corpus(20), ingest.GoAspect.BP, 3), out / "vocab_BP.tsv"),
    "dataset-json": lambda out: lambda: manifest.write_json(out / "dataset.json", {"top_k": 3}),
    "split": lambda out: lambda: splitter.write_split(splitter.random_split([f"P{i}" for i in range(20)], 0), out),
    "roc": lambda out: lambda: metrics.write_roc_csv(_roc_curve(), out / "roc_BP.csv"),
    "sla": lambda out: lambda: metrics.write_sla_csv(_length_report(), out / "sla_BP.csv"),
    "report": lambda out: lambda: metrics.write_report_json({"BP": {"f1": 0.5}}, out / "report.json"),
    "predictions": _predictions,
    "manifest": lambda out: lambda: manifest.write_manifest(out, "split", {}, 0, {}, [], 0.0),
}


@pytest.mark.parametrize("make_writer", WRITERS.values(), ids=WRITERS.keys())
def test_a_failed_write_keeps_the_old_files(tmp_path, half_writes, make_writer):
    out = tmp_path / "out"
    out.mkdir()
    write = make_writer(out)
    write()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    half_writes()
    with pytest.raises(OSError, match="no space"):
        write()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# ---------------------------------------------------------------------------
# guard: one function creates output files
# ---------------------------------------------------------------------------

READ_MODES = {"r", "rb", "rt"}
FILE_CREATORS = {"fdopen", "write_text", "write_bytes", "tofile", "mkstemp", "NamedTemporaryFile"}


class _FileWrites(ast.NodeVisitor):
    """Collects (function, call) for every call that may create or change a
    file: an `open` whose mode is not a read-only literal, and any tempfile,
    `os.fdopen` or pathlib/numpy file-writing call."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Import(self, node):
        if any(alias.name == "tempfile" for alias in node.names):
            self.found.append((self.scope[-1], "import tempfile"))

    def visit_ImportFrom(self, node):
        if node.module == "tempfile":
            self.found.append((self.scope[-1], "from tempfile import"))

    def visit_Call(self, node):
        name = ast.unparse(node.func)
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "open":
            # a method such as Path.open takes the mode first
            at = 1 if name in ("open", "io.open", "os.open") else 0
            mode = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and mode.value in READ_MODES):
                self.found.append((self.scope[-1], f"{name}(..., {ast.unparse(mode)})"))
        elif leaf in FILE_CREATORS or name.startswith("tempfile."):
            self.found.append((self.scope[-1], name))
        self.generic_visit(node)


def test_only_the_atomic_writer_creates_files():
    outside = []
    for path in sorted(Path(protgo.__file__).parent.glob("*.py")):
        scan = _FileWrites()
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        for function, call in scan.found:
            if (path.name, function) != ("manifest.py", "atomic_open"):
                outside.append((path.name, function, call))
    # the loss CSV is the one append log: its header and any rows kept on
    # resume are written by atomic_open first
    assert outside == [("cli.py", "_train_one_aspect", "open(..., 'a')")], outside
