"""Protein/annotation ingestion: parsing, label vocabularies, encoding.

Input formats
-------------
TSV: one record per line, ``accession<TAB>sequence<TAB>annotations`` where
annotations is a ``;``-separated list of ``GO:NNNNNNN|ASPECT`` entries
(ASPECT in {BP, MF, CC}); the third column may be empty. ``#`` lines are
comments.

FASTA + TSV: a FASTA file (headers carry the accession, bodies may wrap)
plus a companion annotation TSV ``accession<TAB>GO:NNNNNNN<TAB>ASPECT``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from .manifest import atomic_open

# 20 standard amino acids plus the ambiguity/rare codes B, O, U, X, Z
# (25 letters total, matching the 30-symbol token space below)
RESIDUE_ALPHABET = "".join(sorted(set("ACDEFGHIKLMNPQRSTVWY") | set("BOUXZ")))

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
MASK_ID = 3
UNK_ID = 4

TOKEN_VOCAB = {"<pad>": PAD_ID, "<cls>": CLS_ID, "<sep>": SEP_ID, "<mask>": MASK_ID, "<unk>": UNK_ID}
for _i, _c in enumerate(RESIDUE_ALPHABET):
    TOKEN_VOCAB[_c] = 5 + _i
VOCAB_SIZE = len(TOKEN_VOCAB)  # 30

_GO_RE = re.compile(r"^GO:\d{7}$")
_DROP_RESIDUES = str.maketrans("", "", RESIDUE_ALPHABET)


class IngestError(ValueError):
    pass


class GoAspect(enum.Enum):
    BP = "BP"
    MF = "MF"
    CC = "CC"

    @classmethod
    def parse(cls, text: str) -> "GoAspect":
        try:
            return cls(text)
        except ValueError:
            raise IngestError(f"unknown aspect '{text}' (expected BP, MF or CC)") from None


ASPECTS = (GoAspect.BP, GoAspect.MF, GoAspect.CC)


@dataclass(frozen=True)
class ProteinRecord:
    accession: str
    sequence: str
    annotations: frozenset  # of (go_id, GoAspect)

    def terms(self, aspect: GoAspect) -> set:
        return {go for go, a in self.annotations if a is aspect}


@dataclass(frozen=True)
class LabelVocabulary:
    aspect: GoAspect
    terms: tuple
    counts: tuple

    def __len__(self):
        return len(self.terms)

    def index(self) -> dict:
        return {t: i for i, t in enumerate(self.terms)}


@dataclass
class TokenSequence:
    ids: list
    original_length: int


def _check_sequence(seq: str, line_no: int) -> str:
    seq = seq.upper()
    if not seq:
        raise IngestError(f"empty sequence at line {line_no}")
    unknown = seq.translate(_DROP_RESIDUES)
    if unknown:
        raise IngestError(f"unknown residue '{unknown[0]}' at line {line_no}")
    return seq


def _parse_annotation_entry(entry: str, line_no: int):
    parts = entry.split("|")
    if len(parts) != 2:
        raise IngestError(f"malformed annotation '{entry}' at line {line_no}")
    go_id, aspect = parts
    if not _GO_RE.match(go_id):
        raise IngestError(f"malformed GO id '{go_id}' at line {line_no}")
    return go_id, GoAspect.parse(aspect)


def parse_tsv(path) -> list:
    """Parse the primary TSV format into ProteinRecords."""
    records = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise IngestError(f"malformed line {line_no}: expected 3 tab-separated columns, got {len(cols)}")
            accession, seq, ann_col = cols
            if not accession:
                raise IngestError(f"empty accession at line {line_no}")
            if accession in seen:
                raise IngestError(f"duplicate accession '{accession}' at line {line_no}")
            seen.add(accession)
            seq = _check_sequence(seq, line_no)
            annotations = set()
            if ann_col:
                for entry in ann_col.split(";"):
                    if entry:
                        annotations.add(_parse_annotation_entry(entry, line_no))
            records.append(ProteinRecord(accession, seq, frozenset(annotations)))
    return records


def parse_fasta(path) -> list:
    """Parse a FASTA file into (accession, sequence) pairs, order preserved."""
    entries = []
    accession = None
    chunks = []
    start_line = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith(">"):
                if accession is not None:
                    entries.append((accession, _check_sequence("".join(chunks), start_line)))
                accession = line[1:].split()[0] if len(line) > 1 else ""
                if not accession:
                    raise IngestError(f"empty FASTA header at line {line_no}")
                chunks = []
                start_line = line_no
            else:
                if accession is None:
                    raise IngestError(f"sequence data before any FASTA header at line {line_no}")
                chunks.append(line)
    if accession is not None:
        entries.append((accession, _check_sequence("".join(chunks), start_line)))
    return entries


def parse_fasta_tsv(fasta_path, annotations_path) -> list:
    """Combine a FASTA file with a companion one-annotation-per-line TSV."""
    entries = parse_fasta(fasta_path)
    seen = set()
    for accession, _ in entries:
        if accession in seen:
            raise IngestError(f"duplicate accession '{accession}' in {fasta_path}")
        seen.add(accession)
    by_accession = {a: set() for a, _ in entries}
    with open(annotations_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise IngestError(f"malformed annotation line {line_no}: expected 3 columns")
            accession, go_id, aspect = cols
            if accession not in by_accession:
                raise IngestError(f"annotation for unknown accession '{accession}' at line {line_no}")
            if not _GO_RE.match(go_id):
                raise IngestError(f"malformed GO id '{go_id}' at line {line_no}")
            by_accession[accession].add((go_id, GoAspect.parse(aspect)))
    return [ProteinRecord(a, s, frozenset(by_accession[a])) for a, s in entries]


def filter_unannotated(records) -> list:
    return [r for r in records if r.annotations]


def build_vocabulary(records, aspect: GoAspect, k: int) -> LabelVocabulary:
    counts = {}
    for record in records:
        for go_id, a in record.annotations:
            if a is aspect:
                counts[go_id] = counts.get(go_id, 0) + 1
    if len(counts) < k:
        raise IngestError(
            f"cannot build a top-{k} vocabulary for {aspect.value}: only {len(counts)} distinct terms available"
        )
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return LabelVocabulary(
        aspect=aspect,
        terms=tuple(t for t, _ in ranked),
        counts=tuple(c for _, c in ranked),
    )


def encode_labels(record: ProteinRecord, vocab: LabelVocabulary) -> np.ndarray:
    present = record.terms(vocab.aspect)
    return np.array([1 if t in present else 0 for t in vocab.terms], dtype=np.int8)


def tokenize(sequence: str, max_len: int = 1000) -> TokenSequence:
    if not sequence:
        raise IngestError("cannot tokenize an empty sequence")
    ids = [CLS_ID]
    for ch in sequence[:max_len]:
        tid = TOKEN_VOCAB.get(ch.upper())
        if tid is None:
            raise IngestError(f"unknown residue '{ch}'")
        ids.append(tid)
    ids.append(SEP_ID)
    return TokenSequence(ids=ids, original_length=len(sequence))


def write_vocabulary(vocab: LabelVocabulary, path) -> None:
    with atomic_open(path) as fh:
        for rank, (term, count) in enumerate(zip(vocab.terms, vocab.counts), start=1):
            fh.write(f"{rank}\t{term}\t{count}\n")


def read_vocabulary(path, aspect: GoAspect) -> LabelVocabulary:
    terms, counts = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                _, term, count = line.split("\t")
                counts.append(int(count))
            except ValueError:
                raise IngestError(f"malformed vocabulary line {line_no} in {path}: "
                                  "expected rank, GO id and count") from None
            terms.append(term)
    return LabelVocabulary(aspect=aspect, terms=tuple(terms), counts=tuple(counts))
