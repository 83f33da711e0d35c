"""Independent reference implementations used to cross-check the main code."""

from collections import Counter

import numpy as np

from protgo import autodiff as ad
from protgo.fusion import FusionError, format_prediction
from protgo.ingest import TOKEN_VOCAB, IngestError, _check_sequence, encode_labels
from protgo.model import pad_batch
from protgo.splitter import ClusterAssignment

ID_TO_TOKEN = {v: k for k, v in TOKEN_VOCAB.items()}


def constant(data):
    """A tensor that takes no gradient."""
    return ad.Tensor(data)


def tensor_sum(a):
    """Sum of every element, as a scalar graph node: a loss for gradient checks."""
    shape = a.shape
    return ad._make(np.array(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def detokenize(tokens):
    """Inverse of tokenize for non-truncated, unmasked sequences."""
    out = []
    for tid in tokens.ids[1:-1]:
        sym = ID_TO_TOKEN[tid]
        if len(sym) != 1:
            raise IngestError(f"cannot detokenize special token {sym}")
        out.append(sym)
    return "".join(out)


def write_labels(records, vocab, path):
    """The labels_<aspect>.tsv file preprocess once wrote: one line per record
    with a term of the vocabulary's aspect, the accession and the label bits."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            if r.terms(vocab.aspect):
                bits = encode_labels(r, vocab)
                fh.write(r.accession + "\t" + "".join(str(int(b)) for b in bits) + "\n")


def finite_difference_grads(loss_fn, arrays, h=1e-5, sample=None, rng=None):
    """Central finite differences of loss_fn() w.r.t. entries of `arrays`
    (a dict name -> np.ndarray, mutated in place). When `sample` is given,
    only that many entries per array are probed (seeded by rng)."""
    grads = {}
    for name, arr in arrays.items():
        flat = arr.ravel()
        if sample is not None and rng is not None:
            idxs = rng.choice(flat.size, size=min(sample, flat.size), replace=False)
        else:
            idxs = range(flat.size)
        fd = {}
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            fd[int(i)] = (lp - lm) / (2 * h)
        grads[name] = fd
    return grads


def relative_error(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def pairwise_auc(scores, bits):
    """AUC as P(score+ > score-) + 0.5 P(tie), all positive/negative pairs."""
    scores = np.asarray(scores, dtype=float).ravel()
    bits = np.asarray(bits, dtype=bool).ravel()
    pos = scores[bits]
    neg = scores[~bits]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("pairwise AUC needs both classes")
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def roc_points_loop(scores, bits):
    """(fpr, tpr, thresholds, auc) by the original per-tie-group loop: sort
    by descending score (stable), step once per run of equal scores, and sum
    the trapezoids one by one."""
    scores = np.asarray(scores, dtype=float).ravel()
    bits = np.asarray(bits, dtype=bool).ravel()
    n_pos = int(bits.sum())
    n_neg = bits.size - n_pos
    order = np.argsort(-scores, kind="stable")
    s, b = scores[order], bits[order]
    fpr, tpr, thresholds = [0.0], [0.0], [float("inf")]
    tp = fp = i = 0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            j += 1
        tp += int(b[i:j].sum())
        fp += (j - i) - int(b[i:j].sum())
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        thresholds.append(float(s[i]))
        i = j
    auc = sum((fpr[k + 1] - fpr[k]) * (tpr[k + 1] + tpr[k]) / 2.0 for k in range(len(fpr) - 1))
    return fpr, tpr, thresholds, auc


def recount_terms(records, aspect):
    """Brute-force per-term annotation counts for one aspect."""
    counts = {}
    for r in records:
        for go, a in r.annotations:
            if a is aspect:
                counts[go] = counts.get(go, 0) + 1
    return counts


def kmer_multiset(sequence, k):
    return Counter(sequence[i : i + k] for i in range(len(sequence) - k + 1))


def kmer_similarity(a, b, k):
    """Shared k-mer multiset size over the k-mer count of the shorter
    sequence, from Counters of the k-mer strings."""
    if len(a) > len(b):
        a, b = b, a
    n_short = len(a) - k + 1
    if n_short <= 0:
        return 0.0
    shared = sum((kmer_multiset(a, k) & kmer_multiset(b, k)).values())
    return shared / n_short


def cluster_sequences_pairwise(records, identity_threshold, kmer):
    """Greedy clustering as cluster_sequences defines it, with no index: each
    record, longest first, is compared with every representative in founding
    order and joins the first whose kmer_similarity reaches the threshold."""
    ordered = sorted(records, key=lambda r: (-len(r.sequence), r.accession))
    cluster_of = {}
    representative = {}
    rep_seqs = []  # (cluster id, sequence), in founding order
    for record in ordered:
        placed = False
        for cid, rep_seq in rep_seqs:
            if kmer_similarity(record.sequence, rep_seq, kmer) >= identity_threshold:
                cluster_of[record.accession] = cid
                placed = True
                break
        if not placed:
            cid = len(representative)
            representative[cid] = record.accession
            cluster_of[record.accession] = cid
            rep_seqs.append((cid, record.sequence))
    return ClusterAssignment(cluster_of=cluster_of, representative=representative)


def layer_norm_ref(x, eps=1e-12):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def score_one_at_a_time(model, tokens):
    """Sigmoid label scores the way predict computed them before batched
    inference: each sequence padded on its own, the forward pass run with the
    autodiff graph on, then the sigmoid."""
    rows = []
    for t in tokens:
        ids, mask = pad_batch([t])
        rows.append(ad.sigmoid(model.forward_classify(ids, mask).data[0]))
    return np.stack(rows)


def encoder_layer_out_of_place(self, x, i, pad_mask, drop_rng=None):
    """ProteinEncoder.encoder_layer as it was before attention wrote into
    one buffer: q·kᵀ, the scaled scores, the biased scores and the
    probabilities are four arrays."""
    c = self.config
    p = self.params
    pre = f"layer_{i}."
    B, L, _ = x.shape
    dh = c.d_model // c.num_heads

    q = self._split_heads(ad.add(ad.matmul(x, p[pre + "wq"]), p[pre + "bq"]), B, L)
    k = self._split_heads(ad.add(ad.matmul(x, p[pre + "wk"]), p[pre + "bk"]), B, L)
    v = self._split_heads(ad.add(ad.matmul(x, p[pre + "wv"]), p[pre + "bv"]), B, L)

    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    if not pad_mask.all():  # without padding the key bias is all zeros
        scores = ad.add_constant(scores, (1.0 - pad_mask)[:, None, None, :] * -1e30)
    attn = ad.softmax(scores, axis=-1)
    ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (B, L, c.d_model))
    attn_out = ad.add(ad.matmul(ctx, p[pre + "wo"]), p[pre + "bo"])
    if drop_rng is not None and c.dropout > 0:
        attn_out = ad.dropout(attn_out, c.dropout, drop_rng)
    h = ad.layer_norm(ad.add(x, attn_out), p[pre + "ln1_gamma"], p[pre + "ln1_beta"])

    ff = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(h, p[pre + "ffn_w1"]), p[pre + "ffn_b1"])),
                          p[pre + "ffn_w2"]), p[pre + "ffn_b2"])
    if drop_rng is not None and c.dropout > 0:
        ff = ad.dropout(ff, c.dropout, drop_rng)
    return ad.layer_norm(ad.add(h, ff), p[pre + "ln2_gamma"], p[pre + "ln2_beta"])


def predict_batch_serial(input_path, fusion, output_path, diagnostics=None):
    """fusion.predict_batch as it was before the scoring pool: each line is
    parsed, scored and written in turn, on the calling thread."""
    processed = 0
    with open(input_path, "r", encoding="utf-8") as infh, open(output_path, "w", encoding="utf-8") as outfh:
        for line_no, line in enumerate(infh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                cols = line.split("\t")
                if len(cols) not in (2, 3):
                    raise IngestError(f"expected 2 or 3 tab-separated columns, got {len(cols)}")
                if not cols[0]:
                    raise IngestError("empty accession")
                pred = fusion.predict(_check_sequence(cols[1], line_no), cols[0])
            except (IngestError, FusionError) as exc:
                if diagnostics is not None:
                    diagnostics(f"line {line_no}: {exc}")
                continue
            outfh.write(format_prediction(pred))
            processed += 1
    return processed
