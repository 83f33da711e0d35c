"""Time and peak memory of `splitter.cluster_sequences` at scale.

Each case runs in a fresh process, which builds its records, clusters them
once (k = 5, threshold 0.5) and reports the clustering's wall time and the
process's peak RSS (`ru_maxrss`, which includes building the records). The
sequences have 300 residues over the 20 standard amino acids.

    singletons-1e4   10⁴ unrelated sequences: every record founds a cluster
    families-1e4     10⁴ sequences in families of 5: each family is one random
                     sequence and 4 copies with about 4% of residues substituted
    families-1e5     the same with 10⁵ sequences

    PYTHONPATH=src python tests/split_scale.py
    PYTHONPATH=src python tests/split_scale.py singletons-1e4 --repeat 3

The file name keeps pytest from collecting it.
"""

import argparse
import resource
import subprocess
import sys
import time

import numpy as np

CASES = {"singletons-1e4": (10_000, 1), "families-1e4": (10_000, 5), "families-1e5": (100_000, 5)}
LENGTH = 300
RATE = 0.04


def records(n: int, family: int, seed: int = 0) -> list:
    from protgo.ingest import ProteinRecord

    rng = np.random.default_rng(seed)
    residues = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
    out = []
    for f in range(n // family):
        base = rng.choice(residues, size=LENGTH)
        for j in range(family):
            member = base.copy()
            if j:
                hit = rng.random(LENGTH) < RATE
                member[hit] = rng.choice(residues, size=int(hit.sum()))
            out.append(ProteinRecord(f"S{f * family + j:06d}", "".join(member), frozenset()))
    return out


def run_case(name: str) -> None:
    """Cluster one case in this process and print its line."""
    from protgo.splitter import cluster_sequences

    recs = records(*CASES[name])
    started = time.perf_counter()
    assignment = cluster_sequences(recs, 0.5, 5)
    seconds = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name}: {len(recs)} records, {assignment.num_clusters} clusters, "
          f"{seconds:.2f} s, peak RSS {peak_mib:.0f} MiB", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="case", help=f"any of {', '.join(CASES)} (default: all)")
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes per case")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if unknown := [name for name in args.cases if name not in CASES]:
        parser.error(f"unknown case {unknown[0]!r}")
    if args.in_process:
        run_case(args.cases[0])
        return 0
    for name in args.cases or CASES:
        for _ in range(args.repeat):
            subprocess.run([sys.executable, __file__, name, "--in-process"], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
