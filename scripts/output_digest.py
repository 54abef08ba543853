#!/usr/bin/env python3
"""Print one SHA-256 per benchmark workload over the outputs of its operations.

    python3 scripts/output_digest.py [--seed N] [--workload W]

Builds each workload's seeded input pool as ``perfbench/run.py`` does,
runs every operation of the pool once and hashes what it returned:
solver results (status, iterations, t*, transformer, extremisers and the
polytope report), rounding reports with every intermediate frame, and
for cli-roundtrip each command's exit code, stdout and stderr and the
files its ``--out`` wrote.  Floats are hashed bit for bit, so two
checkouts that print the same digest gave the same outputs on every
input.  Each line also counts the operations that raised or failed the
benchmark's own check; the exit code is 1 when any did.

The CLI reports echo their input and output paths, so the pool is built
under the fixed relative directory ``cli-roundtrip`` of a fresh
temporary working directory, and the paths read the same wherever the
checkout lies.
"""

import os

# One BLAS thread, as in perfbench/run.py: a threaded reduction may add
# its terms in another order, and the digests compare bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402


def canonical(obj):
    """``obj`` as JSON-ready values that fix every bit of it: floats as hex,
    arrays as dtype, shape and raw bytes, dataclasses field by field."""
    if dataclasses.is_dataclass(obj):
        fields = {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return [type(obj).__name__, fields]
    if isinstance(obj, np.ndarray):
        return [str(obj.dtype), list(obj.shape), np.ascontiguousarray(obj).tobytes().hex()]
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot hash {type(obj).__name__}")


def _out_files(item) -> dict:
    """The text of the files the CLI wrote for ``item``, read before the
    benchmark's check removes them."""
    texts = {}
    for key in ("rif", "rounded"):
        path = item.paths.get(key)
        if path is not None and os.path.exists(path):
            texts[key] = Path(path).read_text(encoding="utf-8")
    return texts


def workload_digest(workload, seed: int) -> tuple:
    """(SHA-256 hex digest of the outputs, operations, failed operations)
    over one pass of ``workload``'s pool for ``seed``; run with a scratch
    working directory, where the CLI pool is written."""
    pool, _ = workloads.build_pool(workload, seed, workload.name)
    digest = hashlib.sha256()
    failed = 0
    for item in pool:
        try:
            output = workload.run(item, None)
        except Exception as exc:  # noqa: BLE001 - a raised operation is a failure
            record, error = ["raised", type(exc).__name__, str(exc)], True
        else:
            record = [canonical(output), _out_files(item)]
            try:
                error = workload.check(item, output) is not None
            except Exception:  # noqa: BLE001 - a check that cannot run fails
                error = True
        failed += error
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return digest.hexdigest(), len(pool), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="one workload (default: all)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)

    any_failed = False
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as scratch:
        os.chdir(scratch)
        try:
            for name in names:
                sha, ops, failed = workload_digest(workloads.WORKLOADS[name], args.seed)
                any_failed = any_failed or failed > 0
                print(f"{name:<15} {sha}  ops={ops} failed={failed}", flush=True)
        finally:
            os.chdir(home)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
