#!/usr/bin/env python3
"""Guards the on-disk formats from the encode side.

Usage: check_seed_corpus.py MAKE_SEEDS OUT_DIR CORPUS_DIR

Runs the make_seeds generator into a fresh OUT_DIR and byte-compares
every file it writes with the checked-in copy under CORPUS_DIR. The
corpus replays only prove the decoders accept the stored bytes; this
check fails when an encoder (TreeIo::EncodeTree, EncodeSparseMatrix,
WriteDocumentSegment, ...) starts writing different bytes for the same
input. Exit code 0 iff every generated file exists in CORPUS_DIR with
identical content.
"""

import shutil
import subprocess
import sys
from pathlib import Path


def main():
    if len(sys.argv) != 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    make_seeds, out_dir, corpus_dir = sys.argv[1], Path(sys.argv[2]), \
        Path(sys.argv[3])
    shutil.rmtree(out_dir, ignore_errors=True)
    subprocess.run([make_seeds, str(out_dir)], check=True)
    generated = sorted(p for p in out_dir.rglob("*") if p.is_file())
    errors = []
    for path in generated:
        rel = path.relative_to(out_dir)
        checked_in = corpus_dir / rel
        if not checked_in.is_file():
            errors.append(f"{rel}: not in {corpus_dir}")
        elif checked_in.read_bytes() != path.read_bytes():
            errors.append(f"{rel}: bytes differ from the checked-in seed")
    for error in errors:
        print(f"check_seed_corpus: {error}")
    print(f"check_seed_corpus: {len(generated)} generated files, "
          f"{len(errors)} mismatch(es)")
    return 1 if errors or not generated else 0


if __name__ == "__main__":
    sys.exit(main())
