"""Small shared helpers: seeded generator streams (`reseed`) and atomic file writes."""

from __future__ import annotations

import os
import random
from typing import Iterable, Union

from .errors import InputError


def reseed(gen: random.Random, seed: int, *path: int) -> random.Random:
    """Put `gen` on the stream of the derivation path (seed, *path) and return it.

    The seed and each component must be in [0, 2**64). They fold, 64 bits
    each, into one key that seeds `gen` at the C level, past `random.py`'s
    Python wrapper: the stream is that of `random.Random(key)` in any
    process. The fold is injective among paths of one length, so no two
    share a stream; paths of different lengths may: (5,) and (0, 5) do.
    """
    key = 0
    for part in (seed, *path):
        if not 0 <= part < 2**64:
            raise InputError("seed and derivation indices must be 64-bit unsigned integers")
        key = (key << 64) | int(part)
    super(random.Random, gen).seed(key)
    return gen


def derive_rng(seed: int, *path: int) -> random.Random:
    """A new generator on the stream of the derivation path (seed, *path); see `reseed`."""
    return reseed(random.Random(0), seed, *path)  # 0 spares an OS entropy read


def atomic_write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write `text` to `path` via a temp file + rename.

    `text` is a string or an iterable of string chunks, written as they
    arrive so that a long output is never held whole in memory. Readers
    never observe a partially written artifact, and two concurrent writers
    leave one complete file rather than an interleaving. If writing or
    producing a chunk raises, the temp file is removed and `path` is left
    as it was. The file gets the mode that `open(path, "w")` gives a new
    file: 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-radionet-{os.urandom(8).hex()}")
    # Mode 0o666 lets the kernel apply the umask; tempfile.mkstemp's 0o600
    # would survive the rename. O_EXCL never opens an existing file or link.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
