"""Small shared helpers: stable RNG derivation and atomic file writes."""

from __future__ import annotations

import os
import random
from typing import Iterable, Union

from .errors import InputError


def derive_rng(seed: int, *path: int) -> random.Random:
    """Deterministic RNG for a (seed, index, ...) derivation path.

    Folds each path component into one big integer key, which keeps the
    mapping injective: distinct paths never share a generator, and nothing
    depends on process hash randomization, iteration order, or worker count.
    Components must be nonnegative and below 2**64.
    """
    key = int(seed)
    if key < 0:
        raise InputError("seed must be nonnegative")
    for part in path:
        part = int(part)
        if not 0 <= part < 2**64:
            raise InputError("derivation indices must fit in 64 bits")
        key = (key << 64) | part
    return random.Random(key)


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
