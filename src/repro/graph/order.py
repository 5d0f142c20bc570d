"""The one edge-ordering primitive behind CSR, G-Shards and CW.

Every representation in this package is a permutation of the edge list:
CSR groups edges by destination, G-Shards by destination shard and then
source, CW regroups G-Shards entries by source shard.  :func:`edge_order`
computes all of them as ``np.lexsort(keys)``, but with one in-place
``ndarray.sort()`` of int64 words instead of a multi-key comparison sort.

Each word packs the keys (mixed radix, most significant key highest)
above the edge id in the low ``(m - 1).bit_length()`` bits.  The edge id
makes every word unique, so the order any sort produces is the only one:
equal keys come out by increasing edge id, which is exactly the stable
order ``np.lexsort`` defines.  That lets NumPy use its unstable SIMD sort
(``kind="quicksort"``), an order of magnitude faster than a stable argsort
of the same keys.  After the sort, masking off the keys leaves the edge ids
in the word array itself, so the result costs one int64 array.

Vertex and shard ids are below 2**31 and so are edge counts, so any one key
fits in a word beside the edge id.  Keys that do not fit together are split
into several words, sorted least significant word first; each later pass
reorders the previous pass's result stably (the packed id is then the
position in the previous order).
"""

from __future__ import annotations

import numpy as np

__all__ = ["edge_order"]

_ID_CHUNK = 1 << 16
"""Edge ids are OR-ed in this many at a time (no ``m``-sized ``arange``)."""


def edge_order(*keys: np.ndarray) -> np.ndarray:
    """Edge ids sorted by ``keys``, the last key primary: ``np.lexsort(keys)``.

    Every key is a 1-D array of non-negative integers, one entry per edge.
    Returns an ``int64`` array of the ``m`` edge ids.
    """
    if not keys:
        raise ValueError("edge_order needs at least one key")
    keys = tuple(np.asarray(k) for k in keys)
    m = int(keys[0].size)
    if any(k.shape != (m,) for k in keys):
        raise ValueError("edge_order keys must be 1-D and of equal length")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    radices = []
    for k in keys:
        if int(k.min()) < 0:
            raise ValueError("edge_order keys must be non-negative")
        radices.append(int(k.max()) + 1)
    id_bits = (m - 1).bit_length()
    room = 1 << (63 - id_bits)  # every packed key must stay below this

    # Split the keys, least significant first, into words that fit.
    words: list[list[int]] = []
    span = 0
    for i, radix in enumerate(radices):
        if radix > room:
            raise ValueError(
                f"edge_order key {i} reaches {radix - 1}, which does not fit "
                f"beside {id_bits}-bit edge ids"
            )
        if not words or span * radix > room:
            words.append([])
            span = 1
        words[-1].append(i)
        span *= radix

    order = None
    for word_keys in words:
        word = _pack([keys[i] if order is None else keys[i][order]
                      for i in word_keys],
                     [radices[i] for i in word_keys])
        word <<= id_bits
        for lo in range(0, m, _ID_CHUNK):
            hi = min(lo + _ID_CHUNK, m)
            word[lo:hi] |= np.arange(lo, hi, dtype=np.int64)
        word.sort()
        word &= (1 << id_bits) - 1
        order = word if order is None else order[word]
    return order


def _pack(keys: list[np.ndarray], radices: list[int]) -> np.ndarray:
    """``keys`` (least significant first) as one mixed-radix int64 word."""
    word = keys[-1].astype(np.int64)
    for key, radix in zip(keys[-2::-1], radices[-2::-1]):
        word *= radix
        word += key
    return word
