"""graph6 text codec.

Bytes 63..126 carry six bits each; the order prefix N(n) is one byte for
n <= 62 and four bytes (126 then three data bytes) up to 258047.  Adjacency
bits run over the upper triangle in column-major order: (0,1), (0,2), (1,2),
(0,3), ...
"""

from __future__ import annotations

from .graphs import Graph, graph_from_edge_list

_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _decode_order(data: str) -> tuple[int, int]:
    """Return (order, bytes consumed by the prefix)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    c = ord(data[0])
    if not 63 <= c <= 126:
        raise Graph6Error(f"byte {c} outside graph6 range 63..126", 0)
    if c < 126:
        return c - 63, 1
    # 126 prefix: next three bytes hold an 18-bit order
    if len(data) < 4:
        raise Graph6Error("truncated multi-byte order prefix", len(data))
    n = 0
    for i in range(1, 4):
        ci = ord(data[i])
        if not 63 <= ci <= 126:
            raise Graph6Error(f"byte {ci} outside graph6 range 63..126", i)
        n = (n << 6) | (ci - 63)
    if n <= 62:
        raise Graph6Error(f"non-canonical long prefix for order {n}", 0)
    return n, 4


def graph_from_graph6(text: str, name: str | None = None) -> Graph:
    """Decode one graph6 line into a :class:`Graph`."""
    data = text.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    n, start = _decode_order(data)
    if n == 0:
        raise Graph6Error("graph6 order 0 not supported", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[start:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"order {n} needs {nbytes} adjacency bytes, got {len(body)}", start + min(len(body), nbytes)
        )
    bits = 0
    for i, ch in enumerate(body):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 range 63..126", start + i)
        bits = (bits << 6) | (c - 63)
    pad = nbytes * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", start + nbytes - 1)
    bits >>= pad
    edges = []
    pos = nbits - 1
    for col in range(1, n):
        for row in range(col):
            if (bits >> pos) & 1:
                edges.append((row, col))
            pos -= 1
    return graph_from_edge_list(n, edges, name=name)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 string; round-trips bit-exactly."""
    n = g.order
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = chr(126) + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"order {n} too large for this encoder")
    bits = 0
    nbits = n * (n - 1) // 2
    pos = nbits - 1
    for col in range(1, n):
        col_bit = 1 << col
        for row in range(col):
            if g.adjacency[row].bits & col_bit:
                bits |= 1 << pos
            pos -= 1
    nbytes = (nbits + 5) // 6
    bits <<= nbytes * 6 - nbits
    chars = []
    for i in range(nbytes - 1, -1, -1):
        chars.append(chr(((bits >> (6 * i)) & 0x3F) + 63))
    return prefix + "".join(chars)
