"""Per-state reference for k-angulation enumeration, flips, dihedral
orbits and eccentricities.

This is the earlier, one-state-at-a-time implementation: states are Python
int bitmasks over the polygon's diagonals in lexicographic order, faces are
walked on per-vertex neighbour bitmasks with `int.bit_length()`, and the
graph index is a `{mask: index}` dict.  The package's batched routine must
give the same vertex order, adjacency and flip lists.  Orbits are found by
mapping each vertex's diagonals one rotation or reflection at a time, and
eccentricities come from scipy's csgraph BFS, not the package's own.
"""

from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np


@lru_cache(maxsize=None)
def enumerate_local(k: int, n: int) -> tuple:
    """All k-angulations of the (k-2)n+2-gon as sorted diagonal tuples."""
    if n <= 1:
        return ((),)
    results = []
    slots = n + k - 3
    for bars in combinations(range(slots), k - 2):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))]
        cs = [0]
        for p in parts:
            cs.append(cs[-1] + (k - 2) * p + 1)
        face_diags = tuple((a, b) for a, b in zip(cs, cs[1:]) if b - a > 1)
        sub_lists = [
            [tuple((a + base, b + base) for a, b in s) for s in enumerate_local(k, p)]
            for base, p in zip(cs, parts)
            if p >= 1
        ]
        for subs in product(*sub_lists):
            results.append(tuple(sorted(chain(face_diags, *subs))))
    results.sort()
    return tuple(results)


def _crosses(d1, d2) -> bool:
    (a, b), (c, d) = d1, d2
    return (a < c < b < d) or (c < a < d < b)


@lru_cache(maxsize=None)
def _polygon(m: int) -> tuple:
    diags = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    cross = [sum(1 << j for j, e in enumerate(diags) if _crosses(d, e)) for d in diags]
    return diags, {d: i for i, d in enumerate(diags)}, cross


def _mask(diagonals, m: int) -> int:
    ids = _polygon(m)[1]
    mask = 0
    for d in diagonals:
        mask |= 1 << ids[d]
    return mask


def _faces(mask: int, m: int):
    diags = _polygon(m)[0]
    nbr = [2 << v for v in range(m)]
    while mask:
        low = mask & -mask
        a, b = diags[low.bit_length() - 1]
        nbr[a] |= 1 << b
        mask ^= low
    stack = [(0, m - 1, [])]
    while stack:
        a, b, rest = stack.pop()
        face = [a]
        v = (nbr[a] & ((1 << b) - 1)).bit_length() - 1
        below = (2 << b) - 1
        while v != b:
            face.append(v)
            v = (nbr[v] & below).bit_length() - 1
        face.append(b)
        yield face, rest
        for i in range(len(face) - 1):
            if face[i + 1] - face[i] > 1:
                stack.append((face[i], face[i + 1], face[i + 2:] + face[:i]))


def flip_moves(mask: int, k: int, m: int) -> list:
    """(neighbour mask, removed id, inserted id) per flip, in face-walk order."""
    diags, ids, cross = _polygon(m)
    moves = []
    seen = 0
    for face, rest in _faces(mask, m):
        if len(face) != k:
            raise ValueError(f"face {tuple(face)} is not a {k}-gon")
        if not rest:
            continue
        d = ids[face[0], face[-1]]
        seen |= 1 << d
        others = mask ^ (1 << d)
        for u, w in zip(face[1:-1], rest):
            nd = ids[u, w] if u < w else ids[w, u]
            if cross[nd] & others:
                raise ValueError(f"flipping {diags[d]} to {diags[nd]} crosses another diagonal")
            moves.append((others | 1 << nd, d, nd))
    if seen != mask:
        raise ValueError("a diagonal does not bound two faces")
    return moves


def flips(k: int, m: int, diagonals: tuple) -> list:
    """(neighbour diagonals, removed, inserted) per flip, ordered by the
    removed diagonal's position in `diagonals`."""
    diags = _polygon(m)[0]
    moves = sorted(flip_moves(_mask(diagonals, m), k, m), key=lambda move: move[1])
    return [
        (tuple(e for i, e in enumerate(diags) if x >> i & 1), diags[d], diags[nd])
        for x, d, nd in moves
    ]


def build_csr(k: int, n: int) -> tuple:
    """(vertices, indptr, indices) of the flip graph as Python lists."""
    m = (k - 2) * n + 2
    verts = enumerate_local(k, n)
    index = {_mask(v, m): i for i, v in enumerate(verts)}
    indptr, indices = [0], []
    for x in index:
        indices += sorted(index[y] for y, _, _ in flip_moves(x, k, m))
        indptr.append(len(indices))
    return verts, indptr, indices


def _transform_diagonals(diags, m: int, rot: int, reflect: bool) -> tuple:
    out = []
    for a, b in diags:
        if reflect:
            a, b = (m - a) % m, (m - b) % m
        a, b = (a + rot) % m, (b + rot) % m
        out.append((a, b) if a < b else (b, a))
    return tuple(sorted(out))


def orbit_representatives(k: int, n: int) -> list:
    """The first vertex, in canonical order, of each dihedral orbit."""
    m = (k - 2) * n + 2
    seen = set()
    reps = []
    for i, diagonals in enumerate(enumerate_local(k, n)):
        if diagonals in seen:
            continue
        reps.append(i)
        for reflect in (False, True):
            for rot in range(m):
                seen.add(_transform_diagonals(diagonals, m, rot, reflect))
    return reps


def eccentricities(graph, starts) -> list:
    """Eccentricity of each start from scipy csgraph's unweighted shortest
    paths, 16 starts per call; None for a start that misses a vertex."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    indptr, indices = graph.csr()
    size = graph.num_vertices
    mat = csr_matrix((np.ones(indices.size), indices, indptr), shape=(size, size))
    out = []
    for lo in range(0, len(starts), 16):
        dist = shortest_path(mat, unweighted=True, indices=starts[lo:lo + 16]).max(axis=1)
        out += [None if np.isinf(d) else int(d) for d in dist]
    return out


# The package's earlier array routines, kept as oracles for the block-wise
# enumeration, the two-generator orbit labels and the class-wise build.


def face_walk_indices(k: int, n: int) -> np.ndarray:
    """The flip graph's CSR indices from the per-state face walk: every
    state's flips from the package's `_flip_rows`, FLIP_CHUNK states at a
    time, each neighbour row found among the canonical rows by binary
    search on its byte key, and each state's neighbours sorted."""
    from flipwalk.graph import FLIP_CHUNK, _lookup, _row_keys
    from flipwalk.kangulation import _enumerate_rows, _flip_rows

    rows, m, degree = _enumerate_rows(k, n), (k - 2) * n + 2, (n - 1) * (k - 2)
    if not degree:
        return np.zeros(0, dtype=np.int32)
    keys, parts = _row_keys(rows), []
    for lo in range(0, len(rows), FLIP_CHUNK):
        nbrs = _flip_rows(rows[lo:lo + FLIP_CHUNK], k, m)[0]
        at, found = _lookup(keys, _row_keys(nbrs.reshape(-1, n - 1)))
        assert found.all(), "a flip leaves the enumerated states"
        parts.append(np.sort(at.reshape(-1, degree), axis=1).ravel())
    return np.concatenate(parts).astype(np.int32)


def _id_table(m: int) -> tuple:
    """(diagonal endpoints by id, (m, m) id table with -1 off the diagonals,
    the id dtype) in the package's numbering."""
    diags = _polygon(m)[0]
    ends = np.array(diags, dtype=np.int64).reshape(-1, 2)
    pair_id = np.full((m, m), -1, dtype=np.int64)
    pair_id[ends[:, 0], ends[:, 1]] = pair_id[ends[:, 1], ends[:, 0]] = np.arange(len(diags))
    return ends, pair_id, np.dtype(np.uint8 if len(diags) <= 256 else ">u2")


@lru_cache(maxsize=None)
def _endpoint_pairs(k: int, n: int) -> np.ndarray:
    """All k-angulations as an (N, n-1, 2) array of diagonal endpoints, from
    the root-face recursion, in no particular order."""
    if n <= 1:
        return np.zeros((1, 0, 2), dtype=np.int16)
    blocks = []
    slots = n + k - 3
    for bars in combinations(range(slots), k - 2):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))]
        cs = [0]
        for p in parts:
            cs.append(cs[-1] + (k - 2) * p + 1)
        face = np.array(
            [(a, b) for a, b in zip(cs, cs[1:]) if b - a > 1], dtype=np.int16
        ).reshape(-1, 2)
        subs = [_endpoint_pairs(k, p) + base for base, p in zip(cs, parts) if p >= 1]
        picks = np.indices([len(sub) for sub in subs]).reshape(len(subs), -1)
        blocks.append(np.concatenate(
            [np.broadcast_to(face, (picks.shape[1], *face.shape))]
            + [sub[pick] for sub, pick in zip(subs, picks)],
            axis=1,
        ))
    return np.concatenate(blocks)


def endpoint_rows(k: int, n: int) -> np.ndarray:
    """The canonical id rows from the endpoint array: each state's ids
    sorted, the rows in lexicographic order, in the package's id dtype."""
    _, pair_id, dtype = _id_table((k - 2) * n + 2)
    pairs = _endpoint_pairs(k, n)
    rows = np.sort(pair_id[pairs[..., 0], pairs[..., 1]], axis=1).astype(dtype)
    return rows[np.lexsort(rows.T[::-1])] if n > 1 else rows


def orbit_representatives_all_images(rows: np.ndarray, m: int) -> list:
    """Dihedral orbit representatives of canonical id rows from all 2m
    images: each map v -> v + r or r - v (mod m) permutes the ids, every row
    is mapped, sorted and looked up by byte key, and the running minimum of
    the indices found labels each vertex with the first of its orbit."""
    ends, pair_id, dtype = _id_table(m)
    label = np.arange(len(rows))
    if rows.shape[1]:
        key = f"S{rows.shape[1] * rows.itemsize}"
        keys = np.ascontiguousarray(rows).view(key).ravel()
        v = np.arange(m)
        for image in chain(v[None] + v[:, None], v[:, None] - v[None]):
            perm = pair_id[image[ends[:, 0]] % m, image[ends[:, 1]] % m].astype(dtype)
            want = np.ascontiguousarray(np.sort(perm[rows], axis=1)).view(key).ravel()
            at = np.searchsorted(keys, want)
            assert (keys[np.minimum(at, len(keys) - 1)] == want).all(), "image not a state"
            np.minimum(label, at, out=label)
    return np.flatnonzero(label == np.arange(len(rows))).tolist()
