"""Per-state reference for k-angulation enumeration, flips, dihedral
orbits and eccentricities.

This is the earlier, one-state-at-a-time implementation: states are Python
int bitmasks over the polygon's diagonals in lexicographic order, faces are
walked on per-vertex neighbour bitmasks with `int.bit_length()`, and the
graph index is a `{mask: index}` dict.  The package's batched routine must
give the same vertex order, adjacency and flip lists.  Orbits are found by
mapping each vertex's diagonals one rotation or reflection at a time, and
eccentricities come from scipy's csgraph BFS, not the package's own.

The package's earlier batched face walk (`face_rows`, `face_array`,
`flip_rows`) is kept here too: it finds every state's faces and flips from
its id row, and serves as the oracle for the class-wise flip-graph build
and for the classes generated from their faces.
"""

from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from flipwalk.errors import InvalidParameterError
from flipwalk.graph import FLIP_CHUNK, _lookup, _row_keys
from flipwalk.kangulation import _enumerate_rows, _rows_of
from flipwalk.kangulation import _polygon as _package_polygon


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
# enumeration, the two-generator orbit labels, the class-wise build and the
# generated class partitions.


def face_rows(rows: np.ndarray, k: int, m: int) -> tuple:
    """The faces of a batch of states, one per row of `rows` (its diagonal
    ids, ascending): (root, inner, outer).  root[s] is the face on side
    (m-1, 0), its k vertices ascending.  inner[s, j] and outer[s, j] are the
    k-2 vertices that the two faces beside diagonal j = (a, b) add to it:
    the inner face's from a up to b, the outer face's from b on around the
    polygon to a.  Every face but the root is the inner face of one
    diagonal, its first-to-last chord.

    The faces are walked as offsets around the polygon: far[s, v, r] is the
    largest offset d <= r at which v + d (mod m) is joined to v by a side or
    a diagonal.  From a, the inner face's next vertex is the farthest
    neighbour short of b, and each later step goes to the farthest
    neighbour not past b; in convex position with non-crossing diagonals,
    nearer endpoints nest under farther ones, so the walk traces the face.
    The outer face is the same walk from b to a around the rest of the
    polygon.  Side (m-1, 0) lies outside every diagonal, and no wider
    diagonal can separate it from the outer face of the widest one, so
    that face is the root.

    Raises InvalidParameterError if two diagonals of a state cross or a face
    beside a diagonal is not a k-gon (a state with no diagonal must be the
    k-gon itself), so a state that passes is a k-angulation.
    """
    if len(rows) > FLIP_CHUNK:  # bound the (chunk, m, m) walk tables
        parts = (face_rows(rows[lo:lo + FLIP_CHUNK], k, m)
                 for lo in range(0, len(rows), FLIP_CHUNK))
        return tuple(map(np.concatenate, zip(*parts)))
    poly = _package_polygon(m)
    count, width = rows.shape
    if width == 0:
        if m != k:
            raise InvalidParameterError(f"the {m}-gon with no diagonal is not a {k}-gon")
        empty = np.zeros((count, 0, k - 2), dtype=np.int64)
        return np.tile(np.arange(m), (count, 1)), empty, empty
    ends = poly.ends[rows]
    a, b = ends[..., 0], ends[..., 1]
    c, d = a[:, None, :], b[:, None, :]  # (a, b) crosses (c, d) if a < c < b < d
    crossed = ((a[..., None] < c) & (c < b[..., None]) & (b[..., None] < d)).any(axis=(1, 2))
    if crossed.any():
        s = int(np.argmax(crossed))
        raise InvalidParameterError(
            f"two diagonals of {[poly.diags[i] for i in rows[s].tolist()]} cross"
        )
    state = np.arange(count)[:, None]
    near = np.zeros((count, m, m), dtype=bool)
    near[:, :, [0, 1, m - 1]] = True  # the vertex itself and its two sides
    near[state, a, b - a] = near[state, b, m - (b - a)] = True
    far = np.maximum.accumulate(near * np.arange(m, dtype=np.int16), axis=2)
    # walk the inner face from a and the outer face from b side by side
    at = np.stack([a, b], axis=2)
    left = np.stack([b - a, m - (b - a)], axis=2)  # offset still to go
    state = state[:, :, None]
    step = far[state, at, left - 1]
    path = []
    for _ in range(k - 2):
        at = (at + step) % m
        left = left - step
        path.append(at)
        step = far[state, at, left]
    short = (left == 0) | (step != left)  # the face closes early or late
    if short.any():
        s, j, _ = np.argwhere(short)[0]
        raise InvalidParameterError(
            f"a face beside {poly.diags[rows[s, j]]} is not a {k}-gon"
        )
    inner, outer = np.moveaxis(np.stack(path, axis=2), 3, 0)
    widest = np.arange(count), np.argmax(b - a, axis=1)
    root = np.sort(np.concatenate([ends[widest], outer[widest]], axis=1), axis=1)
    return root, inner, outer


def face_array(rows: np.ndarray, k: int, m: int) -> np.ndarray:
    """(count, n, k) array: the root face of each state, then the inner face
    of each diagonal, every face's vertices ascending."""
    root, inner, _ = face_rows(rows, k, m)
    ends = _package_polygon(m).ends[rows]
    return np.concatenate(
        [root[:, None], np.concatenate([ends[..., :1], inner, ends[..., 1:]], axis=2)],
        axis=1,
    )


def flip_rows(rows: np.ndarray, k: int, m: int) -> tuple:
    """All flips of a batch of states, one per row of `rows` (its diagonal
    ids, ascending): (nbrs, removed, inserted), where nbrs[s, f] is the row
    of state s's f-th neighbour, reached by replacing diagonal removed[s, f]
    with inserted[s, f].  Flips come by removed diagonal, ascending, and
    then by the inserted diagonal's end on the removed one's inner face.

    The two faces beside a diagonal (see `face_rows`) form a 2k-2-gon in
    which the diagonal joins an opposite pair, and each of the other k-2
    opposite pairs is a flip.  A state that is not a k-angulation raises
    InvalidParameterError, so each flip of a state that passes is one too.
    """
    _, inner, outer = face_rows(rows, k, m)
    count, width = rows.shape
    if width == 0:
        return rows[:, :0, None], rows[:, :0], rows[:, :0]
    # the inner face's i-th vertex is opposite the outer face's i-th vertex
    inserted = _package_polygon(m).pair_id[inner, outer].astype(rows.dtype)
    removed = np.broadcast_to(rows[:, :, None], inserted.shape)
    keep = np.arange(width - 1) + (np.arange(width - 1) >= np.arange(width)[:, None])
    others = np.broadcast_to(
        rows[:, keep][:, :, None, :], (*inserted.shape, width - 1)
    )
    # concatenate would return native byte order; big-endian ids must stay so
    nbrs = np.concatenate([others, inserted[..., None]], axis=3, dtype=rows.dtype)
    nbrs.sort(axis=3)
    flat = count, width * (k - 2)
    return nbrs.reshape(*flat, width), removed.reshape(flat), inserted.reshape(flat)


def diagonal_tuples(rows: np.ndarray, m: int) -> list:
    """Each id row of the m-gon as its sorted tuple of (a, b) diagonals."""
    diags = _package_polygon(m).diags
    return [tuple(map(diags.__getitem__, r)) for r in rows.tolist()]


def check_kangulation(k: int, m: int, diagonals: tuple) -> None:
    """Raise InvalidParameterError unless `diagonals`, sorted, are the
    diagonals of a k-angulation of the m-gon (by the face walk)."""
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3, got {k}")
    if (m - 2) % (k - 2) != 0 or m < k:
        raise InvalidParameterError(f"no k-angulation of an {m}-gon for k={k}")
    if list(diagonals) != sorted(diagonals):
        raise InvalidParameterError("diagonals not in canonical sorted order")
    n = (m - 2) // (k - 2)
    if len(diagonals) != n - 1:
        raise InvalidParameterError(f"expected {n - 1} diagonals, got {len(diagonals)}")
    face_rows(_rows_of([diagonals], m, len(diagonals)), k, m)


def walk_flips(k: int, m: int, diagonals: tuple) -> list:
    """All flips of one state by the batched walk, as (neighbour diagonals,
    removed, inserted), in the order of the removed diagonal."""
    diags = _package_polygon(m).diags
    nbrs, removed, inserted = flip_rows(_rows_of([diagonals], m, len(diagonals)), k, m)
    return [
        (nbr, diags[d], diags[nd])
        for nbr, d, nd in zip(diagonal_tuples(nbrs[0], m), removed[0].tolist(), inserted[0].tolist())
    ]




def face_walk_indices(k: int, n: int) -> np.ndarray:
    """The flip graph's CSR indices from the per-state face walk: every
    state's flips from `flip_rows`, FLIP_CHUNK states at a time, each
    neighbour row found among the canonical rows by binary search on its
    byte key, and each state's neighbours sorted."""
    rows, m, degree = _enumerate_rows(k, n), (k - 2) * n + 2, (n - 1) * (k - 2)
    if not degree:
        return np.zeros(0, dtype=np.int32)
    keys, parts = _row_keys(rows), []
    for lo in range(0, len(rows), FLIP_CHUNK):
        nbrs = flip_rows(rows[lo:lo + FLIP_CHUNK], k, m)[0]
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
