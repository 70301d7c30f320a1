"""Single-source flows for certification.

`per_source_flow` is one commodity of the recursive uniform flow on K_n,
built alone from the package's source rows; `cartesian_per_source` is one
commodity of the two-factor product combiner.  The package only builds
and checks these flows in chunks (`verify_unit_demands`); the tests
compare one source at a time against the aggregate and the golden hashes.
"""

import numpy as np

from flipwalk.errors import InvalidParameterError
from flipwalk.flownet import _source_rows, oriented_structure
from flipwalk.flows import ArcFlow, product_lift


def per_source_flow(n: int, s: int) -> ArcFlow:
    """Full per-source flow on K_n: one unit from s to every other vertex."""
    if n <= 1:
        return ArcFlow()
    t = int(oriented_structure(n).partition.vertex_class[s])
    return _source_rows(n, t, np.array([s])).flow(0)


def cartesian_per_source(per_source_fns: list, factor_graphs: list, coord: tuple) -> ArcFlow:
    """Per-source flow of the two-factor product combiner, for certification."""
    if len(factor_graphs) != 2:
        raise InvalidParameterError("per-source certification implemented for 2 factors")
    (g, h), (x, y) = factor_graphs, coord
    ng, nh = g.num_vertices, h.num_vertices
    verts = range(ng * nh)
    return ArcFlow.combine(
        product_lift(verts, nh, 1, per_source_fns[1](y), [x], ng)
        + product_lift(verts, nh, 0, per_source_fns[0](x), range(nh), 1)
    )
