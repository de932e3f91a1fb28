"""Small factories shared across test modules."""

from __future__ import annotations

import io
import math
import zipfile

import numpy as np

from mwgft import (
    LaplacianKind,
    build_graph,
    eigendecompose,
    laplacian,
    random_connected_graph,
)

UNNORM = LaplacianKind.UNNORMALIZED
NORM = LaplacianKind.SYMMETRIC_NORMALIZED


def basis_for(graph, kind=UNNORM):
    return eigendecompose(laplacian(graph, kind), kind)


def random_basis(seed: int, size: int | None = None, kind=UNNORM, min_size: int = 4, max_size: int = 15):
    """A basis on a seeded random connected graph (size drawn if not given)."""
    rng = np.random.default_rng(seed)
    if size is None:
        size = int(rng.integers(min_size, max_size + 1))
    graph = random_connected_graph(
        size,
        seed=int(rng.integers(0, 2**31)),
        extra_edges=int(rng.integers(0, 2 * size)),
    )
    return basis_for(graph, kind)


def star_graph(num_vertices: int):
    """Hub-and-spokes graph; its Laplacian has an (N-2)-fold eigenvalue."""
    return build_graph(num_vertices, [(1, j, 1.0) for j in range(2, num_vertices + 1)])


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# forged member headers of a coefficient file: (member, descr, shape).  The
# "huge" shapes promise more bytes than the member holds (vectors-huge asks
# for 74.5 GiB, eigenvalues-huge for 7.28 TiB, vectors-3000 for 68.7 MiB);
# the "object" ones hold Python objects in exactly the bytes they promise.
FORGED_MEMBERS = {
    "eigenvalues-huge": ("eigenvalues", "<f8", (10**12,)),
    "vectors-huge": ("vectors", "<f8", (100000, 100000)),
    "vectors-3000": ("vectors", "<f8", (3000, 3000)),
    "kind-huge": ("kind", "<U10", (10**9,)),
    "eigenvalues-object": ("eigenvalues", "|O", (8,)),
    "vectors-object": ("vectors", "|O", (2, 4)),
    "kind-object": ("kind", "|O", ()),
}


def forge_member(target, case):
    """Rewrite one member header of the coefficient file ``target`` as
    :data:`FORGED_MEMBERS` names it, keeping as many of the member's data
    bytes as the new header promises, but at most 64."""
    member, descr, shape = FORGED_MEMBERS[case]
    with zipfile.ZipFile(target) as archive:
        blobs = {name: archive.read(name) for name in archive.namelist()}
    stored = io.BytesIO(blobs[f"{member}.npy"])
    np.lib.format.read_magic(stored)
    np.lib.format.read_array_header_1_0(stored)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape})
    kept = min(64, np.dtype(descr).itemsize * math.prod(shape))
    blobs[f"{member}.npy"] = header.getvalue() + stored.read()[:kept]
    with zipfile.ZipFile(target, "w") as archive:
        for name, blob in blobs.items():
            archive.writestr(name, blob)
