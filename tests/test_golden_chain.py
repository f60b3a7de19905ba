"""Committed output hashes for the stages that lost their second
implementation: meshes, dual graphs, task graphs and traces.

``tests/golden/chain_outputs.json`` was generated while the
dict-of-tuples mesh engines, the explicit dual engines, the warm-cache
dual and the straight-line pipeline path still existed and agreed with
the paths that remain; regenerate it (``tests/golden/regen.py chain``) only for
a change that is meant to move an output.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.mesh import MESH_FACTORIES, chunked
from tests.golden import regen

GOLDEN = json.loads(regen.CHAIN_PATH.read_text())


def test_chain_output_hashes_are_unchanged():
    assert regen.compute_chain() == GOLDEN


@pytest.mark.parametrize("chunk", [7, 997])
def test_mesh_hashes_do_not_depend_on_chunk_size(chunk, monkeypatch):
    monkeypatch.setattr(chunked, "DEFAULT_CHUNK_CELLS", chunk)
    depths = (5,) if chunk == 7 else (5, 7)
    got = regen.mesh_hashes(depths=depths, octree_depths=(5,))
    assert len(got) == 4 * len(depths) + 1
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.parametrize("name", sorted(MESH_FACTORIES))
def test_dual_matches_cell_adjacency(name):
    """The streamed dual equals what ``Mesh.cell_adjacency``
    materializes, and its golden hash."""
    mesh = MESH_FACTORIES[name](max_depth=regen.DUAL_DEPTH)
    xadj, adjncy, face_of = mesh.cell_adjacency()
    for edge_weight in regen.DUAL_VARIANTS:
        g = regen.dual_graph(mesh, edge_weight)
        want_wgt = (
            np.ones(len(adjncy)) if edge_weight == "unit"
            else mesh.face_area[face_of]
        )
        np.testing.assert_array_equal(g.xadj, xadj)
        np.testing.assert_array_equal(g.adjncy, adjncy)
        np.testing.assert_array_equal(g.adjwgt, want_wgt)
        key = regen.dual_key(name, edge_weight)
        assert regen._sha_arrays(g.xadj, g.adjncy, g.adjwgt) == GOLDEN[key]
