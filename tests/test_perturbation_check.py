"""The benchmark's attack-output check, fed the edge arrays the attack makes.

`check_perturbation` in perfbench/checks.py rejects an insertion that is the
reverse of an edge already present. Here a perturbed graph from
`attacks._add_edges` (an (E, 2) array) gets that reverse edge appended as a
row, once through `np.vstack` and once through a list, and the check must
name it.
"""
import os
import sys

import numpy as np
import pytest

from graphsentry import attacks as AT
from graphsentry.graphdata import FeatureGraph

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import checks  # noqa: E402


def appended(edges, row, form):
    return np.vstack([edges, [row]]) if form == "vstack" else edges.tolist() + [row]


@pytest.mark.parametrize("form", ["vstack", "list"])
def test_perturbation_check_names_an_inserted_reverse_edge(form):
    g = FeatureGraph(4, [(0, 1), (1, 2)], np.ones((4, 3)), 1, "g")
    p = AT._add_edges(g, [(2, 3)])

    def check(edges, added):
        checks.check_perturbation(g.node_count, g.edges, g.features, p.node_count,
                                  edges, p.features, added, "t")

    check(p.edges, [(2, 3)])
    with pytest.raises(checks.CheckFailed, match=r"t: insertion \(1,0\) is a self-loop, "
                       r"a duplicate or the reverse of an edge present"):
        check(appended(p.edges, (1, 0), form), [(2, 3), (1, 0)])
