"""Tests for data-volume decoration."""

import numpy as np
import pytest

from repro.errors import DagError
from repro.graphs.generators import paper_example_dag
from repro.graphs.transform import assign_data_volumes, with_volumes_factory


class TestAssignVolumes:
    def test_volumes_in_range(self, rng):
        d = assign_data_volumes(paper_example_dag(), rng, (2.0, 5.0))
        for t in d:
            assert 2.0 <= d.task(t).data_volume <= 5.0

    def test_structure_unchanged(self, rng):
        base = paper_example_dag()
        d = assign_data_volumes(base, rng, (1.0, 2.0))
        assert d.edges == base.edges
        for t in base:
            assert d.complexity(t) == base.complexity(t)

    def test_original_untouched(self, rng):
        base = paper_example_dag()
        assign_data_volumes(base, rng, (1.0, 2.0))
        assert all(base.task(t).data_volume == 0.0 for t in base)

    def test_invalid_range(self, rng):
        with pytest.raises(DagError):
            assign_data_volumes(paper_example_dag(), rng, (-1.0, 2.0))

    def test_factory_wrapper(self):
        f = with_volumes_factory(lambda rng: paper_example_dag(), (3.0, 3.0))
        d = f(np.random.default_rng(0))
        assert all(d.task(t).data_volume == 3.0 for t in d)
