"""The package namespace: ``from memoryflow import *`` runs and every name in
``__all__`` resolves, so a deleted function cannot linger in the export list."""

import memoryflow


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from memoryflow import *", namespace)
    assert len(set(memoryflow.__all__)) == len(memoryflow.__all__)
    for name in memoryflow.__all__:
        assert namespace[name] is getattr(memoryflow, name), name
