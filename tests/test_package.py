"""The package's public surface: every exported name resolves."""

import tensordec


def test_star_import_matches_all():
    namespace = {}
    exec("from tensordec import *", namespace)  # a stale name raises here
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tensordec.__all__)
