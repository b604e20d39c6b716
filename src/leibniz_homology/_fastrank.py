"""Compatibility stub: the package has no compiled modular kernel.

``SparseModularEliminator`` in ``linalg`` is the only modular engine.  The
one reader of this module is ``benchmark/sample.py``, which records
``HAVE_NUMBA`` in each sample's environment block.
"""

HAVE_NUMBA = False
