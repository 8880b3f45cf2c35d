"""Exact computations with self-similar groups and their tree actions.

The package covers the rooted-tree algebra of wreath recursions (exact
word problem included), finite permutation images with a deterministic
stabilizer chain, liftings and their certificates, the theta embedding of
ascending HNN extensions into end-fixing automorphisms of the unrooted
regular tree, and the p-adic digit-stream boundary.

Import names from their modules (`from arboreal.core import
MealyAutomaton`); `import arboreal` loads the library modules as its
attributes, `arboreal.hnn` and the like, and re-exports nothing else.
"""

from . import catalog, core, hnn, levels, lifting, padic, words

__version__ = "0.1.0"
