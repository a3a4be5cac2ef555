"""hyperforge: hierarchical generation of feature-attributed hypergraphs.

Budgeted multi-scale coarsening of incidence structures, plus learned
expansion and refinement driven by endpoint-parameterized flow matching,
with dataset generators, metrics, and a CLI around them.

Import each name from the module that defines it, for example
``from hyperforge.pipeline import train``; each module's ``__all__`` lists
its public names.  Importing the package itself loads none of them.
"""
