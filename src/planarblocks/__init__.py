"""Block decompositions, structure trees, planar embeddings, symmetry,
and Cayley graphs for finite simple graphs.

Each name below is imported from its submodule on first use (PEP 562),
so a command loads only the modules it runs.
"""

import importlib

_EXPORTS = {
    "blocks1": ("BlockCutTree", "b1_family", "block_cut_tree",
                "certify_block_cut_tree"),
    "blocks2": ("TriBlockTree", "Torso", "torso", "triblock_tree"),
    "cayley": ("GroupTable", "Presentation", "cayley_graph", "coset_enumerate",
               "equivariant_rotation", "invert_word", "parse_presentation",
               "surface_presentation"),
    "errors": ("BadExponent", "HingeVertex", "InvariantViolated",
               "MalformedInput", "NotAnAutomorphism", "NotConnected",
               "Overflow", "PlanarBlocksError", "PreconditionViolated",
               "TooLarge"),
    "graph": ("Graph", "ReducedGraph", "build_graph", "connected_components",
              "cut_vertices", "edge_key", "homeomorphic_reduce",
              "is_connected", "parse_edge_list"),
    "planar": ("PlanarityResult", "RotationSystem", "canonical_face",
               "certify_embedding", "certify_kuratowski", "facial_walks",
               "planarity_test"),
    "symmetry": ("AutGroup", "QuotientGraph", "automorphism_group",
                 "quotient_graph", "tree_action_check"),
    "treeset": ("NestedFamily", "certify_tree"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__),
                       name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
