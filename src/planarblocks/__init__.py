"""Block decompositions, structure trees, planar embeddings, symmetry,
and Cayley graphs for finite simple graphs."""

from .blocks1 import BlockCutTree, b1_family, block_cut_tree, cut_vertices
from .blocks2 import (TriBlockTree, Torso, build_nested_family, nested, torso,
                      triblock_tree)
from .cayley import (GroupTable, Presentation, cayley_graph,
                     check_regular_action, coset_enumerate, invert_word,
                     parse_presentation, regular_action, surface_presentation)
from .errors import (BadExponent, HingeVertex, InvariantViolated, MalformedInput,
                     NotAnAutomorphism, NotConnected, NotNested, Overflow,
                     PlanarBlocksError, PreconditionViolated, TooLarge)
from .graph import (Graph, ReducedGraph, build_graph, connected_components,
                    edge_key, format_edge_list, homeomorphic_reduce,
                    induced_subgraph, is_connected, parse_edge_list)
from .planar import (PlanarityResult, RotationSystem, apply_to_face,
                     canonical_face, euler_genus, face_multiset_uniqueness_check,
                     face_size_multiset, facial_preservation_check,
                     facial_walks, planarity_test, rotation_from_neighbors)
from .separation import Separation, make_separation, pull_back_separation, separation_complement
from .symmetry import (AutGroup, QuotientGraph, automorphism_group,
                       orbit_of_separation, quotient_graph, tree_action_check)
from .treeset import (NestedFamily, StructureTree, build_structure_tree,
                      verify_tree_correspondence)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
