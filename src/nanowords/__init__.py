"""Homotopy invariants and certificate search for nanowords over an involuted alphabet."""

from .words import (Alphabet, EtaleWord, Nanoword, desingularize, empty_nanoword,
                    from_word, inverse, nanoword_from_pattern, opposite, product)
from .groups import (GroupRingElement, PiElement, PiTildeElement, PiWord,
                     PsiAbElement, PsiElement, SubgroupOfPi, subgroup_contains)
from .interlacement import (covering, gamma, gamma_prime, gamma_tilde,
                            interlacement, letter_class, letter_classes, mu)
from .selflinking import (is_skew_symmetric_section, norm_lower_bound,
                          self_link_class, self_link_function)
from .pairings import (compress, linking_form, linking_pairing, pairing_u,
                       pairings_isomorphic, rho, rho_ax, to_pairing)
from .matrices import (ColoringSpec, count_colorings, count_colorings_bruteforce,
                       nabla, weighted_matrix)
from .lambdainv import (lambda_checks, lambda_graph, lambda_invariant,
                        lambda_prime, lambda_split, psi_expand)
from .keis import CharSeq, char_sequence, charseq_inverse, kei_act, kei_star
from .moves import (Certificate, HomotopyData, Move, apply_move, enumerate_moves,
                    norm_upper_bound, search_contractible, search_homotopic,
                    successor_keys, verify_certificate)
from .fingerprint import Fingerprint, compute_fingerprint
from .classify import classify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
