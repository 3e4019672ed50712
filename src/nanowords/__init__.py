"""Homotopy invariants and certificate search for nanowords over an involuted alphabet."""

from .words import (Alphabet, EtaleWord, Nanoword, desingularize, empty_nanoword,
                    from_word, inverse, nanoword_from_pattern, opposite, product)
from .groups import (GroupRingElement, PiElement, PiTildeElement, PiWord,
                     PsiAbElement, PsiElement, SubgroupOfPi)
from .interlacement import (covering, gamma, gamma_prime, gamma_tilde, letter_class,
                            letter_classes, mu)
from .selflinking import norm_lower_bound, pairing_u, self_link_class, self_link_function
from .pairings import compress, linking_form, linking_pairing, rho, rho_ax, to_pairing
from .matrices import ColoringSpec, count_colorings, nabla, weighted_matrix
from .lambdainv import (lambda_checks, lambda_invariant, lambda_prime, lambda_split,
                        psi_expand)
from .keis import CharSeq, char_sequence, charseq_inverse, kei_act, kei_star
from .moves import (Certificate, HomotopyData, Move, apply_move, enumerate_moves,
                    norm_upper_bound, search_contractible, search_homotopic,
                    successor_keys, verify_certificate)
from .fingerprint import Fingerprint, compute_fingerprint

# the functions classify and interlacement are imported from their modules,
# whose names they share
__all__ = [
    "Alphabet", "Certificate", "CharSeq", "ColoringSpec", "EtaleWord",
    "Fingerprint", "GroupRingElement", "HomotopyData", "Move", "Nanoword",
    "PiElement", "PiTildeElement", "PiWord", "PsiAbElement", "PsiElement",
    "SubgroupOfPi", "apply_move", "char_sequence", "charseq_inverse", "compress",
    "compute_fingerprint", "count_colorings", "covering", "desingularize",
    "empty_nanoword", "enumerate_moves", "from_word", "gamma", "gamma_prime",
    "gamma_tilde", "inverse", "kei_act", "kei_star", "lambda_checks",
    "lambda_invariant", "lambda_prime", "lambda_split", "letter_class",
    "letter_classes", "linking_form", "linking_pairing", "mu", "nabla",
    "nanoword_from_pattern", "norm_lower_bound", "norm_upper_bound", "opposite",
    "pairing_u", "product", "psi_expand", "rho", "rho_ax", "search_contractible",
    "search_homotopic", "self_link_class", "self_link_function", "successor_keys",
    "to_pairing", "verify_certificate", "weighted_matrix",
]
__version__ = "0.1.0"
