"""Weak-commutativity doubles: construction, realization, verification."""

from .errors import (AlphabetError, ArgumentError, CheckFailure,
                     EnumerationOverflow, ParseError, SizeGuardError,
                     WeakcommError)
from .words import (GenSymbol, Word, bar_word, commutator, engel_word,
                    free_reduce, left_normed, parse_word, pi_word, pibar_word,
                    rho_word)
from .presentations import (AllElements, LengthBound, Presentation,
                            abelianization, direct_product, free_product,
                            parse_presentation, sidki_double)
from .intlinalg import FinAbGroup, IntMatrix, cokernel, smith_normal_form, tensor
from .enumerator import CosetTable, enumerate_cosets, perm_realization
from .permgroups import GroupHom, Perm, PermGroup

__all__ = [name for name in dir() if not name.startswith("_")]
