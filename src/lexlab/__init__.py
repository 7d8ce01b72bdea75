"""lexlab: exact lex ideals, saturation, Gotzmann data and local cohomology tables."""

from types import ModuleType as _ModuleType

from .cohomology import (DegreeWindow, LCTable, default_window, depth_and_dim,
                         local_cohomology_table, tables_agree)
from .errors import (InvalidArgument, LexlabError, MacaulayViolation, ParseError,
                     UnluckyCoordinates)
from .families import FamilySpec, all_strongly_stable, borel_filters, enumerate_strongly_stable
from .gotzmann import (GotzmannData, exchange_property, gotzmann_representation,
                       is_gotzmann, lex_ideal, lex_ideal_from_values, saturated_lex_generators)
from .groebner import buchberger, gin, initial_ideal, normal_form
from .hilbert import (dimension, hilbert_function, hilbert_numerator, hilbert_series,
                      multiplicity)
from .ideals import (MonomialIdeal, colon, graded_generator_counts, intersect,
                     is_strongly_stable, maximal_ideal, saturate, strong_stability_witness)
from .parsing import parse_ideal, parse_monomial, parse_polynomial, parse_ring
from .reports import SequentialCMVerdict, probe_rigidity, sequentially_cm_verdict, verify_main
from .ring import (DEGREVLEX, LEX, Poly, RingSpec, TermOrder, borel_move, compare,
                   enumerate_monomials, total_degree)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
