"""Words, products, evaluation, and relation spaces for q-analogue multiple zeta values."""

from .errors import (
    DomainError,
    NotAdmissible,
    NotAnIndexWord,
    NotHomogeneous,
    NotInH1,
    ParseError,
    QmzvError,
)
from .hpoly import HPoly, h_power
from .words import (
    RHO,
    SPACES,
    XI,
    Element,
    a_words_of_degree,
    contract_to_a,
    decompose_h0hat,
    element_weight,
    expand_to_x,
    index_from_text,
    index_to_text,
    index_to_word,
    is_admissible_index,
    letter_degree,
    membership,
    weight,
    word_degree,
    word_in_space,
    word_to_index,
)
from .expr import format_element, format_hpoly, parse_element, parse_hpoly
from .products import (
    ALPHA_TABLE,
    circle,
    delta0,
    delta1,
    e_inv,
    e_map,
    harmonic,
    i0,
    i1,
    phi,
    shuffle,
    shuffle_x,
    star,
)
from .evaluate import (
    DqReport,
    EvalResult,
    QContext,
    binom_tail,
    dq_check,
    f_word,
    f_word_table,
    i_letter,
    l_value,
    z_q,
    zbar_q,
)
from .relations import (
    DimRow,
    GradedBasis,
    RelationBasis,
    RowCheck,
    VerifyReport,
    dims_table,
    element_coordinates,
    enumerate_basis,
    gen_double_shuffle,
    gen_hoffman,
    gen_resummation,
    in_row_space,
    intersect_with_h0,
    relation_basis,
    relation_basis_from_doc,
    relation_basis_to_doc,
    rref,
    verify_numeric,
)

__version__ = "0.1.0"
