"""qrook: exact q-rook and q-hit polynomials of Ferrers boards, rank
counts of board-supported matrices over prime fields, and the Mahonian /
Euler-Mahonian permutation statistics they induce."""

from .boards import (
    FerrersBoard,
    StepSpec,
    all_ferrers_boards,
    all_step_specs,
    complement,
    flip,
    g_board,
    g_spec,
    parse_board_spec,
    staircase_board,
    step_decomposition,
    triangular_board,
)
from .ffmat import (
    FfMatrix,
    corollary1_check,
    corollary2_check,
    elimination_placement,
    enumerate_support_matrices,
    fiber_check,
    p_k_formula,
    rank_distribution,
    rank_ff,
    theorem1_check,
)
from .permstat import (
    b_regular_graph,
    b_standard_graph,
    den,
    des,
    descent_graph,
    exc,
    joint_distribution,
    maj,
    mat_word,
    stat5,
    stat6,
    stat7,
    stat_family,
    theorem5_stat,
    theorem5_statx,
    words_over,
    xi_word,
)
from .placements import (
    BudgetExceededError,
    Placement,
    cross_stat,
    factorization_check,
    hit_polys,
    inv_stat,
    mat_stat,
    rook_poly,
    word_stat_polys,
    xi_stat,
)
from .qpoly import (
    IdentityViolation,
    LaurentPoly,
    darga,
    is_symmetric,
    is_unimodal,
    q_binomial,
    q_bracket,
    q_factorial,
    q_multinomial,
    q_stirling,
    zsu_check,
)
from .verify import (
    CheckResult,
    add_recurrence_check,
    corollary3_check,
    euler_ladder_check,
    g_identity_check,
    hit_zsu_check,
    lemma3_delta_check,
    phi_series,
    reciprocity_check,
    recurrence25_check,
    run_suites,
    step_zsu_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
