"""kronlab: exact-arithmetic lab for twisted Kronecker series, twisted
Eisenstein series, Rankin-Cohen brackets and period polynomials on Gamma0(N),
verifying the product/period generating-function identity at desk scale.
"""

from .arith import (
    Cyclotomic,
    bernoulli_number,
    bernoulli_polynomial,
    embed_complex,
)
from .dirichlet import (
    DirichletCharacter,
    ParityError,
    enumerate_characters,
    gauss_sum,
    l_value_negative,
    l_value_numeric,
    trivial_character,
    twisted_bernoulli,
)
from .kronecker import (
    KroneckerJet,
    g_coefficient,
    kron_fourier,
    kron_laurent,
    product_B,
    rc_bracket,
    rc_bracket_modified,
)
from .modforms import (
    EisensteinForm,
    SignCharacter,
    cusp_limit,
    eisenstein_g,
    eisenstein_g_chi,
    eisenstein_g_eps,
    eisenstein_h_chi,
    extract_rank_one_cusp,
    hecke_Tp,
    level_raise,
    sign_characters,
)
from .numeric import (
    Context,
    cusp_period,
    eval_F,
    eval_F_chi,
    eval_slashed,
    theta,
    twisted_cusp_period,
)
from .periods import (
    OmegaConstants,
    PeriodData,
    RPolynomial,
    assemble_R,
    generating_C,
    period_eisenstein,
    period_eisenstein_twisted,
    petersson_fit,
    rational_snap,
)
from .series import (
    BiJet,
    LaurentPolyX,
    PrecisionError,
    QSeries,
    TriGen,
    bijet_substitute,
    qs_add,
    qs_mul,
    qs_rescale,
    qs_scale,
    theta_op,
    trigen_mul,
)

__version__ = "0.1.0"
