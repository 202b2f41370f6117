"""paircert: exact-arithmetic certification for weighted integer-pair systems.

The package keeps every measure-level computation in exact rational
arithmetic and certifies transcendental bound comparisons with directed
interval arithmetic, so a reported verdict is never a rounding artifact.
"""

from .arith import Interval, compare_power, const, exp_of, factorize, interval_eval, log_of, primes_upto, valuation
from .model import (
    MultiplicativeFunction,
    PairSystem,
    TOTIENT,
    WeightFunction,
    mu_pairs,
    mu_point,
    mu_set,
    validate_multiplicative,
)
from .quality import (
    BoundReport,
    Params,
    build_edge_set,
    build_edge_set_bruteforce,
    certify_le,
    d_value,
    main_bound_check,
    omega_t,
    prime_support,
    restrict,
)
from .compress import Slice, slice_system, verify_slice_identities
from .diagonal import (
    CenterResult,
    DiagonalMeasure,
    bilinear_check,
    concentrate,
    decay_hypothesis_report,
    diagonal_measure,
    find_center,
    peel,
    property_two_holds,
    property_two_report,
)
from .anatomy import (
    AnatomyReport,
    count_chain_report,
    count_many_small_primes,
    divisor_anatomy_bound,
    divisor_anatomy_sum,
    divisor_chain_report,
    mertens_product,
    rankin_divisor_product,
    rankin_divisor_sum,
    rankin_sum,
    ratio_to_log_power,
)
from .resolution import (
    Decomposition,
    ResolutionReport,
    SSums,
    build_decomposition,
    check_structured,
    decompose,
    resolution_check,
    s_majorant,
    s_sums,
)
from .harness import (
    CampaignReport,
    GeneratorConfig,
    certify_campaign,
    certify_instance,
    corollary_bound_check,
    generate_instance,
    load_instance,
    rescale_kmy,
    save_instance,
)

__version__ = "0.1.0"
