"""interlab: interchange of minimization and monotone integration, verified
by exhaustive computation on finite atomic measure spaces."""

from .errors import (
    BudgetError,
    DomainError,
    InputError,
    InterlabError,
    InvariantError,
    ScenarioError,
)
from .extreal import (
    NEG_INF,
    POS_INF,
    add,
    ext,
    lower_add,
    scalar_mul,
    upper_add,
)
from .measure import AtomSet, MeasureSpace, is_null, iter_atom_subsets, measure
from .fnlattice import (
    FnClass,
    IntegrabilityTag,
    classify,
    ess_sup_value,
    fn_add,
    fn_neg,
    fn_scale,
    fn_shift,
    lp_norm,
    mu_leq,
    pointwise_inf,
    pos_neg_parts,
)
from .integrals import (
    Capacity,
    choquet,
    inner_integral,
    lebesgue_extended,
    lebesgue_nonneg,
    outer_integral,
)
from .functionals import (
    Functional,
    make_builtin,
    parameterless_builtins,
)
from .interchange import (
    Family,
    InterchangeReport,
    SequenceSpec,
    check_seq_inf_continuity,
    giner_gap_directed,
    is_phi_inf_directed,
    verify_interchange,
    verify_interchange_sequence,
)
from .decomposable import (
    Integrand,
    SelectionSet,
    ShapiroScenario,
    is_decomposable,
    verify_rw_argmin,
    verify_rw_interchange,
    verify_shapiro,
)

__version__ = "0.1.0"
