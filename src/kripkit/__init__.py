"""kripkit: a finite-frame workbench for monadic intuitionistic and modal logic.

The package is organized around five layers:

- `syntax`: formula ASTs, a parser/printer pair, and the translation into the
  classical modal language.
- `frames`: one finite frame type, points with an order `r` and a second
  relation `s`, in an intuitionistic kind (`IntFrame`, `s` read as `q`) and
  a modal kind (`MS4Frame`, `s` read as `e`); the well-formedness checks of
  each kind, and the derived relations that connect the two kinds.
- `semantics`: exhaustive valuation-based model checking on both kinds.
- `functors` / `morphisms`: the quotient and expansion constructions between
  the two frame kinds, structure-preserving maps, and the lifting of
  reductions along the quotient.
- `enumeration` / `workbench` / `cli`: frame generation up to isomorphism,
  scripted experiments with reproducible reports, and the command line.

The names below state the paper's claims or serve the experiments and the
command line; test oracles such as `find_isomorphism`, `canonical_form` and
`desugar` stay in their modules, and `max_points` lives in the tests.
"""

from .syntax import (
    Formula,
    LanguageError,
    ParseError,
    corpus,
    godel_translate,
    parse,
    print_formula,
    star_translate,
)
from .frames import (
    BoundExceeded,
    IntFrame,
    InvalidFrameError,
    MS4Frame,
    Relation,
    er,
    grz_max_check,
    has_clean_clusters,
    is_finite_mgrz,
    qe,
    validate_int_frame,
    validate_ms4_frame,
)
from .semantics import (
    Countermodel,
    Valuation,
    countermodel,
    frame_validates,
    truth_set,
)
from .functors import QuotientMap, sigma, skeleton, skeleton_map
from .morphisms import (
    FrameMap,
    condition4_eform,
    enumerate_reductions,
    is_mipc_morphism,
    is_ms4_morphism,
    is_p_morphism,
    is_reduction,
    lift_reduction,
)
from .enumeration import EnumerationConfig, enumerate_frames
from .workbench import (
    ExperimentReport,
    experiment_ids,
    load_frame,
    run_all,
    run_experiment,
    save_frame,
)

__version__ = "0.1.0"

__all__ = [
    "Formula",
    "ParseError",
    "LanguageError",
    "parse",
    "print_formula",
    "godel_translate",
    "star_translate",
    "corpus",
    "Relation",
    "IntFrame",
    "MS4Frame",
    "BoundExceeded",
    "InvalidFrameError",
    "validate_int_frame",
    "validate_ms4_frame",
    "er",
    "qe",
    "has_clean_clusters",
    "grz_max_check",
    "is_finite_mgrz",
    "Valuation",
    "Countermodel",
    "truth_set",
    "frame_validates",
    "countermodel",
    "QuotientMap",
    "skeleton",
    "skeleton_map",
    "sigma",
    "FrameMap",
    "is_p_morphism",
    "is_mipc_morphism",
    "condition4_eform",
    "is_ms4_morphism",
    "is_reduction",
    "enumerate_reductions",
    "lift_reduction",
    "EnumerationConfig",
    "enumerate_frames",
    "ExperimentReport",
    "experiment_ids",
    "run_experiment",
    "run_all",
    "load_frame",
    "save_frame",
    "__version__",
]
