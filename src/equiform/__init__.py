"""equiform: exact invariant-form calculus on associated bundles.

The package builds the minimal dictionary of invariant differential forms on
a vector bundle associated to a reductive homogeneous space, computes exterior
derivatives in terms of that dictionary, and verifies closedness equations for
geometric structures, all in exact arithmetic.

The usual entry points, bottom of the tower first:

* `NumberField` / `FieldElement`: rationals extended by square roots.
* `RingSpec`, `Ring`, `Scalar`: Laurent monomial coefficients with radical
  rewriting.
* `Form`, `wedge`: exterior algebra over a finite frame.
* `validate_setup`: checks structure constants, splitting and fiber
  representation, returns a `HomogeneousSetup`.
* `exterior_derivative`, `covariant_derivative_DX`: d and D on invariant
  forms and equivariant letters, one antiderivation on the frame whose
  gauge terms decide invariance and equivariance; an `InvariantForm`
  carries a proof of invariance, and its d skips the gauge terms.
* `generate_dictionary`, `completeness_check`, `differential_table`,
  `express_in_generators`: the dictionary engine.
* `build_context`, `parse_form_expression`: the expression language.
* `verify_closed`, `verify_equation`: closedness checks, optionally on the
  unit sphere bundle.
* `parse_config`, `realize_config`, and the `equiform` command line for the
  declarative route.
"""

from equiform.config import (
    ConfigDocument,
    ConfigError,
    RealizedConfig,
    parse_config,
    realize_config,
)
from equiform.dictionary import (
    Alphabet,
    CompletenessReport,
    Dictionary,
    EngineError,
    Word,
    completeness_check,
    differential_table,
    express_in_generators,
    generate_dictionary,
)
from equiform.expressions import (
    ExpressionContext,
    ExpressionError,
    build_context,
    parse_form_expression,
)
from equiform.forms import (
    Form,
    Frame,
    FrameSpec,
    bidegree_split,
    evaluate_to_vector,
    interior,
    map_form,
    wedge,
)
from equiform.homogeneous import (
    HomogeneousSetup,
    InvariantForm,
    LieAlgebraData,
    Representation,
    SetupError,
    Splitting,
    exterior_derivative,
    invariant_dimension,
    is_basic,
    is_invariant,
    make_algebra,
    make_representation,
    stabilizer_of_vector,
    validate_setup,
)
from equiform.letters import (
    Contraction,
    Letter,
    LetterError,
    contract_syllable,
    covariant_derivative_DX,
    det_contraction,
    dot_contraction,
    letter_a,
    letter_b,
    letter_from_T_valued_map,
    letter_from_bilinear_map,
    make_contraction,
    make_letter,
)
from equiform.numberfield import FieldElement, NumberField
from equiform.report import ReportDocument, ReportError, TaskReport
from equiform.scalars import Point, RadicalSpec, Ring, RingMap, RingSpec, Scalar
from equiform.verify import (
    Verdict,
    VerifyError,
    sphere_reduce,
    vanishes_on_sphere,
    verify_closed,
    verify_equation,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CompletenessReport",
    "ConfigDocument",
    "ConfigError",
    "Contraction",
    "Dictionary",
    "EngineError",
    "ExpressionContext",
    "ExpressionError",
    "FieldElement",
    "Form",
    "Frame",
    "FrameSpec",
    "HomogeneousSetup",
    "InvariantForm",
    "Letter",
    "LetterError",
    "LieAlgebraData",
    "NumberField",
    "Point",
    "RadicalSpec",
    "RealizedConfig",
    "ReportDocument",
    "ReportError",
    "Representation",
    "Ring",
    "RingMap",
    "RingSpec",
    "Scalar",
    "SetupError",
    "Splitting",
    "TaskReport",
    "Verdict",
    "VerifyError",
    "Word",
    "bidegree_split",
    "build_context",
    "completeness_check",
    "contract_syllable",
    "covariant_derivative_DX",
    "det_contraction",
    "differential_table",
    "dot_contraction",
    "evaluate_to_vector",
    "express_in_generators",
    "exterior_derivative",
    "generate_dictionary",
    "interior",
    "invariant_dimension",
    "is_basic",
    "is_invariant",
    "letter_a",
    "letter_b",
    "letter_from_T_valued_map",
    "letter_from_bilinear_map",
    "make_algebra",
    "make_contraction",
    "make_letter",
    "make_representation",
    "map_form",
    "parse_config",
    "parse_form_expression",
    "realize_config",
    "sphere_reduce",
    "stabilizer_of_vector",
    "validate_setup",
    "vanishes_on_sphere",
    "verify_closed",
    "verify_equation",
    "wedge",
    "__version__",
]
