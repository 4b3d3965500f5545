"""Branch predictors.

Every predictor the paper uses or references is implemented here:

* :mod:`~repro.predictors.counters` -- n-bit saturating up-down counters
  and pattern-history-table (PHT) storage.
* :mod:`~repro.predictors.static_` -- static schemes, including the
  paper's per-branch-majority "ideal static" predictor.
* :mod:`~repro.predictors.bimodal` -- Smith's 2-bit counter predictor.
* :mod:`~repro.predictors.twolevel` -- the Yeh/Patt two-level family
  (GAs, GAp, gshare, PAs, PAp) with configurable history and PHT sizes.
* :mod:`~repro.predictors.interference_free` -- interference-free gshare
  and PAs (one PHT per static branch), as used by the paper's analyses.
* :mod:`~repro.predictors.path` -- Nair-style path-history predictor.
* :mod:`~repro.predictors.loop` -- the loop predictor of section 4.1.1.
* :mod:`~repro.predictors.pattern` -- fixed-length-k and block-pattern
  predictors of section 4.1.2.
* :mod:`~repro.predictors.selective` -- the oracle selective-history
  predictor of section 3.4.
* :mod:`~repro.predictors.hybrid` -- McFarling chooser hybrids and the
  oracle per-branch combiners behind Tables 2 and 3.
* :mod:`~repro.predictors.profile_based` -- the section-2.2 related-work
  schemes: statically-determined PHTs (Sechrest/Young) and Chang's
  branch-classification hybrid.

:data:`PREDICTOR_REGISTRY` maps the spec names ``repro simulate
--predictor`` accepts to default-constructible factories, and
:func:`parse_predictor_spec` builds a predictor from one such spec.
"""

from typing import Callable, Dict

from repro.errors import SpecError
from repro.predictors.base import BranchPredictor, simulate
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.counters import CounterTable, SaturatingCounter
from repro.predictors.hybrid import ChooserHybrid, OracleCombiner
from repro.predictors.interference_free import (
    InterferenceFreeGshare,
    InterferenceFreePAs,
)
from repro.predictors.loop import LoopPredictor
from repro.predictors.path import PathBasedPredictor
from repro.predictors.pattern import (
    BlockPatternPredictor,
    FixedLengthPatternPredictor,
    best_fixed_length_correct,
)
from repro.predictors.profile_based import (
    BranchClassificationHybrid,
    StaticPhtGlobal,
    StaticPhtPAs,
)
from repro.predictors.selective import SelectiveHistoryPredictor
from repro.predictors.skewed import SkewedPredictor
from repro.predictors.static_ import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BackwardTakenPredictor,
    IdealStaticPredictor,
    ProfileStaticPredictor,
)
from repro.predictors.twolevel import (
    GAgPredictor,
    GAsPredictor,
    GsharePredictor,
    PAgPredictor,
    PAsPredictor,
)


def _fixed_pattern_factory(k: int = 8) -> FixedLengthPatternPredictor:
    """Default-constructible wrapper (the class itself requires ``k``)."""
    return FixedLengthPatternPredictor(k)


#: Predictor factories by spec name (``simulate --predictor``).
PREDICTOR_REGISTRY: Dict[str, Callable[..., BranchPredictor]] = {
    "always-taken": AlwaysTakenPredictor,
    "always-not-taken": AlwaysNotTakenPredictor,
    "btfnt": BackwardTakenPredictor,
    "ideal-static": IdealStaticPredictor,
    "bimodal": BimodalPredictor,
    "gag": GAgPredictor,
    "gas": GAsPredictor,
    "gshare": GsharePredictor,
    "pag": PAgPredictor,
    "pas": PAsPredictor,
    "if-gshare": InterferenceFreeGshare,
    "if-pas": InterferenceFreePAs,
    "loop": LoopPredictor,
    "block": BlockPatternPredictor,
    "fixed": _fixed_pattern_factory,
    "selective": SelectiveHistoryPredictor,
    "path": PathBasedPredictor,
    "egskew": SkewedPredictor,
}


def parse_predictor_spec(spec: str) -> BranchPredictor:
    """Instantiate a predictor from ``name[:key=value,...]``.

    Values are parsed as integers (every registry parameter is an int
    width or size).

    Raises:
        SpecError: On an unknown predictor name, a malformed
            ``key=value`` pair, or arguments the predictor's
            constructor rejects -- always naming the offending spec.
    """
    name, _, argument_text = spec.partition(":")
    try:
        factory = PREDICTOR_REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown predictor {name!r} in spec {spec!r}; choose "
            f"from {', '.join(sorted(PREDICTOR_REGISTRY))}"
        ) from None
    kwargs = {}
    if argument_text:
        for item in argument_text.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise SpecError(
                    f"malformed predictor argument {item!r} in spec "
                    f"{spec!r}; expected key=value"
                )
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                raise SpecError(
                    f"predictor argument {item!r} in spec {spec!r} "
                    "is not an integer"
                ) from None
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as error:
        raise SpecError(
            f"bad arguments for predictor {name!r} in spec "
            f"{spec!r}: {error}"
        ) from None

__all__ = [
    "AlwaysNotTakenPredictor",
    "AlwaysTakenPredictor",
    "BackwardTakenPredictor",
    "BimodalPredictor",
    "BlockPatternPredictor",
    "BranchClassificationHybrid",
    "BranchPredictor",
    "ChooserHybrid",
    "CounterTable",
    "FixedLengthPatternPredictor",
    "GAgPredictor",
    "GAsPredictor",
    "GsharePredictor",
    "IdealStaticPredictor",
    "InterferenceFreeGshare",
    "InterferenceFreePAs",
    "LoopPredictor",
    "OracleCombiner",
    "PAgPredictor",
    "PAsPredictor",
    "PREDICTOR_REGISTRY",
    "PathBasedPredictor",
    "ProfileStaticPredictor",
    "SaturatingCounter",
    "SelectiveHistoryPredictor",
    "SkewedPredictor",
    "StaticPhtGlobal",
    "StaticPhtPAs",
    "best_fixed_length_correct",
    "parse_predictor_spec",
    "simulate",
]
