"""The price list: the analytical model over measured profiles (section 7).

Every manager holds one :class:`MeasuredCosts` as ``ASRManager.costs``:
its planners rank plans by it, the drift monitor checks it against
measured pages, and the advisor loop re-measures through it, so one
question on one design has one price wherever it is asked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.costmodel.parameters import ApplicationProfile
from repro.costmodel.profiling import profile_from_database
from repro.costmodel.updatecost import UpdateCostModel
from repro.gom.paths import PathExpression

if TYPE_CHECKING:
    # A top-level import would close the cycle asr.manager -> ... ->
    # query.planner -> asr.manager.
    from repro.query.queries import Query


class MeasuredCosts:
    """Page-access predictions per path, over that path's measured profile.

    The profile of a path is measured from ``db`` on the first price
    asked over it (:func:`~repro.costmodel.profiling.profile_from_database`;
    ``object_sizes`` maps type names to byte sizes, defaulting to
    ``default_size``), never when the price list is built.  It is kept,
    with its Eq. 31-35 and section 6 models and a memo of every price
    computed from them, until :meth:`invalidate`.  Queries are priced over their own path, updates
    over the maintained ASR's; a measured profile makes a prediction's
    drift model error, not input error.  Update prices are the
    maintenance terms ``search + aup`` without the flat
    object-representation constant: the simulator charges maintenance
    pages only.

    Unlocked: prices are pure functions of a profile and a key, so
    racing threads measure the same object base and store equal values.
    """

    def __init__(
        self,
        db,
        object_sizes: dict[str, int] | None = None,
        default_size: int = 100,
    ) -> None:
        self.db = db
        self.object_sizes = object_sizes
        self.default_size = default_size
        #: path -> (its update model, which holds the profile and the
        #: query model, and a memo of their prices).
        self._paths: dict[PathExpression, tuple[UpdateCostModel, dict]] = {}
        #: Bumped by every :meth:`invalidate`: a price remembered under
        #: one generation (a planner's plan decision) is stale under the
        #: next.
        self.generation = 0

    def _models(self, path: PathExpression) -> tuple[UpdateCostModel, dict]:
        entry = self._paths.get(path)
        if entry is None:
            profile = profile_from_database(
                self.db, path, self.object_sizes, self.default_size
            )
            entry = self._paths[path] = (UpdateCostModel(profile), {})
        return entry

    def profile_for(self, path: PathExpression) -> ApplicationProfile:
        """The (cached) measured profile of ``path``."""
        return self._models(path)[0].profile

    @staticmethod
    def _memoised(memo: dict, key: tuple, compute) -> float | None:
        # A shape the model cannot price caches as ``None`` too.
        try:
            return memo[key]
        except KeyError:
            pass
        try:
            predicted = compute()
        except Exception:
            predicted = None
        memo[key] = predicted
        return predicted

    def predict_query(self, query: Query, asr) -> float | None:
        """Predicted pages for ``query`` through ``asr``: Eqs. 33-34 over
        its type decomposition, Eqs. 31-32 when ``asr`` is ``None``.

        A :class:`~repro.query.queries.ValueRangeQuery` has ``kind ==
        "bw"`` and is priced as the point backward query over the same
        ``(i, j)``: the model has no selectivity term, and the front door
        ranks range selects by that price.  Returns ``None`` for shapes
        the model does not price (a kind other than ``fw`` / ``bw``, a
        range outside the profile).
        """
        if query.kind not in ("fw", "bw"):
            return None
        i, j, kind = query.i, query.j, query.kind
        update_model, memo = self._models(query.path)
        model = update_model.querycost
        if asr is None:
            return self._memoised(
                memo, ("query", i, j, kind), lambda: model.qnas(i, j, kind)
            )
        extension, dec = asr.extension, asr.type_decomposition
        return self._memoised(
            memo,
            ("query", i, j, kind, extension, dec),
            lambda: model.qsup(extension, i, j, kind, dec),
        )

    def predict_update(self, level: int, asr) -> float | None:
        """Predicted maintenance pages of ``ins_level`` against ``asr``."""
        model, memo = self._models(asr.path)
        extension, dec = asr.extension, asr.type_decomposition
        return self._memoised(
            memo,
            ("update", level, extension, dec),
            lambda: model.search(extension, level, dec)
            + model.aup(extension, level, dec),
        )

    def invalidate(self, path: PathExpression | None = None) -> None:
        """Drop the profile and memo of ``path`` (of every path when ``None``)."""
        self.generation += 1
        if path is None:
            self._paths.clear()
        else:
            self._paths.pop(path, None)
