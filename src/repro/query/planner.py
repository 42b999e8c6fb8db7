"""Plan selection and the one run path: which ASR (if any) answers a query.

Eq. 35's case analysis: an access support relation can answer
``Q_{i,j}`` only when its extension covers the query's range (canonical:
whole path; left: prefixes; right: suffixes; full: any); otherwise the
query falls back to unsupported evaluation (Eqs. 31-32).

A covering ASR may still be unreadable right now — quarantined (see
:mod:`repro.asr.journal`: its trees may be torn) or refused by its
circuit breaker on the attached
:class:`~repro.resilience.breaker.BreakerBoard`.  Either is an *access
restriction* (:func:`~repro.query.evaluator.access_restriction`, the one
predicate): the relation counts as absent and the plan degrades to
another covering decomposition or to the unsupported evaluation —
results stay correct, only the page profile suffers.  Quarantine is a
pure read and is checked for every covering ASR.  ``allow_query`` is
stateful (a half-open breaker admits exactly one probe), so the breaker
restricts only the plans that would use its ASR: :meth:`Planner.plan`
asks it only of a candidate priced below the best plan so far, in price
order, and :meth:`Planner.recheck` once more for a plan frozen earlier.
A probe is therefore spent only on a decision its ASR wins.

Among the usable ASRs and the fallback the cheapest wins, priced by the
manager's one price list (``ASRManager.costs``, a
:class:`~repro.costmodel.measured.MeasuredCosts`): the analytical model
over the measured profile of the queried path, so the traversal/scan
wins whenever it is priced cheaper — the paper's Figure 8: a query
whose endpoint falls inside a partition degenerates to an exhaustive
scan of that partition, which can cost more than no support at all.

What does not change between decisions is priced once: per query shape
``(path, i, j, kind)`` the planner remembers the fallback's price and
every covering ASR with its price, valid for one ``manager.epoch`` and
one generation of the price list (:meth:`Planner._priced`), so it
survives updates: maintenance moves neither.  Restrictions are never
remembered — each decision asks afresh.

:meth:`Planner.run` is the only place a plan is executed and its
outcome reported (breaker board, drift monitor — the latter gets the
plan's own price, ``Plan.estimated_pages``);
:meth:`Planner.execute` is ``plan`` + ``run`` under one hold of the
manager's read lock: all three share lock-free bodies (``_plan``,
``_run``) that expect the caller to hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.asr.asr import AccessSupportRelation
from repro.asr.manager import ASRManager
from repro.query.evaluator import (
    EvaluationResult,
    QueryEvaluator,
    access_restriction,
)
from repro.query.queries import Query


@dataclass(frozen=True)
class Plan:
    """A chosen evaluation strategy for one query."""

    query: Query
    asr: AccessSupportRelation | None
    estimated_pages: float
    #: Covering, consistent ASRs the breaker board vetoed (open
    #: breakers) while this plan was chosen.
    breaker_blocked: int = 0
    #: ``"quarantined"`` or ``"breaker-open"`` when covering ASRs exist
    #: but restrictions left none usable (a *degraded* plan); ``None``
    #: otherwise, including the deliberate Figure 8 fallback.
    restriction: str | None = None

    def describe(self) -> str:
        """One line; a plan without an ASR says why it has none.

        ``priced ~N pages`` is a fallback at its price, below every
        usable covering ASR (Figure 8) or with none to beat,
        ``degraded: <restriction>`` one forced by an access restriction,
        and ``no usable ASR`` one the model prices no plan for.
        """
        if self.asr is None:
            if self.restriction is not None:
                why = f"degraded: {self.restriction}"
            elif self.estimated_pages == float("inf"):
                why = "no usable ASR"
            else:
                why = f"priced ~{self.estimated_pages:.0f} pages"
            return f"{self.query}: unsupported traversal/scan ({why})"
        return (
            f"{self.query}: via ASR[{self.asr.extension.value}, "
            f"dec={self.asr.decomposition}] (~{self.estimated_pages:.0f} pages)"
        )


def mark_restriction(trace, restriction: str | None) -> None:
    """Mark ``trace`` as answered under ``restriction`` (tail capture keeps it)."""
    if trace is not None and restriction is not None:
        trace.mark("degraded" if restriction == "quarantined" else restriction)


class Planner:
    """Chooses among registered ASRs and the unsupported fallback, and runs it.

    Ranks by ``manager.costs`` (:meth:`cost`; anything with
    ``predict_query`` and a ``generation`` that changes whenever its
    prices may), so every planner over one manager prices alike.  Both
    other collaborators are optional and duck-typed.  ``drift`` (a
    :class:`~repro.telemetry.drift.DriftMonitor`: ``observe_query``)
    gets every run plan's measured pages against the price it was
    chosen at.  ``breakers`` (a
    :class:`~repro.resilience.breaker.BreakerBoard`: ``allow_query`` /
    ``record_success`` / ``record_failure``) vetoes candidates and is
    fed by every supported evaluation.
    """

    def __init__(self, manager: ASRManager, drift=None, breakers=None) -> None:
        self.manager = manager
        self.drift = drift
        self.breakers = breakers
        #: ``(path, i, j, kind)`` -> ``(stamp, fallback price, ((asr,
        #: price), ...))``; see :meth:`_priced`.
        self._decisions: dict = {}

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------

    def _covering(self, query: Query) -> list[AccessSupportRelation]:
        """Registered ASRs whose extension covers ``query`` (Eq. 35)."""
        return [
            asr
            for asr in self.manager.asrs
            if asr.path == query.path and asr.supports_query(query.i, query.j)
        ]

    def _priced(self, query: Query) -> tuple[float, tuple]:
        """The fallback's price and every covering ASR with its price.

        What a decision needs that does not change between decisions:
        remembered per query shape ``(path, i, j, kind)`` for one
        ``manager.epoch`` (every registration, replace and quarantine
        transition bumps it; maintenance does not, since it changes no
        ASR and no price) and one generation of ``manager.costs``
        (:meth:`MeasuredCosts.invalidate
        <repro.costmodel.measured.MeasuredCosts.invalidate>` bumps it
        without touching the epoch).  Candidates are in price order,
        and a tie keeps registration order, so the first registered
        wins it.  The caller holds the read lock.
        """
        manager = self.manager
        costs = manager.costs
        stamp = (manager.epoch, costs, costs.generation)
        key = (query.path, query.i, query.j, query.kind)
        entry = self._decisions.get(key)
        if entry is None or entry[0] != stamp:
            entry = self._decisions[key] = (
                stamp,
                self.cost(query, None),
                tuple(
                    sorted(
                        ((asr, self.cost(query, asr)) for asr in self._covering(query)),
                        key=lambda candidate: candidate[1],
                    )
                ),
            )
        return entry[1], entry[2]

    def applicable(self, query: Query) -> list[AccessSupportRelation]:
        """All registered ASRs that may answer ``query`` per Eq. 35.

        Quarantined ASRs are excluded: reading possibly-torn trees could
        return wrong results, and wrong is worse than slow.  (Breakers
        are not consulted — asking one is not a pure read.)
        """
        with self.manager.lock.read():
            return [
                asr for asr in self._covering(query) if access_restriction(asr) is None
            ]

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------

    def cost(self, query: Query, asr: AccessSupportRelation | None) -> float:
        """The price of answering ``query`` through ``asr`` (``None``: without).

        The model's Eqs. 31-34 through ``manager.costs``, where a shape
        the model cannot price ranks last.
        """
        predicted = self.manager.costs.predict_query(query, asr)
        return float("inf") if predicted is None else predicted

    # ------------------------------------------------------------------
    # plan, run, execute
    # ------------------------------------------------------------------

    def plan(self, query: Query, context=None) -> Plan:
        """The cheapest plan for ``query`` among usable ASRs and the fallback.

        ``context`` (an :class:`~repro.context.ExecutionContext`) gets
        the decision counted: ``plan.supported`` / ``plan.unsupported``,
        ``plan.breaker-open`` per vetoed ASR, and
        ``plan.degraded-fallback`` for a plan with a :attr:`Plan.restriction`.
        """
        with self.manager.lock.read():
            return self._plan(query, context)

    def _plan(self, query: Query, context) -> Plan:
        """:meth:`plan` under a read hold the caller already has.

        Prices come from :meth:`_priced`; restrictions never do.  Every
        candidate's quarantine is read, but its breaker is asked only
        when the candidate would beat the best plan so far, so a
        half-open breaker's one probe goes to a decision its ASR wins.
        """
        best_cost, candidates = self._priced(query)
        best = None
        quarantined = vetoed = 0
        for asr, cost in candidates:
            breakers = self.breakers if cost < best_cost else None
            restriction = access_restriction(asr, breakers)
            if restriction == "quarantined":
                quarantined += 1
            elif restriction == "breaker-open":
                vetoed += 1
            elif cost < best_cost:
                best, best_cost = asr, cost
        restriction = None
        if best is None:
            if quarantined:
                restriction = "quarantined"
            elif vetoed:
                restriction = "breaker-open"
        if context is not None:
            context.count("plan.unsupported" if best is None else "plan.supported")
            if vetoed:
                context.count("plan.breaker-open", vetoed)
            if restriction is not None:
                context.count("plan.degraded-fallback")
        return Plan(
            query, best, best_cost, breaker_blocked=vetoed, restriction=restriction
        )

    def recheck(self, plan: Plan) -> Plan:
        """``plan`` as it stands under the restrictions in force *now*.

        For plans frozen earlier (the compiled-plan cache): a supported
        plan whose ASR has since been quarantined or breaker-vetoed
        comes back unsupported, priced as the fallback, with the
        restriction named.  Consults the breaker once, like a fresh
        decision.
        """
        if plan.asr is None:
            return plan
        restriction = access_restriction(plan.asr, self.breakers)
        if restriction is None:
            return plan
        return replace(
            plan,
            asr=None,
            estimated_pages=self.cost(plan.query, None),
            restriction=restriction,
        )

    def run(
        self, plan: Plan, evaluator: QueryEvaluator, trace=None
    ) -> EvaluationResult:
        """Evaluate ``plan`` and report what happened to every collaborator.

        The manager's read lock is held across the probes, so a
        concurrent flush or recovery can never mutate a tree mid-query
        (readers share; writers wait).  A supported evaluation blowing
        up is breaker evidence (a half-open probe failing re-opens), a
        success closes a probing breaker.  The drift monitor gets the
        measured pages against ``plan.estimated_pages``, the price the
        plan was chosen at.  ``trace`` books the evaluation as the
        ``execute`` phase.
        """
        with self.manager.lock.read():
            return self._run(plan, evaluator, trace)

    def _run(self, plan: Plan, evaluator: QueryEvaluator, trace) -> EvaluationResult:
        """:meth:`run` under a read hold the caller already has.

        ``evaluator`` is reached only through ``evaluate_supported``,
        ``evaluate_unsupported`` and ``context``, so a wrapper offering
        those three stands in for it.
        """
        if trace is None:
            result = self._evaluate(plan, evaluator)
        else:
            with trace.span("query.evaluate", "execute"):
                result = self._evaluate(plan, evaluator)
        if self.drift is not None:
            self.drift.observe_query(
                plan.query, plan.asr, result.total_pages, plan.estimated_pages
            )
        return result

    def _evaluate(self, plan: Plan, evaluator: QueryEvaluator) -> EvaluationResult:
        asr = plan.asr
        if asr is None:
            return evaluator.evaluate_unsupported(plan.query)
        try:
            result = evaluator.evaluate_supported(plan.query, asr)
        except Exception:
            if self.breakers is not None:
                self.breakers.record_failure(asr)
            raise
        if self.breakers is not None:
            self.breakers.record_success(asr)
        return result

    def execute(
        self, query: Query, evaluator: QueryEvaluator, trace=None
    ) -> EvaluationResult:
        """Plan and run in one step, under one hold of the read lock.

        ``trace`` records the plan decision as the ``plan`` phase and
        the evaluation as ``execute``; a degraded decision marks the
        trace's outcome so tail capture retains it.
        """
        with self.manager.lock.read():
            if trace is None:
                plan = self._plan(query, evaluator.context)
            else:
                with trace.span("query.plan", "plan"):
                    plan = self._plan(query, evaluator.context)
                mark_restriction(trace, plan.restriction)
            return self._run(plan, evaluator, trace)
