"""Physical database design advisor.

The paper's conclusion: "the cost model … can be used to compute for all
(feasible) design choices the expected cost of pre-determined database
usage profiles.  From this, the best suited access support relation
extension and decomposition can be selected" — and it is "intended to be
integrated into our object-oriented DBMS … to (semi-)automate the task
of physical database design."

:class:`DesignAdvisor` is that component: it enumerates every
decomposition of the path (``2^{n-1}`` of them) crossed with the four
extensions, plus the no-support baseline, evaluates each under a given
operation mix and update probability, and ranks the designs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.costmodel.opmix import MixCostModel, OperationMix
from repro.costmodel.parameters import ApplicationProfile, SystemParameters


@dataclass(frozen=True)
class DesignChoice:
    """One ranked physical design.

    ``extension is None`` denotes the no-support baseline (no ASR at
    all); ``storage_bytes`` is then 0.
    """

    extension: Extension | None
    decomposition: Decomposition | None
    cost: float
    normalized: float
    storage_bytes: float

    def describe(self) -> str:
        if self.extension is None:
            return (
                f"no access support: {self.cost:.1f} pages/op "
                f"(normalized 1.000, no storage overhead)"
            )
        return (
            f"{self.extension.value:>5} dec={self.decomposition}: "
            f"{self.cost:.1f} pages/op (normalized {self.normalized:.3f}, "
            f"{self.storage_bytes / 1024:.0f} KiB)"
        )


class DesignAdvisor:
    """Exhaustive search over (extension, decomposition) designs."""

    def __init__(
        self,
        profile: ApplicationProfile,
        system: SystemParameters | None = None,
    ) -> None:
        self.profile = profile
        self.model = MixCostModel(profile, system)

    def enumerate(
        self,
        mix: OperationMix,
        p_up: float,
        max_storage_bytes: float | None = None,
    ) -> list[DesignChoice]:
        """All designs ranked by expected cost (cheapest first).

        The no-support baseline (``extension`` / ``decomposition`` both
        ``None``, relative cost 1.0) is always among them.

        ``max_storage_bytes`` optionally drops designs whose ASR exceeds a
        storage budget — the knob a database designer actually has.
        """
        baseline = self.model.nosupport_cost(mix, p_up)
        choices = [DesignChoice(None, None, baseline, 1.0, 0.0)]
        for dec in Decomposition.all_for(self.profile.n):
            for extension in Extension:
                storage_bytes = self.model.storage.relation_bytes(extension, dec)
                if max_storage_bytes is not None and storage_bytes > max_storage_bytes:
                    continue
                cost = self.model.mix_cost(extension, dec, mix, p_up)
                choices.append(
                    DesignChoice(
                        extension, dec, cost, cost / baseline if baseline else 0.0,
                        storage_bytes,
                    )
                )
        choices.sort(key=lambda choice: choice.cost)
        return choices

    def best(
        self,
        mix: OperationMix,
        p_up: float,
        max_storage_bytes: float | None = None,
    ) -> DesignChoice:
        """The cheapest design for the mix (possibly the baseline)."""
        return self.enumerate(mix, p_up, max_storage_bytes)[0]

    def report(self, mix: OperationMix, p_up: float, top: int = 10) -> str:
        """A human-readable ranking, for the examples and benches."""
        lines = [
            f"design ranking for {mix} at P_up={p_up:g} "
            f"(n={self.profile.n}):"
        ]
        for rank, choice in enumerate(self.enumerate(mix, p_up)[:top], start=1):
            lines.append(f"  {rank:2d}. {choice.describe()}")
        return "\n".join(lines)
