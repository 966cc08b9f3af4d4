"""XR-Adm: online configuration distribution (Sec. VI-D).

In production an idle admin thread per X-RDMA process receives parameter
updates pushed by XR-Adm.  Here the tool fans ``set_flag`` out to every
registered context and reports per-context success/failure, preserving the
online/offline distinction of Table III.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.xrdma.config import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.xrdma.context import XrdmaContext


class XrAdm:
    """Cluster-wide configuration administrator."""

    def __init__(self) -> None:
        self.contexts: List["XrdmaContext"] = []

    def register(self, ctx: "XrdmaContext") -> None:
        self.contexts.append(ctx)

    # --------------------------------------------------------------- actions
    def set(self, name: str, value: Any) -> Dict[str, Any]:
        """Push one parameter everywhere; returns {ctx_name: 'ok'|error}."""
        results: Dict[str, Any] = {}
        for ctx in self.contexts:
            try:
                ctx.set_flag(name, value)
                results[ctx.name] = "ok"
            except ConfigError as error:
                results[ctx.name] = str(error)
        return results

    def get(self, name: str) -> Dict[str, Any]:
        """Read one parameter from every context."""
        return {ctx.name: getattr(ctx.config, name) for ctx in self.contexts}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Full configuration dump per context."""
        return {ctx.name: ctx.config.snapshot() for ctx in self.contexts}
