"""Portability data: the paper's Table 3.

Table 3 of the paper shows that the six RMA calls the locks rely on exist in
every major RMA/PGAS environment (UPC, Berkeley UPC, SHMEM, Fortran 2008,
Linux RDMA/IB verbs, iWARP).  :data:`PORTABILITY_TABLE` maps each Listing-1
call to its counterpart per environment, exactly as printed in the paper
(including the Fortran caveat about the missing atomic swap); ``repro info``
prints the per-environment summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "PORTABILITY_TABLE",
    "PortabilityEntry",
    "environments",
    "operations",
    "supports_all_required_ops",
]


@dataclass(frozen=True)
class PortabilityEntry:
    """How one RMA call is expressed in one environment."""

    environment: str
    operation: str
    equivalent: str
    note: Optional[str] = None

    @property
    def supported(self) -> bool:
        """False when the environment needs a protocol adjustment for this call."""
        return self.note is None


#: Table 3 of the paper, row by row.
PORTABILITY_TABLE: List[PortabilityEntry] = [
    # UPC (standard)
    PortabilityEntry("upc", "put", "UPC_SET"),
    PortabilityEntry("upc", "get", "UPC_GET"),
    PortabilityEntry("upc", "accumulate", "UPC_INC"),
    PortabilityEntry("upc", "fao_sum", "UPC_INC / UPC_DEC"),
    PortabilityEntry("upc", "fao_replace", "UPC_SET"),
    PortabilityEntry("upc", "cas", "UPC_CSWAP"),
    # Berkeley UPC
    PortabilityEntry("berkeley-upc", "put", "bupc_atomicX_set_RS"),
    PortabilityEntry("berkeley-upc", "get", "bupc_atomicX_read_RS"),
    PortabilityEntry("berkeley-upc", "accumulate", "bupc_atomicX_fetchadd_RS"),
    PortabilityEntry("berkeley-upc", "fao_sum", "bupc_atomicX_fetchadd_RS"),
    PortabilityEntry("berkeley-upc", "fao_replace", "bupc_atomicX_swap_RS"),
    PortabilityEntry("berkeley-upc", "cas", "bupc_atomicX_cswap_RS"),
    # SHMEM
    PortabilityEntry("shmem", "put", "shmem_swap"),
    PortabilityEntry("shmem", "get", "shmem_mswap"),
    PortabilityEntry("shmem", "accumulate", "shmem_fadd"),
    PortabilityEntry("shmem", "fao_sum", "shmem_fadd"),
    PortabilityEntry("shmem", "fao_replace", "shmem_swap"),
    PortabilityEntry("shmem", "cas", "shmem_cswap"),
    # Fortran 2008
    PortabilityEntry("fortran-2008", "put", "atomic_define"),
    PortabilityEntry("fortran-2008", "get", "atomic_ref"),
    PortabilityEntry("fortran-2008", "accumulate", "atomic_add"),
    PortabilityEntry("fortran-2008", "fao_sum", "atomic_add"),
    PortabilityEntry(
        "fortran-2008",
        "fao_replace",
        "atomic_define",
        note="Fortran 2008 lacks an atomic swap; protocols relying on it need a different atomic mix.",
    ),
    PortabilityEntry("fortran-2008", "cas", "atomic_cas"),
    # Linux RDMA / InfiniBand verbs
    PortabilityEntry("rdma-ib", "put", "MskCmpSwap"),
    PortabilityEntry("rdma-ib", "get", "MskCmpSwap"),
    PortabilityEntry("rdma-ib", "accumulate", "FetchAdd"),
    PortabilityEntry("rdma-ib", "fao_sum", "FetchAdd"),
    PortabilityEntry("rdma-ib", "fao_replace", "MskCmpSwap"),
    PortabilityEntry("rdma-ib", "cas", "CmpSwap"),
    # iWARP
    PortabilityEntry("iwarp", "put", "masked CmpSwap"),
    PortabilityEntry("iwarp", "get", "masked CmpSwap"),
    PortabilityEntry("iwarp", "accumulate", "FetchAdd"),
    PortabilityEntry("iwarp", "fao_sum", "FetchAdd"),
    PortabilityEntry("iwarp", "fao_replace", "masked CmpSwap"),
    PortabilityEntry("iwarp", "cas", "CmpSwap"),
]


def environments() -> List[str]:
    """All environments covered by Table 3, in table order."""
    seen: List[str] = []
    for entry in PORTABILITY_TABLE:
        if entry.environment not in seen:
            seen.append(entry.environment)
    return seen


def operations(environment: str) -> Dict[str, PortabilityEntry]:
    """The per-operation mapping for one environment."""
    table = {e.operation: e for e in PORTABILITY_TABLE if e.environment == environment}
    if not table:
        raise KeyError(f"unknown environment {environment!r}; known: {environments()}")
    return table


def supports_all_required_ops(environment: str) -> bool:
    """True when every Listing-1 call maps cleanly (no protocol adjustment needed)."""
    return all(entry.supported for entry in operations(environment).values())
