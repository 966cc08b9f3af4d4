"""Calibrated constants for the simulated substrate.

One :class:`SimParams` instance is shared by every subsystem in a cluster.
Defaults are calibrated so that the simulated ``ibv_rc_pingpong`` baseline,
rdma_cm establishment and TCP establishment reproduce the magnitudes the
paper reports (Sec. III, Sec. VII):

* 64 B verbs ping-pong one-way latency ≈ 5.3 µs,
* rdma_cm connection establishment ≈ 4 ms (≈ 100 µs for TCP),
* QP create+modify ≈ 1.5 ms of that (recovered by the QP cache),
* 25 Gbps access links (dual-port ConnectX4-Lx ⇒ 50 Gbps per host in
  aggregate; benches use one port unless stated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.timeunits import MICROS, MILLIS


@dataclass
class SimParams:
    """All latency/bandwidth/threshold constants, in ns and bytes."""

    # ----------------------------------------------------------------- links
    link_bandwidth_bps: float = 25e9        #: access & fabric link speed
    link_propagation_ns: int = 350          #: per-hop wire propagation
    mtu_bytes: int = 4096                   #: segment (simulation quantum) size
    header_bytes: int = 58                  #: RoCEv2 header overhead / segment

    # -------------------------------------------------------------- switches
    ecn_kmin_bytes: int = 64 * 1024         #: ECN marking starts here
    ecn_kmax_bytes: int = 256 * 1024        #: marking probability reaches pmax
    ecn_pmax: float = 0.8                   #: max marking probability
    pfc_xoff_bytes: int = 384 * 1024        #: ingress-side pause threshold
    pfc_xon_bytes: int = 256 * 1024         #: resume threshold

    # ------------------------------------------------------------------ RNIC
    nic_wqe_fetch_ns: int = 600             #: doorbell → WQE fetched
    nic_segment_process_ns: int = 150       #: per-segment engine occupancy
    nic_dma_ns: int = 1250                  #: PCIe DMA setup per transfer
    nic_dma_per_byte_ns: float = 0.015      #: PCIe payload streaming cost
    nic_cqe_ns: int = 450                   #: CQE generation cost
    nic_ack_delay_ns: int = 400             #: hardware ACK turnaround
    nic_qp_cache_entries: int = 1024        #: on-NIC QP-context SRAM entries
    nic_qp_cache_miss_ns: int = 320         #: context fetch from host memory
    rc_retransmit_timeout_ns: int = 4 * MILLIS  #: ibv timeout-class value
    rc_rnr_retry_delay_ns: int = 120 * MICROS
    rc_max_retries: int = 7
    max_send_queue_depth: int = 128         #: default SQ depth (WQEs)
    max_recv_queue_depth: int = 128         #: default RQ depth (WQEs)

    # ------------------------------------------------------------------ host
    host_post_overhead_ns: int = 300        #: verbs post_send/post_recv path
    host_poll_overhead_ns: int = 150        #: one poll_cq call
    host_memcpy_per_byte_ns: float = 0.03   #: bounce-buffer copies
    mr_register_base_ns: int = 30 * MICROS  #: pin + translate setup
    mr_register_per_page_ns: int = 220      #: per 4 KB page
    host_wakeup_ns: int = 4 * MICROS        #: epoll wakeup (event mode)

    # -------------------------------------------- on-demand paging (no-pin)
    #: ODP registration: no pinning, so no per-page cost — just the driver
    #: call programming the NIC to fault (NP-RDMA / ODP model).
    odp_register_ns: int = 12 * MICROS
    #: One page-fault event: NIC interrupt + driver fault handler entry.
    odp_page_fault_base_ns: int = 16 * MICROS
    #: Per 4 KB page faulted in (pin + translation-table update).
    odp_page_fault_per_page_ns: int = 500

    # ------------------------------------------------ connection management
    cm_resolve_ns: int = 600 * MICROS       #: rdma_cm address+route resolve
    qp_create_ns: int = 900 * MICROS        #: ibv_create_qp (alloc + firmware)
    qp_modify_ns: int = 200 * MICROS        #: each state transition (×3)
    qp_reset_ns: int = 60 * MICROS          #: modify to RESET (QP-cache path)
    tcp_connect_ns: int = 100 * MICROS      #: kernel TCP 3-way handshake

    # ---------------------------------------------------------------- DCQCN
    dcqcn_enabled: bool = True
    dcqcn_alpha_g: float = 0.00390625       #: 1/256, alpha EWMA gain
    dcqcn_alpha_update_ns: int = 55 * MICROS
    dcqcn_rate_increase_ns: int = 300 * MICROS  #: timer for recovery stages
    dcqcn_min_rate_bps: float = 100e6
    dcqcn_cnp_interval_ns: int = 50 * MICROS    #: min gap between CNPs per QP
    dcqcn_hyper_increase_stages: int = 5

    # ------------------------------------------------------------------ TCP
    tcp_per_msg_overhead_ns: int = 3 * MICROS   #: syscall + stack traversal
    tcp_per_byte_ns: float = 0.35               #: copies + segmentation

    # ------------------------------------------------------- derived helpers
    def serialization_ns(self, payload_bytes: int) -> int:
        """Wire time for ``payload_bytes`` (+ per-segment headers) on a link."""
        wire_bytes = payload_bytes + self.header_bytes
        return int(round(wire_bytes * 8 / self.link_bandwidth_bps * 1e9))

    def dma_ns(self, payload_bytes: int) -> int:
        """PCIe transfer time for one DMA of ``payload_bytes``."""
        return self.nic_dma_ns + int(round(
            payload_bytes * self.nic_dma_per_byte_ns))

    def mr_register_ns(self, length: int) -> int:
        """Cost of registering ``length`` bytes: the per-call base (the
        driver round trip) plus pinning per page."""
        pages = max(1, (length + 4095) // 4096)
        return self.mr_register_base_ns + pages * self.mr_register_per_page_ns

    def odp_page_fault_ns(self, pages: int) -> int:
        """Cost of faulting ``pages`` residency in (no-pin mode)."""
        return (self.odp_page_fault_base_ns
                + pages * self.odp_page_fault_per_page_ns)

    def segments_of(self, length: int) -> int:
        """Number of MTU segments a ``length``-byte payload occupies."""
        if length <= 0:
            return 1
        return (length + self.mtu_bytes - 1) // self.mtu_bytes


#: A second, slower parameterization used by failure-injection tests to make
#: congestion effects easier to provoke at tiny scale.
def congested_params() -> SimParams:
    """Params with shallow ECN/PFC thresholds so small benches hit them
    quickly."""
    return SimParams(
        ecn_kmin_bytes=16 * 1024,
        ecn_kmax_bytes=64 * 1024,
        pfc_xoff_bytes=96 * 1024,
        pfc_xon_bytes=64 * 1024,
    )
