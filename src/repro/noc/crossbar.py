"""Intra-chip concentrated hierarchical crossbar model.

The baseline NoC is a 38x22 crossbar: 32 SM-cluster ports plus 6
inter-chip link ports on the input side, 16 LLC-slice ports plus 6
inter-chip link ports on the output side (paper Section 2).  The engine
charges request/response bytes to ports; epoch service time is the demand
of the busiest port plus a bisection constraint.

Two logical networks are modelled (request and response), mirroring the
paper's "separate request and response networks"; each owns half the
bisection bandwidth.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..arch.config import NoCConfig


class Crossbar:
    """One chip's intra-chip NoC.

    Ports are addressed by kind:

    * SM input ports ``0..sm_ports-1``
    * LLC output ports ``0..llc_ports-1``
    * inter-chip ports ``0..inter_chip_ports-1`` (exist on both sides)
    """

    def __init__(self, config: NoCConfig, chip: int) -> None:
        self.config = config
        self.chip = chip
        ports = config.llc_ports + config.inter_chip_ports
        # Per-epoch byte charges on output-side ports, request/response nets.
        self._epoch_req: List[float] = [0.0] * ports
        self._epoch_rsp: List[float] = [0.0] * ports
        self._epoch_req_total = 0.0
        self._epoch_rsp_total = 0.0

    # Output-side port index helpers.
    def llc_port(self, slice_index: int) -> int:
        if not 0 <= slice_index < self.config.llc_ports:
            raise IndexError(f"LLC port {slice_index} out of range")
        return slice_index

    def inter_chip_port(self, link_index: int) -> int:
        if not 0 <= link_index < self.config.inter_chip_ports:
            raise IndexError(f"inter-chip port {link_index} out of range")
        return self.config.llc_ports + link_index

    def charge_request(self, port: int, num_bytes: float) -> None:
        """Charge request-network bytes headed to output ``port``."""
        self._epoch_req[port] += num_bytes
        self._epoch_req_total += num_bytes

    def charge_response(self, port: int, num_bytes: float) -> None:
        """Charge response-network bytes sourced from output-side ``port``."""
        self._epoch_rsp[port] += num_bytes
        self._epoch_rsp_total += num_bytes

    def charge_ports(self, req: Sequence[int], rsp: Sequence[int]) -> None:
        """Charge request/response bytes to every output port at once.

        ``req`` and ``rsp`` hold integer byte counts per output port
        (LLC ports, then inter-chip ports); equivalent to one
        :meth:`charge_request`/:meth:`charge_response` per port.
        """
        req_l = [int(b) for b in req]
        rsp_l = [int(b) for b in rsp]
        if not len(req_l) == len(rsp_l) == len(self._epoch_req):
            raise IndexError("need one entry per output port")
        self._epoch_req = [a + b for a, b in zip(self._epoch_req, req_l)]
        self._epoch_rsp = [a + b for a, b in zip(self._epoch_rsp, rsp_l)]
        self._epoch_req_total += sum(req_l)
        self._epoch_rsp_total += sum(rsp_l)

    def epoch_cycles(self) -> float:
        """Cycles to drain this epoch's traffic through this crossbar.

        The binding constraint is the busier of (a) the hottest port at
        its per-port bandwidth and (b) the whole net at the bisection
        bandwidth.  Request and response nets drain concurrently, so the
        result is the max of the two nets.
        """
        port_bw = self.config.port_bw_bytes_per_cycle
        # Each net owns half the bisection.
        net_bw = self.config.bisection_bw_bytes_per_cycle / 2
        req = max(max(self._epoch_req, default=0.0) / port_bw,
                  self._epoch_req_total / net_bw)
        rsp = max(max(self._epoch_rsp, default=0.0) / port_bw,
                  self._epoch_rsp_total / net_bw)
        return max(req, rsp)

    def epoch_bytes(self) -> float:
        return self._epoch_req_total + self._epoch_rsp_total

    def port_loads(self) -> Dict[str, List[float]]:
        """This epoch's per-port loads (for diagnostics)."""
        return {"request": list(self._epoch_req),
                "response": list(self._epoch_rsp)}

    def end_epoch(self) -> None:
        for i in range(len(self._epoch_req)):
            self._epoch_req[i] = 0.0
            self._epoch_rsp[i] = 0.0
        self._epoch_req_total = 0.0
        self._epoch_rsp_total = 0.0
