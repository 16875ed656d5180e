"""Unit tests for the intra-chip crossbar model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import NoCConfig
from repro.noc import Crossbar


def make_crossbar():
    return Crossbar(NoCConfig(), chip=0)


class TestPorts:
    def test_llc_ports_are_first(self):
        xbar = make_crossbar()
        assert xbar.llc_port(0) == 0
        assert xbar.llc_port(15) == 15

    def test_inter_chip_ports_follow(self):
        xbar = make_crossbar()
        assert xbar.inter_chip_port(0) == 16
        assert xbar.inter_chip_port(5) == 21

    def test_out_of_range_ports_raise(self):
        xbar = make_crossbar()
        with pytest.raises(IndexError):
            xbar.llc_port(16)
        with pytest.raises(IndexError):
            xbar.inter_chip_port(6)


class TestTiming:
    def test_hot_port_binds_epoch(self):
        xbar = make_crossbar()
        port_bw = xbar.config.port_bw_bytes_per_cycle
        xbar.charge_request(0, port_bw * 10)
        assert xbar.epoch_cycles() == pytest.approx(10.0)

    def test_bisection_binds_spread_traffic(self):
        xbar = make_crossbar()
        net_bw = xbar.config.bisection_bw_bytes_per_cycle / 2
        # Spread evenly over all 22 ports: per-port load is low but the
        # aggregate exceeds the request net's bisection share.
        per_port = net_bw * 22 / 22
        for port in range(22):
            xbar.charge_request(port, per_port)
        assert xbar.epoch_cycles() == pytest.approx(22 * per_port / net_bw)

    def test_request_and_response_nets_drain_concurrently(self):
        xbar = make_crossbar()
        port_bw = xbar.config.port_bw_bytes_per_cycle
        xbar.charge_request(0, port_bw * 4)
        xbar.charge_response(1, port_bw * 7)
        assert xbar.epoch_cycles() == pytest.approx(7.0)

    def test_end_epoch_resets_loads_keeps_stats(self):
        xbar = make_crossbar()
        xbar.charge_request(0, 100)
        xbar.charge_response(0, 50)
        xbar.end_epoch()
        assert xbar.epoch_cycles() == 0.0


class TestDiagnostics:
    def test_port_loads_reflect_charges(self):
        xbar = make_crossbar()
        xbar.charge_request(3, 100)
        xbar.charge_response(5, 50)
        loads = xbar.port_loads()
        assert loads["request"][3] == 100
        assert loads["response"][5] == 50
        assert sum(loads["request"]) == 100

    def test_epoch_bytes_totals_both_networks(self):
        xbar = make_crossbar()
        xbar.charge_request(0, 100)
        xbar.charge_response(1, 60)
        assert xbar.epoch_bytes() == 160


@given(st.lists(st.tuples(st.integers(0, 21), st.integers(0, 5000),
                          st.integers(0, 5000)), max_size=60))
@settings(max_examples=100, deadline=None)
def test_charge_ports_matches_per_port_charges(charges):
    """One ``charge_ports`` call == one request/response charge per
    message: same epoch loads, totals and epoch cycles."""
    bulk, ref = make_crossbar(), make_crossbar()
    ports = len(ref.port_loads()["request"])
    req = [0] * ports
    rsp = [0] * ports
    for port, req_bytes, rsp_bytes in charges:
        ref.charge_request(port, req_bytes)
        ref.charge_response(port, rsp_bytes)
        req[port] += req_bytes
        rsp[port] += rsp_bytes
    bulk.charge_ports(np.array(req, dtype=np.int64), rsp)
    assert bulk.port_loads() == ref.port_loads()
    assert bulk.epoch_bytes() == ref.epoch_bytes()
    assert bulk.epoch_cycles() == ref.epoch_cycles()
