"""Unit tests for flits and packets."""

import pytest

from repro.noc.flit import Flit, FlitType, Packet


class TestPacket:
    def test_basic_construction(self):
        p = Packet(src=0, dst=3, length=5, injection_cycle=7)
        assert p.src == 0
        assert p.dst == 3
        assert p.length == 5
        assert p.injection_cycle == 7
        assert p.burst_id is None

    def test_unique_pids(self):
        a = Packet(src=0, dst=1, length=1)
        b = Packet(src=0, dst=1, length=1)
        assert a.pid != b.pid

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, length=0)

    def test_rejects_negative_endpoints(self):
        with pytest.raises(ValueError):
            Packet(src=-1, dst=1, length=1)
        with pytest.raises(ValueError):
            Packet(src=0, dst=-2, length=1)

    def test_single_flit_packet_is_head_tail(self):
        p = Packet(src=0, dst=1, length=1)
        flits = p.flits()
        assert len(flits) == 1
        assert flits[0].kind is FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_two_flit_packet_is_head_then_tail(self):
        p = Packet(src=0, dst=1, length=2)
        kinds = [f.kind for f in p.flits()]
        assert kinds == [FlitType.HEAD, FlitType.TAIL]

    def test_long_packet_structure(self):
        p = Packet(src=2, dst=5, length=6)
        flits = p.flits()
        assert len(flits) == 6
        assert flits[0].kind is FlitType.HEAD
        assert all(f.kind is FlitType.BODY for f in flits[1:-1])
        assert flits[-1].kind is FlitType.TAIL
        assert [f.seq for f in flits] == list(range(6))

    def test_flits_carry_packet_endpoints(self):
        p = Packet(src=3, dst=7, length=3)
        for f in p.flits():
            assert f.src == 3
            assert f.dst == 7
            assert f.packet is p

    def test_burst_id_carried(self):
        p = Packet(src=0, dst=1, length=2, burst_id=42)
        assert p.burst_id == 42


class TestFlitType:
    @pytest.mark.parametrize(
        "kind,is_head,is_tail",
        [
            (FlitType.HEAD, True, False),
            (FlitType.BODY, False, False),
            (FlitType.TAIL, False, True),
            (FlitType.HEAD_TAIL, True, True),
        ],
    )
    def test_head_tail_flags(self, kind, is_head, is_tail):
        assert kind.is_head == is_head
        assert kind.is_tail == is_tail


class TestFlit:
    def test_flags_precomputed(self):
        p = Packet(src=1, dst=2, length=3)
        head, body, tail = p.flits()
        assert head.is_head and not head.is_tail
        assert not body.is_head and not body.is_tail
        assert tail.is_tail and not tail.is_head

    def test_stall_cycles_start_at_zero(self):
        p = Packet(src=0, dst=1, length=1)
        assert p.flits()[0].stall_cycles == 0

    def test_repr_mentions_endpoints(self):
        p = Packet(src=4, dst=9, length=1)
        text = repr(p.flits()[0])
        assert "4->9" in text


class TestFlitLayout:
    @pytest.mark.parametrize("length", [1, 2, 3, 8])
    def test_flits_match_public_constructor(self, length):
        p = Packet(src=2, dst=6, length=length)
        flits = p.flits()
        assert len(flits) == length
        for f in flits:
            ref = Flit(f.kind, p, f.seq)
            for name in (
                "kind",
                "is_head",
                "is_tail",
                "seq",
                "src",
                "dst",
                "stall_cycles",
                "packet",
            ):
                assert getattr(f, name) == getattr(ref, name), name
        kinds = [f.kind for f in flits]
        if length == 1:
            assert kinds == [FlitType.HEAD_TAIL]
        else:
            assert kinds == (
                [FlitType.HEAD]
                + [FlitType.BODY] * (length - 2)
                + [FlitType.TAIL]
            )

    def test_six_stored_fields(self):
        assert Flit.__slots__ == (
            "packet",
            "seq",
            "stall_cycles",
            "is_head",
            "is_tail",
            "dst",
        )
        flit = Packet(src=0, dst=1, length=2).flits()[0]
        assert not hasattr(flit, "__dict__")
