"""Unit and property tests for IPv4 addressing primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addressing import (
    MAX_ADDRESS,
    AddressAllocator,
    Prefix,
    PrefixTable,
    format_address,
    parse_address,
)

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)
prefix_lengths = st.integers(min_value=0, max_value=32)


class TestParseFormat:
    def test_roundtrip_known_values(self):
        for text in ("0.0.0.0", "10.0.0.1", "172.16.5.255", "255.255.255.255"):
            assert format_address(parse_address(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ("", "1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "-1.0.0.0"):
            with pytest.raises(ValueError):
                parse_address(text)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_address(-1)
        with pytest.raises(ValueError):
            format_address(MAX_ADDRESS + 1)

    @given(addresses)
    def test_roundtrip_property(self, value):
        assert parse_address(format_address(value)) == value


class TestPrefix:
    def test_parse_and_str(self):
        prefix = Prefix.parse("10.1.0.0/16")
        assert str(prefix) == "10.1.0.0/16"
        assert prefix.length == 16

    def test_rejects_host_bits(self):
        with pytest.raises(ValueError):
            Prefix(parse_address("10.0.0.1"), 24)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)
        with pytest.raises(ValueError):
            Prefix(0, -1)

    def test_containing_masks_host_bits(self):
        prefix = Prefix.containing(parse_address("10.1.2.3"), 24)
        assert str(prefix) == "10.1.2.0/24"
        assert parse_address("10.1.2.3") in prefix

    def test_contains_boundaries(self):
        prefix = Prefix.parse("10.0.0.0/30")
        assert prefix.contains(parse_address("10.0.0.0"))
        assert prefix.contains(parse_address("10.0.0.3"))
        assert not prefix.contains(parse_address("10.0.0.4"))

    def test_hosts_conventional_subnet(self):
        hosts = list(Prefix.parse("10.0.0.0/30").hosts())
        assert [format_address(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_hosts_p2p_slash31(self):
        hosts = list(Prefix.parse("10.0.0.0/31").hosts())
        assert len(hosts) == 2

    def test_hosts_slash32(self):
        hosts = list(Prefix.parse("10.0.0.7/32").hosts())
        assert hosts == [parse_address("10.0.0.7")]

    def test_subnets(self):
        subs = list(Prefix.parse("10.0.0.0/24").subnets(26))
        assert len(subs) == 4
        assert str(subs[1]) == "10.0.0.64/26"

    def test_subnets_shorter_raises(self):
        with pytest.raises(ValueError):
            list(Prefix.parse("10.0.0.0/24").subnets(20))

    def test_covers(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.5.0.0/16")
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)

    def test_ordering_and_hash(self):
        a = Prefix.parse("10.0.0.0/24")
        b = Prefix.parse("10.0.1.0/24")
        assert a < b
        assert len({a, b, Prefix.parse("10.0.0.0/24")}) == 2

    @given(addresses, prefix_lengths)
    def test_containing_always_contains(self, address, length):
        prefix = Prefix.containing(address, length)
        assert prefix.contains(address)

    @given(addresses, st.integers(min_value=1, max_value=31))
    def test_num_addresses_matches_host_iteration(self, address, length):
        prefix = Prefix.containing(address, length)
        assert prefix.num_addresses == 1 << (32 - length)
        assert prefix.broadcast - prefix.network + 1 == prefix.num_addresses


class TestPrefixTable:
    def test_longest_match_wins(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "short")
        table.insert(Prefix.parse("10.1.0.0/16"), "long")
        assert table.lookup(parse_address("10.1.2.3"))[1] == "long"
        assert table.lookup(parse_address("10.2.0.1"))[1] == "short"

    def test_miss_returns_none(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "x")
        assert table.lookup(parse_address("11.0.0.1")) is None

    def test_exact(self):
        table = PrefixTable()
        prefix = Prefix.parse("10.1.0.0/16")
        table.insert(prefix, "v")
        assert table.exact(prefix) == "v"
        assert table.exact(Prefix.parse("10.1.0.0/17")) is None

    def test_replace_keeps_size(self):
        table = PrefixTable()
        prefix = Prefix.parse("10.0.0.0/8")
        table.insert(prefix, 1)
        table.insert(prefix, 2)
        assert len(table) == 1
        assert table.exact(prefix) == 2

    def test_remove(self):
        table = PrefixTable()
        prefix = Prefix.parse("10.0.0.0/8")
        table.insert(prefix, "x")
        table.remove(prefix)
        assert len(table) == 0
        assert table.lookup(parse_address("10.0.0.1")) is None

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            PrefixTable().remove(Prefix.parse("10.0.0.0/8"))

    def test_items_longest_first(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "a")
        table.insert(Prefix.parse("10.0.0.0/24"), "b")
        lengths = [prefix.length for prefix, _ in table.items()]
        assert lengths == sorted(lengths, reverse=True)

    @given(st.lists(st.tuples(addresses, st.integers(8, 32)), max_size=30), addresses)
    def test_lookup_agrees_with_linear_scan(self, entries, probe):
        table = PrefixTable()
        reference = {}
        for address, length in entries:
            prefix = Prefix.containing(address, length)
            table.insert(prefix, str(prefix))
            reference[prefix] = str(prefix)
        hit = table.lookup(probe)
        matches = [p for p in reference if p.contains(probe)]
        if not matches:
            assert hit is None
        else:
            best = max(matches, key=lambda p: p.length)
            assert hit is not None
            assert hit[0].length == best.length


class TestAllocator:
    def test_unique_links_and_loopbacks(self):
        allocator = AddressAllocator()
        seen = set()
        for _ in range(100):
            prefix, a, b = allocator.link_addresses()
            assert a != b
            assert a in prefix and b in prefix
            assert prefix not in seen
            seen.add(prefix)
        loopbacks = {allocator.next_loopback() for _ in range(100)}
        assert len(loopbacks) == 100

    def test_pools_must_be_disjoint(self):
        with pytest.raises(ValueError):
            AddressAllocator(
                link_pool="10.0.0.0/8", loopback_pool="10.1.0.0/16"
            )

    def test_exhaustion_raises(self):
        allocator = AddressAllocator(
            link_pool="10.0.0.0/30",
            loopback_pool="172.16.0.0/12",
            link_length=31,
        )
        allocator.next_link_prefix()
        allocator.next_link_prefix()
        with pytest.raises(RuntimeError):
            allocator.next_link_prefix()
