package nids

import (
	"testing"
	"testing/quick"
)

func TestPrefixContains(t *testing.T) {
	cases := []struct {
		prefix Prefix
		ip     uint32
		want   bool
	}{
		{Prefix{Addr: IPv4(10, 0, 0, 0), Bits: 8}, IPv4(10, 1, 2, 3), true},
		{Prefix{Addr: IPv4(10, 0, 0, 0), Bits: 8}, IPv4(11, 0, 0, 1), false},
		{Prefix{Addr: IPv4(192, 168, 1, 0), Bits: 24}, IPv4(192, 168, 1, 255), true},
		{Prefix{Addr: IPv4(192, 168, 1, 0), Bits: 24}, IPv4(192, 168, 2, 0), false},
		{Prefix{Addr: IPv4(1, 2, 3, 4), Bits: 32}, IPv4(1, 2, 3, 4), true},
		{Prefix{Addr: IPv4(1, 2, 3, 4), Bits: 32}, IPv4(1, 2, 3, 5), false},
		{AnyPrefix, IPv4(8, 8, 8, 8), true},
	}
	for _, tc := range cases {
		if got := tc.prefix.Contains(tc.ip); got != tc.want {
			t.Errorf("%+v.Contains(%#x) = %v, want %v", tc.prefix, tc.ip, got, tc.want)
		}
	}
}

func TestPortRange(t *testing.T) {
	if !AnyPort.Contains(1) || !AnyPort.Contains(65535) {
		t.Fatal("AnyPort not matching everything")
	}
	r := PortRange{Lo: 80, Hi: 90}
	for port, want := range map[uint16]bool{79: false, 80: true, 85: true, 90: true, 91: false} {
		if got := r.Contains(port); got != want {
			t.Errorf("Contains(%d) = %v, want %v", port, got, want)
		}
	}
}

func TestHeaderRuleMatches(t *testing.T) {
	h := HeaderRule{
		Proto:    ProtoTCP,
		SrcNet:   AnyPrefix,
		DstNet:   Prefix{Addr: IPv4(10, 0, 0, 0), Bits: 8},
		DstPorts: PortRange{Lo: 80, Hi: 80},
	}
	ok := FiveTuple{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(10, 9, 8, 7), SrcPort: 5555, DstPort: 80, Proto: ProtoTCP}
	if !h.Matches(ok) {
		t.Fatal("matching tuple rejected")
	}
	bad := ok
	bad.Proto = ProtoUDP
	if h.Matches(bad) {
		t.Error("wrong proto accepted")
	}
	bad = ok
	bad.DstIP = IPv4(11, 0, 0, 1)
	if h.Matches(bad) {
		t.Error("wrong dst net accepted")
	}
	bad = ok
	bad.DstPort = 81
	if h.Matches(bad) {
		t.Error("wrong port accepted")
	}
}

// Property: prefix matching agrees with brute-force mask arithmetic.
func TestQuickPrefixContains(t *testing.T) {
	f := func(addr, ip uint32, bits8 uint8) bool {
		bits := int(bits8) % 33
		p := Prefix{Addr: addr, Bits: bits}
		want := true
		for b := 0; b < bits; b++ {
			shift := uint(31 - b)
			if (addr>>shift)&1 != (ip>>shift)&1 {
				want = false
				break
			}
		}
		if bits == 0 {
			want = true
		}
		return p.Contains(ip) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
