// Package packet models IPv4 packets as observed by a network telescope and
// provides a binary wire codec for them. It is the substrate that replaces
// the Libtrace packet-handling library used by the paper's C++ flow
// detector: every header field consumed downstream (Table II of the paper)
// is representable, serializable, and parseable.
package packet

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order. The zero value is 0.0.0.0.
type IP uint32

// MakeIP assembles an IP from its four dotted-quad octets.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four dotted-quad octets of the address.
func (ip IP) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// String renders the address in dotted-quad notation.
func (ip IP) String() string {
	a, b, c, d := ip.Octets()
	var sb strings.Builder
	sb.Grow(15)
	sb.WriteString(strconv.Itoa(int(a)))
	sb.WriteByte('.')
	sb.WriteString(strconv.Itoa(int(b)))
	sb.WriteByte('.')
	sb.WriteString(strconv.Itoa(int(c)))
	sb.WriteByte('.')
	sb.WriteString(strconv.Itoa(int(d)))
	return sb.String()
}

// ParseIP parses a dotted-quad IPv4 address. It allocates only for an
// error.
func ParseIP(s string) (IP, error) {
	if n := strings.Count(s, ".") + 1; n != 4 {
		return 0, fmt.Errorf("parse ip %q: want 4 octets, got %d", s, n)
	}
	var ip uint32
	for rest, more := s, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ".")
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("parse ip %q: %w", s, err)
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), nil
}

// MustParseIP is ParseIP that panics on malformed input. It is intended for
// constant-like addresses in tests and catalogs.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Base IP
	Bits int
}

// MakePrefix builds a prefix, normalizing the base address by masking off
// host bits.
func MakePrefix(base IP, bits int) Prefix {
	p := Prefix{Base: base, Bits: bits}
	return Prefix{Base: base & p.Mask(), Bits: bits}
}

// ParsePrefix parses CIDR notation such as "10.0.0.0/8".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("parse prefix %q: missing /", s)
	}
	base, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("parse prefix %q: %w", s, err)
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("parse prefix %q: bad bit count", s)
	}
	return MakePrefix(base, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on malformed input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the network mask of the prefix as an IP-shaped bit pattern.
func (p Prefix) Mask() IP {
	if p.Bits <= 0 {
		return 0
	}
	if p.Bits >= 32 {
		return ^IP(0)
	}
	return ^IP(0) << (32 - p.Bits)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&p.Mask() == p.Base&p.Mask()
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - p.Bits)
}

// Nth returns the i-th address inside the prefix (i modulo Size).
func (p Prefix) Nth(i uint64) IP {
	return p.Base + IP(i%p.Size())
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(p.Bits)
}
