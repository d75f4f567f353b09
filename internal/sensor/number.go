package sensor

import (
	"math"
	"math/bits"
	"strconv"
)

// coordScale is 10^coordDigits: coordinates travel with five decimals.
const (
	coordDigits = 5
	coordScale  = 100000
)

// appendCoordinate appends strconv.AppendFloat(v, 'f', 5, 64) to dst.
// strconv prints a fixed precision through its multi-precision decimal
// (bigFtoa); here fixedCoordinate computes the same rounding of the
// same exact value in integer math. Non-finite values and
// |v|*10^5 >= 2^64 fall back to strconv.
func appendCoordinate(dst []byte, v float64) []byte {
	n, neg, ok := fixedCoordinate(v)
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', coordDigits, 64)
	}
	if neg {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, n/coordScale, 10)
	frac := n % coordScale
	dst = append(dst, '.', '0', '0', '0', '0', '0')
	for i := len(dst) - 1; frac != 0; i-- {
		dst[i] = byte('0' + frac%10)
		frac /= 10
	}
	return dst
}

// fixedCoordinate returns the integer n that the text wire prints for
// v with five implied decimals — |v|*10^5 rounded half-to-even on the
// exact value — and v's sign bit, which the wire prints even when n is
// 0. The float's 53-bit mantissa is scaled by 10^5 in 128-bit integer
// math and rounded on the exact remainder, which is strconv's rounding
// of the same value. ok is false for non-finite values and where
// |v|*10^5 does not fit 64 bits.
func fixedCoordinate(v float64) (n uint64, neg, ok bool) {
	b := math.Float64bits(v)
	neg = b>>63 != 0
	exp := int(b>>52) & 0x7ff
	switch {
	case exp == 0x7ff:
		return 0, neg, false
	case exp == 0: // zero and subnormals: |v| < 2^-1022 rounds to 0
		return 0, neg, true
	}
	// |v| = mant * 2^-shift exactly.
	mant := b&(1<<52-1) | 1<<52
	shift := 1075 - exp
	if shift <= 0 { // |v| >= 2^52
		return 0, neg, false
	}
	// |v|*10^5 = (hi:lo) / 2^shift with hi:lo < 2^70. Split it into the
	// integer n, the first dropped bit rb and the OR of the rest.
	hi, lo := bits.Mul64(mant, coordScale)
	var rb, sticky uint64
	if shift <= 64 {
		if hi>>shift != 0 {
			return 0, neg, false
		}
		n = hi<<(64-shift) | lo>>shift
		rb = lo >> (shift - 1) & 1
		sticky = lo & (1<<(shift-1) - 1)
	} else {
		s := shift - 64 // shifts of 64 or more bits yield 0
		n = hi >> s
		rb = hi >> (s - 1) & 1
		sticky = hi&(1<<(s-1)-1) | lo
	}
	if rb == 1 && (sticky != 0 || n&1 == 1) {
		if n++; n == 0 {
			return 0, neg, false
		}
	}
	return n, neg, true
}

// pow10 holds 10^0..10^19, each exact in a float64 (up to 10^22 are).
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// parseFloat returns strconv.ParseFloat(string(s), 64), bit for bit.
// A field shaped [-]digits[.digits] of at most 19 digits that form an
// integer m < 2^53, k of them after the point, is float64(m)/10^k: both
// operands are exact, so the one IEEE division is the correctly
// rounded value ParseFloat returns. Every other shape (exponent, '+',
// '_', inf/nan, hex, too many digits, malformed) goes to strconv,
// which also supplies the error.
func parseFloat(s []byte) (float64, error) {
	i, neg := 0, false
	if len(s) > 0 && s[0] == '-' {
		i, neg = 1, true
	}
	var m uint64
	digits, frac, dot := 0, 0, false
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if digits++; digits >= len(pow10) { // m could overflow
				return strconv.ParseFloat(string(s), 64)
			}
			m = m*10 + uint64(c-'0')
			if dot {
				frac++
			}
		case c == '.' && !dot:
			dot = true
		default:
			return strconv.ParseFloat(string(s), 64)
		}
	}
	if digits == 0 || m>>53 != 0 {
		return strconv.ParseFloat(string(s), 64)
	}
	f := float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, nil
}

// parseInt returns strconv.ParseInt(string(s), 10, 64): [-]digits with
// at most 19 digits parses in place, anything else goes to strconv.
func parseInt(s []byte) (int64, error) {
	i, neg := 0, false
	if len(s) > 0 && s[0] == '-' {
		i, neg = 1, true
	}
	if n := len(s) - i; n == 0 || n > 19 {
		return strconv.ParseInt(string(s), 10, 64)
	}
	var u uint64 // 19 digits stay below 2^64
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			return strconv.ParseInt(string(s), 10, 64)
		}
		u = u*10 + uint64(c)
	}
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u), nil
	case neg && u <= 1<<63:
		return -int64(u), nil // -int64(1<<63) wraps to MinInt64
	}
	return strconv.ParseInt(string(s), 10, 64)
}
