package sensor

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// coordinateCases are the named edge cases of the coordinate encoder.
func coordinateCases() []float64 {
	cases := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.MaxFloat64, 1e300, -1e300, 1e-300,
		41.38, 2.17, -89.999994, 179.999996, 0.000005, 0.0000049999, 1e-6, -1e-6,
	}
	// |v|*10^5 is a half-integer exactly when v is an odd multiple of
	// 1/64, so these are every rounding tie within +-400.
	for k := -64 * 400; k <= 64*400; k++ {
		cases = append(cases, float64(k)/64)
	}
	for k := -65536 * 2; k <= 65536*2; k++ {
		cases = append(cases, float64(k)/65536)
	}
	// Both sides of where the scaled mantissa passes 2^53 and where the
	// scaled value leaves 64 bits.
	for _, edge := range []float64{0x1p53 / 1e5, 0x1p64 / 1e5} {
		for _, v := range []float64{edge, -edge} {
			lo, hi := v, v
			for i := 0; i < 64; i++ {
				cases = append(cases, lo, hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
		}
	}
	return cases
}

func checkCoordinate(t *testing.T, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'f', 5, 64)
	if got := appendCoordinate(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendCoordinate(%v, bits %#x) = %q, strconv %q", v, math.Float64bits(v), got, want)
	}
}

// TestAppendCoordinateMatchesStrconv holds the coordinate encoder to
// strconv's 'f', 5 bytes on the named cases and on over a million
// seeded values: the generator's coordinates, log-uniform magnitudes
// across the fast path, and uniform random bit patterns.
func TestAppendCoordinateMatchesStrconv(t *testing.T) {
	for _, v := range coordinateCases() {
		checkCoordinate(t, v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		var v float64
		switch i % 4 {
		case 0: // a generator location: origin + (U-0.5)*0.01
			origin := []float64{0, 41.38, 2.17, -33.87, 151.21, -179.99}[rng.Intn(6)]
			v = origin + (rng.Float64()-0.5)*0.01
		case 1: // the generator's raw offset alone
			v = (rng.Float64() - 0.5) * 0.01
		case 2: // any magnitude from 2^-30 to 2^50, either sign
			v = math.Ldexp(1+rng.Float64(), rng.Intn(81)-30)
			if rng.Intn(2) == 0 {
				v = -v
			}
		default:
			v = math.Float64frombits(rng.Uint64())
		}
		checkCoordinate(t, v)
	}
}

// FuzzAppendCoordinate: for any float64 bit pattern the coordinate
// encoder writes exactly what strconv writes.
func FuzzAppendCoordinate(f *testing.F) {
	for _, v := range []float64{41.38, -2.17, 0.015625, 1e300, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		checkCoordinate(t, math.Float64frombits(b))
	})
}

// FuzzParseDecimal: for any bytes the decoder's number parsers return
// strconv's value bits, and succeed or fail (with strconv's error)
// exactly when strconv does.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{"41.38000", "-2.17000", "21.5", "-0", "5.", ".5", "-.5", ".",
		"1496275200000000000", "-9223372036854775808", "9223372036854775808",
		"9007199254740993", "0.1234567890123456789", "1e5", "+1", "1_0", "inf", "NaN", "0x1p3", ""} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		got, err := parseFloat(s)
		want, wantErr := strconv.ParseFloat(string(s), 64)
		if math.Float64bits(got) != math.Float64bits(want) || !sameError(err, wantErr) {
			t.Fatalf("parseFloat(%q) = %v (bits %#x), %v; strconv %v (bits %#x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
		n, err := parseInt(s)
		wantN, wantErr := strconv.ParseInt(string(s), 10, 64)
		if n != wantN || !sameError(err, wantErr) {
			t.Fatalf("parseInt(%q) = %d, %v; strconv %d, %v", s, n, err, wantN, wantErr)
		}
	})
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestAppendBatchAllocs: encoding into a buffer that already has room
// does not touch the heap.
func TestAppendBatchAllocs(t *testing.T) {
	b := benchBatchTB(t, 100, 8)
	buf := make([]byte, 0, 2*len(EncodeBatch(b)))
	if allocs := testing.AllocsPerRun(20, func() { buf = AppendBatch(buf[:0], b) }); allocs != 0 {
		t.Fatalf("AppendBatch into a pre-sized buffer: %v allocs, want 0", allocs)
	}
}
