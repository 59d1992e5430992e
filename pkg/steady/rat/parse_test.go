package rat

import (
	"fmt"
	"math/big"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// parseCases mixes the plain forms parseSmall accepts with every
// neighbouring form that must fall back to big.Rat.SetString: prefixes,
// separators, signs, leading zeros, decimals, exponents, bad
// denominators, whitespace and values too long for int64.
var parseCases = []string{
	"0", "-0", "00", "007", "0/5", "5/0", "0/0", "1/0",
	"1", "-1", "42", "6/4", "-6/4", "3/-4", "-3/-4", "+3", "+3/4",
	"1.5", "-1.5", "1e3", "1E3", "1.5e-3", ".5", "5.", "1/2.5",
	"0x10", "0X10", "0b1", "0o17", "017", "0x10/3", "1/0x10", "1/010",
	"1_000", "1_000/3", "_1", "1/1_0",
	" 1", "1 ", "1 /2", "1/ 2", "", "-", "/", "/2", "1/", "--1", "-/2", "1//2", "1/2/3",
	"inf", "NaN", "abc", "1a", "1/2a",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808",
	"999999999999999999", "-999999999999999999", "999999999999999999/999999999999999998",
	"1000000000000000000", "1234567890123456789",
	"1234567890123456789012345678901234567890",
	"1/1234567890123456789012345678901234567890",
	"123456789012345678/3", "3/123456789012345678",
}

// checkParse asserts that Parse and big.Rat.SetString agree on s: the
// same success, the same value, the same error text as before the fast
// path existed, and a canonical result.
func checkParse(t *testing.T, s string) {
	t.Helper()
	want, wantOK := new(big.Rat).SetString(s)
	got, err := Parse(s)
	if (err == nil) != wantOK {
		t.Fatalf("Parse(%q) err = %v, big.Rat ok = %v", s, err, wantOK)
	}
	if !wantOK {
		if msg := fmt.Sprintf("rat: cannot parse %q", s); err.Error() != msg {
			t.Fatalf("Parse(%q) error %q, want %q", s, err, msg)
		}
		return
	}
	if got.Big().Cmp(want) != 0 {
		t.Fatalf("Parse(%q) = %v, big.Rat = %v", s, got, want)
	}
	if got.String() != want.RatString() {
		t.Fatalf("Parse(%q).String() = %q, want %q", s, got, want.RatString())
	}
	if fits := want.Num().IsInt64() && want.Denom().IsInt64(); fits != (got.b == nil) {
		t.Fatalf("Parse(%q): small form = %v, value fits int64 = %v", s, got.b == nil, fits)
	}
}

func TestParseMatchesBigRat(t *testing.T) {
	for _, s := range parseCases {
		checkParse(t, s)
	}
}

// plainForm is the grammar parseSmall documents: the inputs it must
// parse without math/big.
var plainForm = regexp.MustCompile(`^(0|-?[1-9][0-9]{0,17}(/[1-9][0-9]{0,17})?)$`)

// checkFastPath asserts that parseSmall takes exactly the plain forms.
func checkFastPath(t *testing.T, s string) {
	t.Helper()
	if _, ok := parseSmall(s); ok != plainForm.MatchString(s) {
		t.Fatalf("parseSmall(%q) ok = %v, plain form = %v", s, ok, !ok)
	}
}

func TestParseFastPath(t *testing.T) {
	for _, s := range parseCases {
		checkFastPath(t, s)
	}
	if r, _ := parseSmall("6/4"); r.String() != "3/2" {
		t.Fatalf("parseSmall(6/4) = %v, want 3/2", r)
	}
	if _, ok := parseSmall(strings.Repeat("9", 19)); ok {
		t.Fatal("parseSmall accepted 19 digits")
	}
}

func TestAppendTextMatchesBigRat(t *testing.T) {
	vals := []Rat{
		Zero(), One(), FromInt(-7), New(6, 4), New(-1, 3),
		FromInt(9223372036854775807), New(-9223372036854775807, 2), New(-9223372036854775808, 1),
		MustParse("123456789012345678901234567890"), MustParse("-123456789012345678901234567890/7"),
		MustParse("1/18446744073709551616"),
	}
	for _, x := range vals {
		got, err := x.AppendText([]byte("x="))
		if err != nil {
			t.Fatal(err)
		}
		if want := "x=" + x.Big().RatString(); string(got) != want {
			t.Fatalf("AppendText = %q, want %q", got, want)
		}
		if x.String() != x.Big().RatString() {
			t.Fatalf("String = %q, want %q", x.String(), x.Big().RatString())
		}
	}
}

func FuzzParse(f *testing.F) {
	for _, s := range parseCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
		checkFastPath(t, s)
	})
}

// TestFloat64MatchesBigRat checks Float64's int64 fast path against
// big.Rat.Float64, the nearest float64, around the 2^53 edge where
// operands stop being exact floats.
func TestFloat64MatchesBigRat(t *testing.T) {
	edges := []int64{1, 2, 3, 7, 10, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 3, 1 << 62, 9223372036854775807}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var n, d int64
		if i < len(edges)*len(edges) {
			n, d = edges[i/len(edges)], edges[i%len(edges)]
		} else {
			n, d = rng.Int63()>>uint(rng.Intn(63)), 1+rng.Int63()>>uint(rng.Intn(63))
		}
		if rng.Intn(2) == 0 {
			n = -n
		}
		x := New(n, d)
		want, _ := x.Big().Float64()
		if got := x.Float64(); got != want {
			t.Fatalf("New(%d, %d).Float64() = %v, want %v", n, d, got, want)
		}
	}
}
