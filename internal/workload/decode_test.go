package workload

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// nested returns a body nesting depth arrays (or objects, each under the
// key "a") counted from its top, optionally inside a request's "tasks"
// member, which is the first container.
func nested(depth int, objects, member bool) string {
	op, cl := "[", "]"
	if objects {
		op, cl = `{"a":`, "}"
	}
	inner := depth
	if member {
		inner--
	}
	body := strings.Repeat(op, inner) + strings.Repeat(cl, inner)
	if objects && inner > 0 {
		body = strings.Repeat(op, inner-1) + "{}" + strings.Repeat(cl, inner-1)
	}
	if member {
		return `{"tasks":` + body + `}`
	}
	return body
}

// validSeeds are inputs at the edges of json.Valid's grammar.
func validSeeds() []string {
	seeds := []string{
		// Escapes, good and bad, control bytes and invalid UTF-8.
		`"\"\\\/\b\f\n\r\tAé𐏿"`, `"\u12"`, `"\u12G4"`, `"\uzzzz"`, `"\u"`, `"\x"`,
		`"\`, `"\u00`, `"a` + "\x01" + `b"`, "\"\t\"", "\"\x1f\"", "\"\x7f\"", "\"\xff\xfe\"", "\"\xc3\"",
		`{"kA":1}`, `{"k\q":1}`, "{\"\x00\":1}",
		// Numbers.
		`-0`, `01`, `1.`, `1e`, `-`, `1e+`, `1E-`, `.5`, `+1`, `-01`, `0.0e0`, `1.5e-3`, `-12.5E+10`, `1.e3`,
		`0x1`, `1_000`, `[-]`, `[1.]`, `[01]`, `[-0,0]`,
		// Literals.
		`true`, `false`, `null`, `tru`, `nul`, `nulll`, `True`, `[true,false,null]`, `[truex]`,
		// Empty containers, trailing commas and trailing bytes.
		`[]`, `{}`, `[ ]`, "{\r\n\t}", `[1,]`, `{"a":1,}`, `[,1]`, `{,}`, `[1 2]`, `{"a" 1}`, `{"a":1 "b":2}`,
		`{1:2}`, `[] x`, `{}}`, `1 2`, `[]]`, ` [1, [2, [3]], {"a": []}] `, `[[],[[]],{}]`,
		"", " ", "\n", "[", "{", `{"a"`, `{"a":`, `[1`, "\x00", "[1]\x00",
		// Request bodies.
		`{"tasks":[{"wcet":1,"deadline":4,"period":4}],"model":"sporadic"}`,
		`{"model":5,"tasks":[}`, `{"name":5,"tasks":[1,]}`,
	}
	for _, depth := range []int{9999, 10000, 10001} {
		for _, objects := range []bool{false, true} {
			for _, member := range []bool{false, true} {
				seeds = append(seeds, nested(depth, objects, member))
			}
		}
	}
	return seeds
}

// walk consumes the value at the cursor through the Scanner's navigation
// alone, as the typing walks do: Member and Key for objects, Elem for
// arrays, Str for strings and Int for numbers.
func walk(s *Scanner) {
	switch c := s.Peek(); {
	case c == '{':
		for s.Member() {
			s.Key()
			walk(s)
		}
	case c == '[':
		for s.Elem() {
			walk(s)
		}
	case c == '"':
		s.Str()
	case c == '-' || '0' <= c && c <= '9':
		s.Int()
	default:
		s.Skip()
	}
}

// FuzzValid checks the scanner's check against json.Valid: a Scanner
// that skips one value, and one that walks it through its navigation,
// must each end exactly on the inputs json.Valid accepts. DecodeRequest,
// whose walk is its check, must answer json.Unmarshal's syntax error,
// text included, for exactly the inputs json.Valid rejects.
func FuzzValid(f *testing.F) {
	for _, seed := range validSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := json.Valid(data)
		s := NewScanner(data)
		if s.Skip(); s.End() != want {
			t.Fatalf("Skip and End of %q = %v, json.Valid = %v", data, s.End(), want)
		}
		s = NewScanner(data)
		if walk(&s); s.End() != want {
			t.Fatalf("walk and End of %q = %v, json.Valid = %v", data, s.End(), want)
		}
		var w Workload
		err := DecodeRequest(data, &w)
		var se *json.SyntaxError
		if errors.As(err, &se) == want {
			t.Fatalf("DecodeRequest(%q) = %v, json.Valid = %v", data, err, want)
		}
		if !want {
			if refErr := json.Unmarshal(data, new(struct{})); err.Error() != refErr.Error() {
				t.Fatalf("DecodeRequest(%q) = %q, json.Unmarshal: %q", data, err, refErr)
			}
		}
	})
}

// TestSyntaxErrorBeforeTypeError decodes bodies whose walk meets a type
// error before the syntax error behind it: encoding/json checks the whole
// body first, so the answer is its syntax error. The same bodies without
// the syntax error answer the type error.
func TestSyntaxErrorBeforeTypeError(t *testing.T) {
	for _, c := range []struct{ broken, fixed string }{
		{`{"model":5,"tasks":[}`, `{"model":5,"tasks":[]}`},
		{`{"model":[1],"tasks":[{"wcet":1}],}`, `{"model":[1],"tasks":[{"wcet":1}]}`},
		{`{"name":5,"tasks":[1,]}`, `{"name":5,"tasks":[1]}`},
		{`{"name":{},"x":tru}`, `{"name":{},"x":true}`},
		{`[1,2`, `[1,2]`},
		{`"request" x`, `"request"`},
	} {
		var name string
		var w Workload
		err := DecodeRequest([]byte(c.broken), &w, Field{Name: "name", Dst: &name})
		want := json.Unmarshal([]byte(c.broken), new(struct{}))
		var se *json.SyntaxError
		if !errors.As(want, &se) || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: got %v, want %v", c.broken, err, want)
		}
		err = DecodeRequest([]byte(c.fixed), &w, Field{Name: "name", Dst: &name})
		if err == nil || errors.As(err, &se) {
			t.Errorf("%s: got %v, want a type error", c.fixed, err)
		}
	}
}
