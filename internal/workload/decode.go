package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/eventstream"
	"repro/internal/model"
)

// Field is one key a request decodes next to its workload. Every
// occurrence of the key, matched as encoding/json matches a struct field,
// is typed into Dst in document order, so repeated keys merge into Dst
// exactly as they do inside one struct decode. The walk types an *int
// Dst itself: null leaves it, an integer literal that fits sets it.
// Any other Dst, and any other value, goes to json.Unmarshal, which
// answers the type error. A Field name must differ from the workload's
// own keys (model, tasks, processors).
type Field struct {
	Name string
	Dst  any
}

// decode types one occurrence v of the field into Dst.
func (f Field) decode(v []byte) error {
	if dst, ok := f.Dst.(*int); ok && setInt(dst, v) {
		return nil
	}
	return json.Unmarshal(v, f.Dst)
}

// setInt types the value v into dst as encoding/json types an int, and
// reports false where it declines: for anything but null, which leaves
// dst, or an integer literal that fits an int.
func setInt(dst *int, v []byte) bool {
	if v[0] == 'n' {
		return true
	}
	n, ok := ParseInt(v)
	if !ok || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// DecodeRequest decodes a request object that carries a workload into w
// and the caller's fields. It walks the object once and checks its
// syntax on the way, as json.Valid would: the walk checks the object's
// keys and punctuation, and the scanner's check takes each member value,
// counting the "tasks" and "processors" arrays as it goes. It then types
// the last "processors" and "tasks" arrays under the final "model":
// processors, sporadic and partitioned tasks with their affinities, and
// integer fields by hand, event arrays through json.Unmarshal on their
// own spans. A processor array or an affinity the walk declines (a value
// of the wrong kind, a number its field cannot hold, a repeated
// affinity, which encoding/json merges in place) goes to json.Unmarshal
// too. The result, and the error for a body with a syntax error, equal
// what encoding/json's struct decoding of the same bytes gives; the
// package documentation lists the rules.
func DecodeRequest(data []byte, w *Workload, fields ...Field) error {
	s := Scanner{data: data}
	var name, tasks, procs []byte // quoted model name and value spans; nil while absent
	var nameEsc bool
	var n, np int // elements of tasks and of procs
	switch s.Peek() {
	case 'n': // null decodes as an empty object
		if !s.lit("null") || !s.end() {
			return syntaxError(data)
		}
	case '{':
		s.i++
		for more := s.Peek() != '}'; more; {
			key, ok := s.key()
			if !ok {
				return syntaxError(data)
			}
			start := s.i
			switch {
			case foldIs(key, "model"):
				switch c := s.Peek(); c {
				case 'n':
					ok = s.lit("null")
				case '"':
					nameEsc, ok = s.str()
					name = data[start:s.i]
				default:
					return typed(data, typeError("model", c, "a string"))
				}
			case foldIs(key, "tasks"):
				n, ok = s.skip(1)
				tasks = data[start:s.i]
			case foldIs(key, "processors"):
				np, ok = s.skip(1)
				procs = data[start:s.i]
			default:
				if _, ok = s.skip(1); !ok {
					break
				}
				for _, f := range fields {
					if foldIs(key, f.Name) {
						if err := f.decode(data[start:s.i]); err != nil {
							return typed(data, err)
						}
					}
				}
			}
			if !ok {
				return syntaxError(data)
			}
			if more, ok = s.next('}'); !ok {
				return syntaxError(data)
			}
		}
		if s.i++; !s.end() { // the '}'
			return syntaxError(data)
		}
	default:
		if _, ok := valid(data); !ok {
			return syntaxError(data)
		}
		return typeError("request", data[s.i], "an object")
	}
	m, err := ParseModel(Unquote(name, nameEsc))
	if err != nil {
		return err
	}
	*w = Workload{Model: m}
	if m == Partitioned && procs != nil && procs[0] != 'n' && !w.processors(procs, np) {
		w.Processors = nil
		if err := json.Unmarshal(procs, &w.Processors); err != nil {
			return fmt.Errorf("workload: processors: %w", err)
		}
	}
	if tasks == nil || tasks[0] == 'n' {
		return nil
	}
	if m == Events {
		if err := json.Unmarshal(tasks, &w.Events); err != nil {
			return fmt.Errorf("workload: events tasks: %w", err)
		}
		return nil
	}
	if tasks[0] != '[' {
		return typeError(string(m)+" tasks", tasks[0], "an array")
	}
	t := Scanner{data: tasks}
	if m == Partitioned {
		w.PartTasks = make([]PartitionedTask, n)
		for k := range w.PartTasks {
			t.Elem()
			if err := t.task(&w.PartTasks[k].Task, &w.PartTasks[k].Affinity, k); err != nil {
				return err
			}
		}
		return nil
	}
	w.Tasks = make(model.TaskSet, n)
	for k := range w.Tasks {
		t.Elem()
		if err := t.task(&w.Tasks[k], nil, k); err != nil {
			return err
		}
	}
	return nil
}

// processorKeys are the wire keys of a Processor, in field order.
var processorKeys = []string{"name", "speed"}

// processors types procs, a checked array of n elements, into
// w.Processors as encoding/json types a []Processor. It reports false,
// for json.Unmarshal to answer, where it declines the bytes: anything but
// nulls and objects whose "name" is null or a string and whose "speed"
// is null or an integer literal that fits an int64. Repeated keys need
// no merge: the last non-null occurrence sets a field.
func (w *Workload) processors(procs []byte, n int) bool {
	if procs[0] != '[' {
		return false
	}
	s := Scanner{data: procs}
	w.Processors = make([]Processor, n)
	for k := range w.Processors {
		s.Elem()
		switch s.Peek() {
		case 'n':
			s.i += len("null")
			continue
		case '{':
		default:
			return false
		}
		p := &w.Processors[k]
		for s.Member() {
			f := MatchKey(s.Key(), processorKeys)
			switch c := s.data[s.i]; {
			case f < 0 || c == 'n':
				s.Skip()
			case f == 0:
				if c != '"' {
					return false
				}
				p.Name = Unquote(s.Str())
			default:
				v, ok := ParseInt(s.Value())
				if !ok {
					return false
				}
				p.Speed = v
			}
		}
	}
	return true
}

// typed returns err, a typing error the walk met before it had checked
// all of data, unless data has a syntax error: encoding/json checks a
// whole body before it types any of it, so the syntax error wins.
func typed(data []byte, err error) error {
	if _, ok := valid(data); !ok {
		return syntaxError(data)
	}
	return err
}

// UnmarshalJSON decodes {"model": ..., "tasks": [...]} through
// DecodeRequest, dispatching the task element type on the model and
// defaulting to sporadic when the discriminator is absent, so every
// pre-discriminator payload keeps working. Unknown sibling keys (name,
// analyzer, ...) are skipped, so a Workload can decode itself out of any
// enclosing request object.
func (w *Workload) UnmarshalJSON(data []byte) error {
	return DecodeRequest(data, w)
}

// UnmarshalJSON dispatches on the task shape: an object with a "stream"
// key, even "stream": null, is an event-driven task decoded by
// json.Unmarshal; any other object takes the sporadic walk, so
// pre-existing {"wcet", "deadline", "period"} payloads keep working. A
// null task is a zero sporadic task.
func (t *Task) UnmarshalJSON(data []byte) error {
	s, err := NewScanner(data)
	if err != nil {
		return err
	}
	return s.DecodeTask(t)
}

// DecodeTask decodes the task at the cursor into t as Task.UnmarshalJSON
// decodes its bytes, and consumes it. The bytes must be checked already,
// as NewScanner checks them.
func (s *Scanner) DecodeTask(t *Task) error {
	switch c := s.Peek(); c {
	case 'n':
		s.i += len("null")
		*t = Task{Sporadic: &model.Task{}}
		return nil
	case '{':
	default:
		return typeError("task", c, "an object")
	}
	if probe := *s; probe.hasKey("stream") {
		var et eventstream.Task
		if err := json.Unmarshal(s.Value(), &et); err != nil {
			return fmt.Errorf("workload: event task: %w", err)
		}
		*t = Task{Event: &et}
		return nil
	}
	var st model.Task
	if err := s.task(&st, nil, 0); err != nil {
		return err
	}
	*t = Task{Sporadic: &st}
	return nil
}

// taskKeys are the wire keys of a sporadic task plus the affinity of a
// partitioned one, indexed by the field constants below.
var taskKeys = [...]string{"name", "wcet", "deadline", "period", "phase", "critical_section", "self_suspension", "affinity"}

const (
	fName = iota
	fWCET
	fDeadline
	fPeriod
	fPhase
	fCriticalSection
	fSelfSuspension
	fAffinity
	fUnknown
)

// taskField resolves a task key as MatchKey does, with a switch for the
// exact keys of the hot path.
func taskField(key []byte) int {
	switch string(key) {
	case "name":
		return fName
	case "wcet":
		return fWCET
	case "deadline":
		return fDeadline
	case "period":
		return fPeriod
	case "phase":
		return fPhase
	case "critical_section":
		return fCriticalSection
	case "self_suspension":
		return fSelfSuspension
	case "affinity":
		return fAffinity
	}
	if f := MatchKey(key, taskKeys[:]); f >= 0 {
		return f
	}
	return fUnknown
}

// MatchKey returns the index in keys of the struct field an object key
// names, matched as encoding/json matches fields: an exact match first,
// then a case-folded one (bytes.EqualFold). It returns -1 when no key
// matches. The keys of one struct are distinct under folding, so the
// order cannot change the result.
func MatchKey(key []byte, keys []string) int {
	for f, k := range keys {
		if string(key) == k {
			return f
		}
	}
	for f, k := range keys {
		if foldIs(key, k) {
			return f
		}
	}
	return -1
}

// intField returns the int64 field f of t.
func intField(t *model.Task, f int) *int64 {
	switch f {
	case fWCET:
		return &t.WCET
	case fDeadline:
		return &t.Deadline
	case fPeriod:
		return &t.Period
	case fPhase:
		return &t.Phase
	case fCriticalSection:
		return &t.CriticalSection
	}
	return &t.SelfSuspension
}

// task types one element of a sporadic or partitioned task array into t
// (and its affinity into aff, for partitioned arrays), as encoding/json
// types a struct element: null leaves the zero task, an object sets the
// fields it names in document order, anything else is a type error. An
// affinity the walk declines goes to json.Unmarshal, and so does every
// occurrence of a repeated one, from nil, since encoding/json merges
// them in place.
func (s *Scanner) task(t *model.Task, aff *[]int, k int) error {
	switch s.Peek() {
	case 'n':
		s.i += len("null")
		return nil
	case '{':
	default:
		return typeError("task "+strconv.Itoa(k), s.data[s.i], "an object")
	}
	var affs int        // affinity members so far
	var typedAff []byte // the first affinity while the walk's typing of it stands
	for s.Member() {
		f := taskField(s.Key())
		c := s.data[s.i]
		switch {
		case f == fAffinity && aff != nil:
			start := s.i
			if affs++; affs == 1 && s.ints(aff) {
				typedAff = s.data[start:s.i]
				continue
			}
			s.i = start
			v := s.Value()
			if typedAff != nil {
				*aff = nil
				_ = json.Unmarshal(typedAff, aff) // typed once, so it decodes
				typedAff = nil
			}
			if err := json.Unmarshal(v, aff); err != nil {
				return fmt.Errorf("workload: task %d: affinity: %w", k, err)
			}
		case f == fUnknown || f == fAffinity || c == 'n':
			s.Skip()
		case f == fName:
			if c != '"' {
				return typeError("task "+strconv.Itoa(k)+" name", c, "a string")
			}
			t.Name = Unquote(s.Str())
		default:
			lit := s.Value()
			v, ok := ParseInt(lit)
			if c != '-' && (c < '0' || c > '9') || !ok {
				return fmt.Errorf("workload: task %d: %s: cannot decode %s %s as an int64",
					k, taskKeys[f], kindOf(c), lit)
			}
			*intField(t, f) = v
		}
	}
	return nil
}

// ints types the value at the cursor into *dst as encoding/json types an
// []int into a nil slice, and consumes it: null is nil, [] is empty and
// not nil, a null element is 0. For anything but null or an array of
// nulls and integer literals that fit an int it reports false, leaving
// *dst alone and the cursor somewhere inside the value.
func (s *Scanner) ints(dst *[]int) bool {
	switch s.Peek() {
	case 'n':
		s.i += len("null")
		*dst = nil
		return true
	case '[':
	default:
		return false
	}
	var buf [16]int
	out := buf[:0]
	for s.Elem() {
		v := 0
		if !setInt(&v, s.Value()) {
			return false
		}
		out = append(out, v)
	}
	*dst = append(make([]int, 0, len(out)), out...)
	return true
}

// ParseInt types a number literal as encoding/json types an int64 field,
// through strconv.ParseInt(lit, 10, 64): fractions, exponents and
// overflow fail. Literals of up to 18 digits take a shortcut that cannot
// overflow.
func ParseInt(lit []byte) (int64, bool) {
	d := lit
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		return v, err == nil
	}
	var v int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if len(d) < len(lit) {
		v = -v
	}
	return v, true
}

// Scanner walks JSON one value at a time. It is the one JSON scanner of
// the wire decoders: DecodeRequest walks request bodies on it, and
// package service walks replies on it. Its check (skip) accepts exactly
// the bytes json.Valid accepts; DecodeRequest runs it on each member
// value as it walks, NewScanner on a whole body before a walk. The
// exported methods walk bytes already checked and check nothing beyond
// what they consume, and on such bytes no index they read reaches
// len(data).
type Scanner struct {
	data []byte
	i    int
}

// NewScanner checks data as json.Valid does, encoding/json's nesting
// limit and its rejection of trailing bytes included, and returns a
// Scanner at the start of data, or encoding/json's error for bytes that
// fail the check.
func NewScanner(data []byte) (Scanner, error) {
	if _, ok := valid(data); !ok {
		return Scanner{}, syntaxError(data)
	}
	return Scanner{data: data}, nil
}

// maxDepth is encoding/json's nesting limit: a body may nest this many
// arrays and objects, counted from its top.
const maxDepth = 10000

// valid checks that data is one JSON value with only whitespace around
// it, under the grammar json.Valid checks, and returns the number of
// elements when the value is an array.
func valid(data []byte) (int, bool) {
	s := Scanner{data: data}
	n, ok := s.skip(0)
	return n, ok && s.end()
}

// skip checks the value at the cursor, which depth arrays and objects
// enclose, and consumes it. It returns the number of elements when the
// value is an array, and ok false when the bytes are not a value, with
// the cursor then somewhere inside them. It checks what json.Valid
// checks: the nesting limit, the escapes, that a string holds no control
// byte, the number grammar, the literals and the whitespace; like
// json.Valid it does not check UTF-8.
func (s *Scanner) skip(depth int) (n int, ok bool) {
	switch s.Peek() {
	case '"':
		_, ok = s.str()
	case '{':
		ok = s.object(depth + 1)
	case '[':
		n, ok = s.array(depth + 1)
	case 't':
		ok = s.lit("true")
	case 'f':
		ok = s.lit("false")
	case 'n':
		ok = s.lit("null")
	default:
		ok = s.number()
	}
	return n, ok
}

// object checks and consumes the object at the cursor, the depth-th
// container from the top.
func (s *Scanner) object(depth int) bool {
	if depth > maxDepth {
		return false
	}
	s.i++ // '{'
	for more := s.Peek() != '}'; more; {
		if s.Peek() != '"' {
			return false
		}
		if _, ok := s.str(); !ok || s.Peek() != ':' {
			return false
		}
		s.i++
		if _, ok := s.skip(depth); !ok {
			return false
		}
		var ok bool
		if more, ok = s.next('}'); !ok {
			return false
		}
	}
	s.i++ // '}'
	return true
}

// array checks and consumes the array at the cursor, the depth-th
// container from the top, and returns its number of elements.
func (s *Scanner) array(depth int) (int, bool) {
	if depth > maxDepth {
		return 0, false
	}
	s.i++ // '['
	n := 0
	for more := s.Peek() != ']'; more; n++ {
		if _, ok := s.skip(depth); !ok {
			return 0, false
		}
		var ok bool
		if more, ok = s.next(']'); !ok {
			return 0, false
		}
	}
	s.i++ // ']'
	return n, true
}

// next reads the byte after a member or an element: it consumes a ','
// and reports that another one follows, stops at the closing byte, and
// reports ok false for any other byte.
func (s *Scanner) next(closing byte) (more, ok bool) {
	switch s.Peek() {
	case ',':
		s.i++
		return true, true
	case closing:
		return false, true
	}
	return false, false
}

// str checks and consumes the string at the cursor, which must be at its
// opening quote, and reports whether it needs encoding/json's unquoting:
// whether it holds an escape or a byte that is not ASCII.
func (s *Scanner) str() (esc, ok bool) {
	d, j := s.data, s.i+1
	for {
		for j < len(d) && plain[d[j]] {
			j++
		}
		if j == len(d) {
			return esc, false
		}
		switch c := d[j]; {
		case c == '"':
			s.i = j + 1
			return esc, true
		case c == '\\':
			esc = true
			if j++; j == len(d) {
				return esc, false
			}
			switch d[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(d)-j <= 4 || !isHex(d[j+1]) || !isHex(d[j+2]) || !isHex(d[j+3]) || !isHex(d[j+4]) {
					return esc, false
				}
				j += 4
			default:
				return esc, false
			}
		case c < 0x20:
			return esc, false
		default: // not ASCII
			esc = true
		}
		j++
	}
}

// plain marks the bytes a string holds as they are: printable ASCII other
// than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f' }

// number checks and consumes the number at the cursor:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *Scanner) number() bool {
	d, j, ok := s.data, s.i, false
	if j < len(d) && d[j] == '-' {
		j++
	}
	if j < len(d) && d[j] == '0' {
		j++
	} else if j, ok = digits(d, j); !ok {
		return false
	}
	if j < len(d) && d[j] == '.' {
		if j, ok = digits(d, j+1); !ok {
			return false
		}
	}
	if j < len(d) && d[j]|0x20 == 'e' {
		if j++; j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		if j, ok = digits(d, j); !ok {
			return false
		}
	}
	s.i = j
	return true
}

// digits returns the index after the run of decimal digits that starts
// at d[j], and whether the run is not empty.
func digits(d []byte, j int) (int, bool) {
	k := j
	for k < len(d) && '0' <= d[k] && d[k] <= '9' {
		k++
	}
	return k, k > j
}

// lit checks and consumes the literal w at the cursor.
func (s *Scanner) lit(w string) bool {
	if len(s.data)-s.i < len(w) || string(s.data[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// end reports whether only whitespace follows the cursor.
func (s *Scanner) end() bool {
	s.Peek()
	return s.i == len(s.data)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Peek skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) Peek() byte {
	for i := s.i; i < len(s.data); i++ {
		if c := s.data[i]; c > ' ' || !isSpace(c) {
			s.i = i
			return c
		}
	}
	s.i = len(s.data)
	return 0
}

// Member advances to the next member of an object, called first with the
// cursor at its '{' and then after each member's value, and reports
// whether there is one: it consumes the '{' or ',' before a key, or the
// closing '}'.
func (s *Scanner) Member() bool {
	switch s.Peek() {
	case '}':
		s.i++
		return false
	case '{', ',':
		s.i++
		if s.Peek() == '}' { // only after '{': a comma is always followed by a key
			s.i++
			return false
		}
	}
	return true
}

// Elem advances to the next element of an array, called first with the
// cursor at its '[' and then after each element, and reports whether
// there is one: it consumes the '[' or ',' before an element, or the
// closing ']'.
func (s *Scanner) Elem() bool {
	switch s.Peek() {
	case ']':
		s.i++
		return false
	case '[', ',':
		s.i++
		if s.Peek() == ']' { // only after '['
			s.i++
			return false
		}
	}
	return true
}

// Key consumes a member's key and colon, leaving the cursor at the value,
// and returns the key as encoding/json compares it.
func (s *Scanner) Key() []byte {
	key, _ := s.key()
	return key
}

// key checks and consumes a member's key and colon, leaving the cursor at
// the value, and returns the key as encoding/json compares it. A key with
// an escape is unquoted through json.Unmarshal; one with invalid UTF-8
// matches no field either way, so its raw bytes serve.
func (s *Scanner) key() ([]byte, bool) {
	if s.Peek() != '"' {
		return nil, false
	}
	q := s.i
	esc, ok := s.str()
	end := s.i
	if !ok || s.Peek() != ':' {
		return nil, false
	}
	s.i++
	s.Peek()
	raw := s.data[q+1 : end-1]
	if esc && bytes.IndexByte(raw, '\\') >= 0 {
		raw = []byte(Unquote(s.data[q:end], esc))
	}
	return raw, true
}

// Str consumes the string at the cursor and returns it with its quotes,
// and whether it needs encoding/json's unquoting: it holds an escape or a
// byte that is not ASCII.
func (s *Scanner) Str() (q []byte, esc bool) {
	start := s.i
	esc, _ = s.str()
	return s.data[start:s.i], esc
}

// Value consumes the value at the cursor and returns its bytes.
func (s *Scanner) Value() []byte {
	start := s.i
	s.Skip()
	return s.data[start:s.i]
}

// Skip consumes the value at the cursor and returns the number of
// elements when it is an array. It runs the scanner's check (skip), the
// package's one value skipper, for the cursor it leaves.
func (s *Scanner) Skip() int {
	n, _ := s.skip(0)
	return n
}

// hasKey reports whether the object at the cursor has a key matching
// name, consuming the object.
func (s *Scanner) hasKey(name string) bool {
	found := false
	for s.Member() {
		found = foldIs(s.Key(), name) || found
		s.Skip()
	}
	return found
}

// Unquote decodes a string Str returned as encoding/json decodes it: its
// raw content when plain or valid UTF-8 without escapes, json.Unmarshal
// otherwise (escapes, and invalid UTF-8, which becomes U+FFFD). A nil q
// is the empty string.
func Unquote(q []byte, esc bool) string {
	if q == nil {
		return ""
	}
	raw := q[1 : len(q)-1]
	if esc && (bytes.IndexByte(raw, '\\') >= 0 || !utf8.Valid(raw)) {
		var out string
		_ = json.Unmarshal(q, &out) // q is a valid JSON string
		return out
	}
	return string(raw)
}

// foldIs reports whether key matches name under encoding/json's
// case-insensitive field matching, which is bytes.EqualFold.
func foldIs(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// syntaxError returns encoding/json's error for bytes that fail the
// scanner's check, which are the bytes json.Valid rejects.
func syntaxError(data []byte) error {
	var v struct{}
	return json.Unmarshal(data, &v)
}

// typeError reports a value of the wrong JSON kind, named by its first
// byte.
func typeError(what string, c byte, want string) error {
	return fmt.Errorf("workload: %s: cannot decode %s, want %s", what, kindOf(c), want)
}

func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}
