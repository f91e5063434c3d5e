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
// goes to json.Unmarshal into Dst in document order, so repeated keys
// merge into Dst exactly as they do inside one struct decode. A Field
// name must differ from the workload's own keys (model, tasks,
// processors).
type Field struct {
	Name string
	Dst  any
}

// DecodeRequest decodes a request object that carries a workload into w
// and the caller's fields. It checks data with json.Valid once, walks the
// object once, and then types the last "tasks" array under the final
// "model": sporadic and partitioned arrays by hand, event arrays and the
// processors through json.Unmarshal on their own spans. The result equals
// what encoding/json's struct decoding of the same bytes gives; the
// package documentation lists the rules.
func DecodeRequest(data []byte, w *Workload, fields ...Field) error {
	s, err := NewScanner(data)
	if err != nil {
		return err
	}
	var name, tasks, procs []byte // quoted model name and value spans; nil while absent
	var nameEsc bool
	var n int // elements of tasks
	switch s.Peek() {
	case 'n': // null decodes as an empty object
	case '{':
		for s.Member() {
			key := s.Key()
			start := s.i
			switch {
			case foldIs(key, "model"):
				switch s.data[s.i] {
				case 'n':
					s.Skip()
				case '"':
					name, nameEsc = s.Str()
				default:
					return typeError("model", s.data[s.i], "a string")
				}
			case foldIs(key, "tasks"):
				n = s.Skip()
				tasks = s.data[start:s.i]
			case foldIs(key, "processors"):
				procs = s.Value()
			default:
				v := s.Value()
				for _, f := range fields {
					if foldIs(key, f.Name) {
						if err := json.Unmarshal(v, f.Dst); err != nil {
							return err
						}
					}
				}
			}
		}
	default:
		return typeError("request", s.data[s.i], "an object")
	}
	m, err := ParseModel(Unquote(name, nameEsc))
	if err != nil {
		return err
	}
	*w = Workload{Model: m}
	if m == Partitioned && procs != nil && procs[0] != 'n' {
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
	switch s.Peek() {
	case 'n':
		*t = Task{Sporadic: &model.Task{}}
		return nil
	case '{':
	default:
		return typeError("task", s.data[s.i], "an object")
	}
	if probe := s; probe.hasKey("stream") {
		var et eventstream.Task
		if err := json.Unmarshal(data, &et); err != nil {
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
// fields it names in document order, anything else is a type error.
func (s *Scanner) task(t *model.Task, aff *[]int, k int) error {
	switch s.Peek() {
	case 'n':
		s.i += len("null")
		return nil
	case '{':
	default:
		return typeError("task "+strconv.Itoa(k), s.data[s.i], "an object")
	}
	for s.Member() {
		f := taskField(s.Key())
		c := s.data[s.i]
		switch {
		case f == fAffinity && aff != nil:
			if err := json.Unmarshal(s.Value(), aff); err != nil {
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

// Scanner walks bytes that json.Valid accepted, one value at a time. It
// is the one JSON scanner of the wire decoders: DecodeRequest walks
// request bodies on it, and package service walks replies on it. It
// checks no syntax, and on such input no index it reads reaches
// len(data).
type Scanner struct {
	data []byte
	i    int
}

// NewScanner checks data with json.Valid, encoding/json's own syntax
// check (its nesting limit and its rejection of trailing bytes
// included), and returns a Scanner at the start of data, or
// encoding/json's error for bytes that fail it.
func NewScanner(data []byte) (Scanner, error) {
	if !json.Valid(data) {
		return Scanner{}, syntaxError(data)
	}
	return Scanner{data: data}, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Peek skips whitespace and returns the next byte, 0 at the end.
func (s *Scanner) Peek() byte {
	for s.i < len(s.data) && isSpace(s.data[s.i]) {
		s.i++
	}
	if s.i < len(s.data) {
		return s.data[s.i]
	}
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
// and returns the key as encoding/json compares it. A key with an escape
// is unquoted through json.Unmarshal; one with invalid UTF-8 matches no
// field either way, so its raw bytes serve.
func (s *Scanner) Key() []byte {
	q, esc := s.Str()
	raw := q[1 : len(q)-1]
	if esc && bytes.IndexByte(raw, '\\') >= 0 {
		raw = []byte(Unquote(q, esc))
	}
	s.Peek()
	s.i++ // ':'
	s.Peek()
	return raw
}

// Str consumes the string at the cursor and returns it with its quotes,
// and whether it needs encoding/json's unquoting: it holds an escape or a
// byte that is not ASCII.
func (s *Scanner) Str() (q []byte, esc bool) {
	start := s.i
	for j := start + 1; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return s.data[start:s.i], esc
		case c == '\\':
			esc = true
			j++
		case c >= utf8.RuneSelf:
			esc = true
		}
	}
	s.i = len(s.data)
	return s.data[start:], esc
}

// Value consumes the value at the cursor and returns its bytes.
func (s *Scanner) Value() []byte {
	start := s.i
	s.Skip()
	return s.data[start:s.i]
}

// Skip consumes the value at the cursor and returns the number of
// elements when it is an array.
func (s *Scanner) Skip() int {
	switch s.data[s.i] {
	case '"':
		s.Str()
		return 0
	case '{', '[':
	default:
		for s.i < len(s.data) {
			switch c := s.data[s.i]; c {
			case ',', '}', ']':
				return 0
			default:
				if isSpace(c) {
					return 0
				}
			}
			s.i++
		}
		return 0
	}
	n := 0
	if s.data[s.i] == '[' {
		if probe := (Scanner{s.data, s.i + 1}); probe.Peek() != ']' {
			n = 1
		}
	}
	for depth := 0; s.i < len(s.data); {
		switch s.data[s.i] {
		case '"':
			s.Str()
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				s.i++
				return n
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
		s.i++
	}
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

// syntaxError returns encoding/json's error for bytes json.Valid rejected.
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
