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
	if !json.Valid(data) {
		return syntaxError(data)
	}
	s := scanner{data: data}
	var name, tasks, procs []byte // quoted model name and value spans; nil while absent
	var nameEsc bool
	var n int // elements of tasks
	switch s.peek() {
	case 'n': // null decodes as an empty object
	case '{':
		s.i++
		for s.member() {
			key := s.key()
			start := s.i
			switch {
			case foldIs(key, "model"):
				switch s.data[s.i] {
				case 'n':
					s.skip()
				case '"':
					name, nameEsc = s.str()
				default:
					return typeError("model", s.data[s.i], "a string")
				}
			case foldIs(key, "tasks"):
				n = s.skip()
				tasks = s.data[start:s.i]
			case foldIs(key, "processors"):
				s.skip()
				procs = s.data[start:s.i]
			default:
				s.skip()
				for _, f := range fields {
					if foldIs(key, f.Name) {
						if err := json.Unmarshal(s.data[start:s.i], f.Dst); err != nil {
							return err
						}
					}
				}
			}
		}
	default:
		return typeError("request", s.data[s.i], "an object")
	}
	m, err := ParseModel(unquote(name, nameEsc))
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
	t := scanner{data: tasks, i: 1}
	if m == Partitioned {
		w.PartTasks = make([]PartitionedTask, n)
		for k := range w.PartTasks {
			if err := t.task(&w.PartTasks[k].Task, &w.PartTasks[k].Affinity, k); err != nil {
				return err
			}
			t.next()
		}
		return nil
	}
	w.Tasks = make(model.TaskSet, n)
	for k := range w.Tasks {
		if err := t.task(&w.Tasks[k], nil, k); err != nil {
			return err
		}
		t.next()
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
	if !json.Valid(data) {
		return syntaxError(data)
	}
	s := scanner{data: data}
	switch s.peek() {
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

// taskField resolves a task key: an exact match first, then a case-folded
// one. The keys are distinct under folding, so the order cannot change
// the result.
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
	for f, k := range taskKeys {
		if foldIs(key, k) {
			return f
		}
	}
	return fUnknown
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
func (s *scanner) task(t *model.Task, aff *[]int, k int) error {
	switch s.peek() {
	case 'n':
		s.i += len("null")
		return nil
	case '{':
		s.i++
	default:
		return typeError("task "+strconv.Itoa(k), s.data[s.i], "an object")
	}
	for s.member() {
		f := taskField(s.key())
		c := s.data[s.i]
		switch {
		case f == fAffinity && aff != nil:
			start := s.i
			s.skip()
			if err := json.Unmarshal(s.data[start:s.i], aff); err != nil {
				return fmt.Errorf("workload: task %d: affinity: %w", k, err)
			}
		case f == fUnknown || f == fAffinity || c == 'n':
			s.skip()
		case f == fName:
			if c != '"' {
				return typeError("task "+strconv.Itoa(k)+" name", c, "a string")
			}
			t.Name = unquote(s.str())
		default:
			start := s.i
			s.skip()
			v, ok := parseInt(s.data[start:s.i])
			if c != '-' && (c < '0' || c > '9') || !ok {
				return fmt.Errorf("workload: task %d: %s: cannot decode %s %s as an int64",
					k, taskKeys[f], kindOf(c), s.data[start:s.i])
			}
			*intField(t, f) = v
		}
	}
	return nil
}

// parseInt types a number literal as encoding/json types an int64 field,
// through strconv.ParseInt(lit, 10, 64): fractions, exponents and
// overflow fail. Literals of up to 18 digits take a shortcut that cannot
// overflow.
func parseInt(lit []byte) (int64, bool) {
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

// scanner walks bytes that json.Valid accepted. It checks no syntax, and
// on such input no index it reads reaches len(data).
type scanner struct {
	data []byte
	i    int
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for s.i < len(s.data) && isSpace(s.data[s.i]) {
		s.i++
	}
	if s.i < len(s.data) {
		return s.data[s.i]
	}
	return 0
}

// member advances to the next member of the object being walked and
// reports whether there is one: it consumes the ',' before a key, or the
// closing '}'.
func (s *scanner) member() bool {
	switch s.peek() {
	case '}':
		s.i++
		return false
	case ',':
		s.i++
		s.peek()
	}
	return true
}

// key consumes a member's key and colon, leaving s.i at the value, and
// returns the key as encoding/json compares it. A key with an escape is
// unquoted through json.Unmarshal; one with invalid UTF-8 matches no
// field either way, so its raw bytes serve.
func (s *scanner) key() []byte {
	q, esc := s.str()
	raw := q[1 : len(q)-1]
	if esc && bytes.IndexByte(raw, '\\') >= 0 {
		raw = []byte(unquote(q, esc))
	}
	s.peek()
	s.i++ // ':'
	s.peek()
	return raw
}

// next consumes the ',' or ']' after an array element.
func (s *scanner) next() {
	s.peek()
	s.i++
}

// str consumes the string at s.i and returns it with its quotes, and
// whether it needs encoding/json's unquoting: it holds an escape or a
// byte that is not ASCII.
func (s *scanner) str() (q []byte, esc bool) {
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

// skip consumes the value at s.i and returns the number of elements when
// it is an array.
func (s *scanner) skip() int {
	switch s.data[s.i] {
	case '"':
		s.str()
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
		if probe := (scanner{s.data, s.i + 1}); probe.peek() != ']' {
			n = 1
		}
	}
	for depth := 0; s.i < len(s.data); {
		switch s.data[s.i] {
		case '"':
			s.str()
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

// hasKey reports whether the object at s.i has a key matching name,
// consuming the object.
func (s *scanner) hasKey(name string) bool {
	s.i++
	found := false
	for s.member() {
		found = foldIs(s.key(), name) || found
		s.skip()
	}
	return found
}

// unquote decodes a string str returned as encoding/json decodes it: its
// raw content when plain or valid UTF-8 without escapes, json.Unmarshal
// otherwise (escapes, and invalid UTF-8, which becomes U+FFFD). A nil q
// is the empty string.
func unquote(q []byte, esc bool) string {
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
