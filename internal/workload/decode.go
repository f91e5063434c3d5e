package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
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

// decode types the value at the cursor into Dst and consumes it.
func (f Field) decode(s *Scanner) error {
	s.Peek()
	start := s.i
	if dst, ok := f.Dst.(*int); ok {
		if s.setInt(dst) {
			return nil
		}
	} else {
		s.Skip()
	}
	if s.bad {
		return nil // the walk answers the syntax error
	}
	return json.Unmarshal(s.data[start:s.i], f.Dst)
}

// setInt types the value at the cursor into dst as encoding/json types an
// int, and consumes it. It reports false where it declines: for anything
// but null, which leaves dst, or an integer literal that fits an int.
func (s *Scanner) setInt(dst *int) bool {
	if s.Peek() == 'n' {
		s.Skip()
		return true
	}
	n, ok := s.Int()
	if !ok || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// DecodeRequest decodes a request object that carries a workload into w
// and the caller's fields. It walks the object once, and the walk is the
// check: every byte it consumes is checked as json.Valid would check it,
// so no other pass runs over the body. The walk types each "processors"
// and "tasks" array as it meets it, under the model named so far:
// processors, sporadic and partitioned tasks with their affinities, and
// integer fields by hand. After the walk the last "processors" and
// "tasks" spans are typed again, by the same functions on their checked
// bytes, only where the walk did not type them under the final "model":
// a span after which the model changed, one met under no usable model,
// or one whose typing declined or failed. Event arrays go to
// json.Unmarshal on their own spans. A processor array or an affinity the
// walk declines (a value of the wrong kind, a number its field cannot
// hold, a repeated affinity, which encoding/json merges in place) goes to
// json.Unmarshal too. A typing error is answered only once the whole body
// has passed the check, so a syntax error anywhere wins. The result, and
// the error for a body with a syntax error, equal what encoding/json's
// struct decoding of the same bytes gives; the package documentation
// lists the rules.
func DecodeRequest(data []byte, w *Workload, fields ...Field) error {
	s := Scanner{data: data}
	var name, tasks, procs []byte // quoted model name and value spans; nil while absent
	var nameEsc bool
	var typed Workload  // the walk's typing of the last tasks and processors
	var tasksAs Model   // the model typed.Tasks or PartTasks holds the last tasks under; "" for none
	var procsTyped bool // typed.Processors holds the last processors
	var err error       // the walk's first typing error
	switch c := s.Peek(); c {
	case 'n': // null decodes as an empty object
		s.Skip()
	case '{':
		for s.Member() {
			key := s.Key()
			s.Peek()
			at := s // the cursor at the value
			switch {
			case foldIs(key, "model"):
				switch c := s.Peek(); c {
				case '"':
					name, nameEsc = s.Str()
				case 'n':
					s.Skip()
				default:
					s.Skip()
					if err == nil {
						err = typeError("model", c, "a string")
					}
				}
			case foldIs(key, "tasks"):
				tasksAs = ""
				m, e := modelOf(name, nameEsc)
				if e == nil && m != Events && s.Peek() == '[' && s.taskArray(&typed, m) == nil {
					tasksAs = m
				} else {
					s = at
					s.Skip()
				}
				tasks = data[at.i:s.i]
			case foldIs(key, "processors"):
				m, e := modelOf(name, nameEsc)
				if procsTyped = e == nil && m == Partitioned && s.processors(&typed.Processors); !procsTyped {
					s = at
					s.Skip()
				}
				procs = data[at.i:s.i]
			default:
				if f := fieldOf(fields, key); f != nil && err == nil {
					err = f.decode(&s)
				} else {
					s.Skip()
				}
			}
		}
	default:
		if s.Skip(); s.End() {
			return typeError("request", c, "an object")
		}
	}
	if !s.End() {
		return syntaxError(data)
	}
	if err != nil {
		return err
	}
	m, err := modelOf(name, nameEsc)
	if err != nil {
		return err
	}
	*w = Workload{Model: m}
	if m == Partitioned && procs != nil && procs[0] != 'n' {
		if !procsTyped {
			t := Scanner{data: procs, depth: 1}
			procsTyped = t.processors(&typed.Processors)
		}
		if w.Processors = typed.Processors; !procsTyped {
			w.Processors = nil
			if err := json.Unmarshal(procs, &w.Processors); err != nil {
				return fmt.Errorf("workload: processors: %w", err)
			}
		}
	}
	switch {
	case tasks == nil || tasks[0] == 'n':
	case m == Events:
		if err := json.Unmarshal(tasks, &w.Events); err != nil {
			return fmt.Errorf("workload: events tasks: %w", err)
		}
	case tasks[0] != '[':
		return typeError(string(m)+" tasks", tasks[0], "an array")
	case tasksAs == m:
		w.Tasks, w.PartTasks = typed.Tasks, typed.PartTasks
	default:
		t := Scanner{data: tasks, depth: 1}
		return t.taskArray(w, m)
	}
	return nil
}

// fieldOf returns the field a request key names, or nil.
func fieldOf(fields []Field, key []byte) *Field {
	for k := range fields {
		if foldIs(key, fields[k].Name) {
			return &fields[k]
		}
	}
	return nil
}

// modelOf resolves a quoted model name, nil while absent, as ParseModel
// resolves its unquoted string; a plain name needs no copy.
func modelOf(q []byte, esc bool) (Model, error) {
	if q != nil && !esc {
		switch string(q[1 : len(q)-1]) {
		case "", string(Sporadic):
			return Sporadic, nil
		case string(Events):
			return Events, nil
		case string(Partitioned):
			return Partitioned, nil
		}
	}
	return ParseModel(Unquote(q, esc))
}

// taskArray types the array at the cursor into w's tasks under model m,
// sporadic or partitioned, and consumes it. The other model's tasks are
// reset, so w holds the typing of one array only.
func (s *Scanner) taskArray(w *Workload, m Model) (err error) {
	w.Tasks, w.PartTasks = nil, nil
	if m == Partitioned {
		w.PartTasks, err = collect[PartitionedTask](s, 0)
	} else {
		w.Tasks, err = collect[model.Task](s, 0)
	}
	return err
}

// errDecline marks a value the walk leaves to json.Unmarshal.
var errDecline = errors.New("workload: declined")

// stackElems is the number of array elements one call of collect types
// on its stack.
const stackElems = 32

// collect types the elements of the array at the cursor, n of its
// elements before them typed by the calls that recursed into this one,
// into a slice of exactly their number, and consumes the array: [] is
// empty and not nil. Each call types up to stackElems elements into a
// buffer on its stack and recurses for the rest; the call that meets the
// closing bracket allocates the slice, and every call copies its
// elements into it on the way back. So the array is walked once, without
// a count, into one allocation, however long it is.
func collect[T model.Task | PartitionedTask | Processor | int](s *Scanner, n int) ([]T, error) {
	var buf [stackElems]T
	for k := range buf {
		if !s.Elem() {
			out := make([]T, n+k)
			copy(out[n:], buf[:k])
			return out, nil
		}
		if err := s.elem(&buf[k], n+k); err != nil {
			return nil, err
		}
	}
	out, err := collect[T](s, n+stackElems)
	if err == nil {
		copy(out[n:], buf[:])
	}
	return out, err
}

// elem types the k-th element of an array into dst, a pointer to a
// sporadic task, a partitioned task, a processor or an affinity index,
// and consumes it; errDecline leaves the array to json.Unmarshal.
func (s *Scanner) elem(dst any, k int) error {
	switch v := dst.(type) {
	case *model.Task:
		_, err := s.task(v, nil, k)
		return err
	case *PartitionedTask:
		_, err := s.task(&v.Task, &v.Affinity, k)
		return err
	case *Processor:
		return s.processor(v)
	default:
		if !s.setInt(v.(*int)) {
			return errDecline
		}
		return nil
	}
}

// processorKeys are the wire keys of a Processor, in field order.
var processorKeys = []string{"name", "speed"}

// processors types the value at the cursor into *dst as encoding/json
// types a []Processor, and consumes it. It reports false, for
// json.Unmarshal to answer, where it declines the bytes: anything but an
// array of nulls and objects whose "name" is null or a string and whose
// "speed" is null or an integer literal that fits an int64.
func (s *Scanner) processors(dst *[]Processor) bool {
	if s.Peek() != '[' {
		return false
	}
	ps, err := collect[Processor](s, 0)
	*dst = ps
	return err == nil
}

// processor types one processor element into p. Repeated keys need no
// merge: the last non-null occurrence sets a field.
func (s *Scanner) processor(p *Processor) error {
	switch s.Peek() {
	case 'n':
		s.Skip()
		return nil
	case '{':
	default:
		return errDecline
	}
	for s.Member() {
		f := MatchKey(s.Key(), processorKeys)
		switch c := s.Peek(); {
		case f < 0 || c == 'n':
			s.Skip()
		case f == 0:
			if c != '"' {
				return errDecline
			}
			p.Name = Unquote(s.Str())
		default:
			v, ok := s.Int()
			if !ok {
				return errDecline
			}
			p.Speed = v
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
// null task is a zero sporadic task. The walk checks the bytes as it
// types them, and a syntax error anywhere wins over a typing error.
func (t *Task) UnmarshalJSON(data []byte) error {
	s := Scanner{data: data}
	var dt Task
	err := s.DecodeTask(&dt)
	if !s.End() {
		return syntaxError(data)
	}
	if err == nil {
		*t = dt
	}
	return err
}

// DecodeTask decodes the task at the cursor into t as Task.UnmarshalJSON
// decodes its bytes, and consumes it, checking every byte; a task it
// cannot type is still consumed whole, so the caller's walk goes on. The
// sporadic walk notes a "stream" key as it passes it; only a task whose
// typing fails before the end of its object is walked a second time, to
// look for one.
func (s *Scanner) DecodeTask(t *Task) error {
	at := *s
	switch c := s.Peek(); c {
	case 'n':
		s.Skip()
		*t = Task{Sporadic: &model.Task{}}
		return nil
	case '{':
	default:
		s.Skip()
		return typeError("task", c, "an object")
	}
	var st model.Task
	stream, err := s.task(&st, nil, 0)
	if err != nil && !stream {
		*s = at
		stream = s.hasKey("stream")
	}
	if stream {
		*s = at
		var et eventstream.Task
		if err := json.Unmarshal(s.Value(), &et); err != nil {
			return fmt.Errorf("workload: event task: %w", err)
		}
		*t = Task{Event: &et}
		return nil
	}
	if err != nil {
		return err
	}
	*t = Task{Sporadic: &st}
	return nil
}

// taskKeys are the wire keys of a sporadic task plus the affinity of a
// partitioned one and the stream that makes a proposed task an event
// task, indexed by the field constants below.
var taskKeys = [...]string{"name", "wcet", "deadline", "period", "phase", "critical_section", "self_suspension",
	"affinity", "stream"}

const (
	fName = iota
	fWCET
	fDeadline
	fPeriod
	fPhase
	fCriticalSection
	fSelfSuspension
	fAffinity
	fStream
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
	case "stream":
		return fStream
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
// fields it names in document order, anything else is a type error. Each
// integer is typed in the scan that checks it. An affinity the walk
// declines goes to json.Unmarshal, and so does every occurrence of a
// repeated one, from nil, since encoding/json merges them in place.
// stream reports a "stream" key met before the task's end or its error.
func (s *Scanner) task(t *model.Task, aff *[]int, k int) (stream bool, err error) {
	switch c := s.Peek(); c {
	case 'n':
		s.Skip()
		return false, nil
	case '{':
	default:
		return false, typeError("task "+strconv.Itoa(k), c, "an object")
	}
	var affs int        // affinity members so far
	var typedAff []byte // the first affinity while the walk's typing of it stands
	for s.Member() {
		f := taskField(s.Key())
		c := s.Peek()
		switch {
		case f == fAffinity && aff != nil:
			at := *s
			if affs++; affs == 1 && s.ints(aff) {
				typedAff = s.data[at.i:s.i]
				continue
			}
			*s = at
			v := s.Value()
			a := *aff // decoded in a copy, so that aff stays on the caller's stack
			if typedAff != nil {
				a = nil
				_ = json.Unmarshal(typedAff, &a) // typed once, so it decodes
				typedAff = nil
			}
			err := json.Unmarshal(v, &a)
			if *aff = a; err != nil {
				return stream, fmt.Errorf("workload: task %d: affinity: %w", k, err)
			}
		case f == fStream:
			stream = true
			s.Skip()
		case f == fUnknown || f == fAffinity || c == 'n':
			s.Skip()
		case f == fName:
			if c != '"' {
				return stream, typeError("task "+strconv.Itoa(k)+" name", c, "a string")
			}
			t.Name = Unquote(s.Str())
		default:
			start := s.i
			v, ok := s.Int()
			if !ok {
				return stream, fmt.Errorf("workload: task %d: %s: cannot decode %s %s as an int64",
					k, taskKeys[f], kindOf(c), s.data[start:s.i])
			}
			*intField(t, f) = v
		}
	}
	return stream, nil
}

// ints types the value at the cursor into *dst as encoding/json types an
// []int into a nil slice, and consumes it: null is nil, [] is empty and
// not nil, a null element is 0. For anything but null or an array of
// nulls and integer literals that fit an int it reports false, leaving
// *dst alone and the cursor somewhere inside the value.
func (s *Scanner) ints(dst *[]int) bool {
	switch s.Peek() {
	case 'n':
		s.Skip()
		*dst = nil
		return true
	case '[':
	default:
		return false
	}
	out, err := collect[int](s, 0)
	if err != nil {
		return false
	}
	*dst = out
	return true
}

// Scanner walks JSON one value at a time, and its walk is the check: each
// method checks the bytes it consumes as json.Valid checks them, the
// punctuation, keys, strings, literals and numbers, and encoding/json's
// nesting limit counted from the top of the body. It is the one JSON
// scanner of the wire decoders: DecodeRequest walks request bodies on
// it, and package service walks proposals and replies on it. A method
// that meets bytes json.Valid rejects fails the walk: the cursor moves to
// the end, and every later method consumes nothing and reports no
// member, element or value. End then reports false, so a walk that End
// accepts has checked every byte of the body, and no walk needs a check
// ahead of it.
type Scanner struct {
	data  []byte
	i     int
	depth int  // arrays and objects open at the cursor
	after bool // the cursor follows a value: a ',', a closing byte or the end comes next
	bad   bool // the walk failed the check
}

// NewScanner returns a Scanner at the start of data. It checks nothing:
// the walk does.
func NewScanner(data []byte) Scanner {
	return Scanner{data: data}
}

// End reports whether the walk consumed one whole value, checking every
// byte of it, and only whitespace follows: whether data passes json.Valid
// and the walk took all of it.
func (s *Scanner) End() bool {
	return !s.bad && s.after && s.depth == 0 && s.end()
}

// fail fails the walk.
func (s *Scanner) fail() bool {
	s.bad, s.i = true, len(s.data)
	return false
}

// maxDepth is encoding/json's nesting limit: a body may nest this many
// arrays and objects, counted from its top.
const maxDepth = 10000

// skip checks the value at the cursor, which depth arrays and objects
// enclose, and consumes it. It reports false when the bytes are not a
// value, with the cursor then somewhere inside them. It checks what
// json.Valid checks: the nesting limit, the escapes, that a string holds
// no control byte, the number grammar, the literals and the whitespace;
// like json.Valid it does not check UTF-8.
func (s *Scanner) skip(depth int) bool {
	switch s.Peek() {
	case '"':
		_, ok := s.str()
		return ok
	case '{':
		return s.object(depth + 1)
	case '[':
		return s.array(depth + 1)
	case 't':
		return s.lit("true")
	case 'f':
		return s.lit("false")
	case 'n':
		return s.lit("null")
	}
	return s.number()
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
		if !s.skip(depth) {
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
// container from the top.
func (s *Scanner) array(depth int) bool {
	if depth > maxDepth {
		return false
	}
	s.i++ // '['
	for more := s.Peek() != ']'; more; {
		if !s.skip(depth) {
			return false
		}
		var ok bool
		if more, ok = s.next(']'); !ok {
			return false
		}
	}
	s.i++ // ']'
	return true
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
// whether it holds an escape or a byte that is not ASCII. It passes plain
// bytes eight at a time.
func (s *Scanner) str() (esc, ok bool) {
	d, j := s.data, s.i+1
	for {
		if len(d)-j >= 8 {
			m := special(binary.LittleEndian.Uint64(d[j:]))
			if m == 0 {
				j += 8
				continue
			}
			j += bits.TrailingZeros64(m) / 8
		} else {
			for j < len(d) && plain[d[j]] {
				j++
			}
			if j == len(d) {
				return esc, false
			}
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

// special returns x, eight bytes loaded little-endian, with the high bit
// set in its lowest byte that a string cannot hold as it is: a quote, a
// backslash, a control byte or a byte that is not ASCII, and 0 when there
// is none. The subtractions borrow only past such a byte, so no byte
// below the lowest one is marked.
func special(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	return ((x - 0x20*ones) | ((x ^ '"'*ones) - ones) | ((x ^ '\\'*ones) - ones) | x) & highs
}

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
// closing '}'. Key then consumes the key.
func (s *Scanner) Member() bool {
	return s.advance('{', '}')
}

// Elem advances to the next element of an array, called first with the
// cursor at its '[' and then after each element, and reports whether
// there is one: it consumes the '[' or ',' before an element, or the
// closing ']'.
func (s *Scanner) Elem() bool {
	return s.advance('[', ']')
}

// advance is Member and Elem for the container that opens with op and
// closes with cl: at a value it opens the container, after one it reads
// the ',' or the closing byte.
func (s *Scanner) advance(op, cl byte) bool {
	switch c := s.Peek(); {
	case !s.after:
		if c != op {
			return s.fail()
		}
		s.i++
		if s.depth++; s.depth > maxDepth {
			return s.fail()
		}
		if s.Peek() != cl {
			return true
		}
	case c == ',':
		s.i++
		s.after = false
		return true
	case c != cl:
		return s.fail()
	}
	s.i++
	s.depth--
	s.after = true
	return false
}

// Key consumes a member's key and colon, leaving the cursor before the
// value, and returns the key as encoding/json compares it. A key with an
// escape is unquoted through json.Unmarshal; one with invalid UTF-8
// matches no field either way, so its raw bytes serve.
func (s *Scanner) Key() []byte {
	if s.Peek() != '"' {
		s.fail()
		return nil
	}
	q := s.i
	esc, ok := s.str()
	end := s.i
	if !ok || s.Peek() != ':' {
		s.fail()
		return nil
	}
	s.i++
	raw := s.data[q+1 : end-1]
	if esc && bytes.IndexByte(raw, '\\') >= 0 {
		raw = []byte(Unquote(s.data[q:end], esc))
	}
	return raw
}

// Str consumes the string at the cursor and returns it with its quotes,
// and whether it needs encoding/json's unquoting: it holds an escape or a
// byte that is not ASCII.
func (s *Scanner) Str() (q []byte, esc bool) {
	if s.Peek() != '"' {
		s.fail()
		return nil, false
	}
	start := s.i
	esc, ok := s.str()
	if !ok {
		s.fail()
		return nil, false
	}
	s.after = true
	return s.data[start:s.i], esc
}

// Value consumes the value at the cursor and returns its bytes.
func (s *Scanner) Value() []byte {
	s.Peek()
	start := s.i
	if !s.skip(s.depth) {
		s.fail()
		return nil
	}
	s.after = true
	return s.data[start:s.i]
}

// Skip consumes the value at the cursor.
func (s *Scanner) Skip() {
	s.Value()
}

// Int consumes the value at the cursor and types it as encoding/json
// types an int64 field, as strconv.ParseInt(lit, 10, 64) would: ok
// reports an integer literal that fits. The scan that checks a literal of
// up to 18 digits types it. A fraction, an exponent, overflow or a value
// of another kind is consumed with ok false.
func (s *Scanner) Int() (v int64, ok bool) {
	c := s.Peek()
	if c != '-' && (c < '0' || c > '9') {
		s.Skip()
		return 0, false
	}
	d, i := s.data, s.i
	j := i
	if c == '-' {
		j++
	}
	k := j
	var u uint64
	if j < len(d) && d[j] == '0' {
		j++
	} else {
		for ; j < len(d) && '0' <= d[j] && d[j] <= '9'; j++ {
			u = u*10 + uint64(d[j]-'0')
		}
		if j == k {
			return 0, s.fail()
		}
	}
	if j < len(d) && (d[j] == '.' || d[j]|0x20 == 'e') {
		s.Skip()
		return 0, false
	}
	s.i, s.after = j, true
	switch {
	case j-k > 18:
		n, err := strconv.ParseInt(string(d[i:j]), 10, 64)
		return n, err == nil
	case c == '-':
		return -int64(u), true
	}
	return int64(u), true
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
